"""The canonical merge phase: per-link message runs → transitions.

:class:`RunMerger` is the single implementation of the merge-window rule
(§3.4) behind every mode.  The batch driver
(:func:`repro.core.reconstruct.merge_messages`) feeds each link's
messages in time order and closes everything with an infinite watermark;
the stream engine feeds messages as they arrive and advances the
watermark as sources drain.  A run closes the moment a message proves it
over (direction change, or same direction outside the merge window) —
or when the watermark passes the run's start plus the merge window,
after which no message can join it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.events import LinkMessage, Transition


class RunMerger:
    """Per-link incremental merge of same-direction message runs."""

    # Checkpointed state (see repro.engine.state).
    _open_runs: Dict[str, List[LinkMessage]]
    transition_count: int

    def __init__(self, merge_window: float, source: str) -> None:
        if merge_window < 0:
            raise ValueError("merge window must be non-negative")
        self.merge_window = merge_window
        self.source = source
        self._open_runs = {}
        self.transition_count = 0

    def _close(self, run: List[LinkMessage]) -> Transition:
        self.transition_count += 1
        return Transition(
            time=run[0].time,
            link=run[0].link,
            direction=run[0].direction,
            source=self.source,
            reporters=frozenset(message.reporter for message in run),
            messages=tuple(run),
        )

    def feed(self, message: LinkMessage) -> Optional[Transition]:
        """Add one message; returns the transition it closed, if any."""
        run = self._open_runs.get(message.link)
        if (
            run is not None
            and message.direction == run[0].direction
            and message.time - run[0].time <= self.merge_window
        ):
            run.append(message)
            return None
        self._open_runs[message.link] = [message]
        return self._close(run) if run is not None else None

    def advance(self, watermark: float) -> List[Transition]:
        """Close every run no future message (time >= watermark) can join."""
        closed: List[Transition] = []
        for link in sorted(self._open_runs):
            run = self._open_runs[link]
            if watermark > run[0].time + self.merge_window:
                closed.append(self._close(run))
                del self._open_runs[link]
        return closed

    def frontier(self, link: str, watermark: float) -> float:
        """Lower bound on the time of any future transition on ``link``."""
        run = self._open_runs.get(link)
        return min(run[0].time, watermark) if run is not None else watermark

    @property
    def open_run_count(self) -> int:
        return len(self._open_runs)
