"""The canonical timeline + failure phases: transitions → spans → failures.

:class:`TimelineBuilder` is the single per-link implementation behind
every mode of the funnel's timeline-building and failure-extraction
phases (§3.4 steps 3–4).  It applies the ambiguity strategy transition
by transition, merges contiguous equal-state segments on the fly, and
emits a :class:`~repro.core.events.FailureEvent` the moment a complete
(non-censored) DOWN span can no longer change — which for the paper's
PREVIOUS_STATE strategy is as soon as the watermark passes the closing
UP transition.

The batch drivers (:func:`repro.core.reconstruct.reconstruct_channel`,
:meth:`repro.intervals.timeline.LinkStateTimeline.from_transitions`)
construct the builder with ``capture=True``, feed the link's whole
transition stream, ``flush()``, and read the rendered
:class:`~repro.intervals.timeline.LinkStateTimeline` from
:meth:`timeline`.  The stream engine leaves capture off (its memory must
stay bounded by the open state, not the elapsed campaign) and drains
failures incrementally via :meth:`collect`.

State mirrors the classic batch loop variables (``cursor``, ``state``,
``last_message_time``) plus the one piece of deferred bookkeeping the
batch code used to do afterwards: the *tail*, the last merged
constant-state segment, which stays open until a different-state segment
(or the horizon) seals it.  Sealed DOWN tails that touch neither horizon
edge become failures.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.events import FailureEvent, Transition
from repro.intervals.timeline import (
    DOWN,
    AmbiguityStrategy,
    LinkState,
    LinkStateTimeline,
    StateAnomaly,
    StateSpan,
    _window_state,
)


class TimelineBuilder:
    """Per-link incremental timeline reconstruction and failure closing."""

    # Checkpointed state (see repro.engine.state).
    cursor: float
    state: LinkState
    last_message_time: Optional[float]
    #: The unfinalised merged segment, or None ((start, end, state));
    #: invariant: tail.end == cursor.
    tail: Optional[Tuple[float, float, LinkState]]
    #: Same-time reorder buffer: transitions at pending_time.
    pending: List[Transition]
    pending_time: Optional[float]
    #: (time, direction) -> Transition, for failure attachment.
    index: Dict[Tuple[float, str], Transition]
    anomaly_count: int
    flushed: bool
    #: Finalised failures awaiting collection by the engine.
    emitted: List[FailureEvent]
    #: Sealed spans / anomalies, recorded only under capture=True.
    _spans: List[Tuple[float, float, LinkState]]
    _anomalies: List[StateAnomaly]

    def __init__(
        self,
        link: str,
        horizon_start: float,
        horizon_end: float,
        strategy: AmbiguityStrategy,
        source: str,
        initial_state: LinkState = LinkState.UP,
        capture: bool = False,
    ) -> None:
        self.link = link
        self.horizon_start = horizon_start
        self.horizon_end = horizon_end
        self.strategy = strategy
        self.source = source
        self.initial_state = initial_state
        self.capture = capture

        self.cursor = horizon_start
        self.state = initial_state
        self.last_message_time = None
        self.tail = None
        self.pending = []
        self.pending_time = None
        self.index = {}
        self.anomaly_count = 0
        self.flushed = False
        self.emitted = []
        self._spans = []
        self._anomalies = []

    # -------------------------------------------------------------- feed
    def feed(self, transition: Transition) -> None:
        """Apply one link transition (must arrive in time order)."""
        time = transition.time
        if not self.horizon_start <= time < self.horizon_end:
            return
        if self.pending_time is not None and time < self.pending_time:
            raise ValueError(
                f"transition at {time} precedes pending time {self.pending_time}"
            )
        if self.pending_time is not None and time > self.pending_time:
            self._release_pending()
        self.pending_time = time
        self.pending.append(transition)
        self.index[(time, transition.direction)] = transition

    def _release_pending(self) -> None:
        # The batch build sorts (time, direction) pairs, so equal-time
        # transitions apply down-before-up regardless of arrival order.
        self.pending.sort(key=lambda t: t.direction)
        for transition in self.pending:
            self._apply(transition.time, transition.direction)
        self.pending = []
        self.pending_time = None

    def _apply(self, time: float, direction: str) -> None:
        new_state = LinkState.DOWN if direction == DOWN else LinkState.UP
        if new_state == self.state:
            if self.last_message_time is None:
                self.last_message_time = time
                return
            self.anomaly_count += 1
            if self.capture:
                self._anomalies.append(
                    StateAnomaly(self.last_message_time, time, direction)
                )
            window = _window_state(self.strategy, self.state)
            if window != self.state:
                self._append(self.cursor, self.last_message_time, self.state)
                self._append(self.last_message_time, time, window)
                self.cursor = time
            self.last_message_time = time
        else:
            self._append(self.cursor, time, self.state)
            self.cursor = time
            self.state = new_state
            self.last_message_time = time

    # ----------------------------------------------------- segment merge
    def _append(self, start: float, end: float, state: LinkState) -> None:
        if start == end:
            return
        if (
            self.tail is not None
            and self.tail[2] == state
            and self.tail[1] == start
        ):
            self.tail = (self.tail[0], end, state)
            return
        if self.tail is not None:
            self._seal_tail()
        self.tail = (start, end, state)

    def _seal_tail(self) -> None:
        assert self.tail is not None
        start, end, state = self.tail
        self.tail = None
        if self.capture:
            self._spans.append((start, end, state))
        if (
            state is LinkState.DOWN
            and start > self.horizon_start
            and end < self.horizon_end
        ):
            self.emitted.append(
                FailureEvent(
                    link=self.link,
                    start=start,
                    end=end,
                    source=self.source,
                    start_transition=self.index.get((start, "down")),
                    end_transition=self.index.get((end, "up")),
                )
            )
        # Future span boundaries all lie at or after this segment's end.
        stale = [key for key in self.index if key[0] < end]
        for key in stale:
            del self.index[key]

    # ----------------------------------------------------------- advance
    def advance(self, watermark: float) -> None:
        """Finalise everything the watermark proves immutable."""
        if self.pending_time is not None and watermark > self.pending_time:
            self._release_pending()
        if (
            self.tail is not None
            and self.tail[2] != self.state
            and watermark > self.cursor
            and not self._tail_can_still_grow()
        ):
            self._seal_tail()

    def _tail_can_still_grow(self) -> bool:
        # A future ambiguity window starting exactly at the tail's end
        # could merge into it — only when the strategy forces windows to
        # the tail's state and the last message sits at the cursor.
        assert self.tail is not None
        return (
            _window_state(self.strategy, self.state) == self.tail[2]
            and self.last_message_time == self.cursor
        )

    def flush(self) -> None:
        """End of stream: close the final segment at the horizon edge."""
        if self.flushed:
            return
        self.flushed = True
        if self.pending:
            self._release_pending()
        self.pending_time = None
        self._append(self.cursor, self.horizon_end, self.state)
        self.cursor = self.horizon_end
        if self.tail is not None:
            self._seal_tail()

    def collect(self) -> List[FailureEvent]:
        """Drain finalised failures (engine calls after feed/advance)."""
        if not self.emitted:
            return []
        out = self.emitted
        self.emitted = []
        return out

    # ---------------------------------------------------------- timeline
    def timeline(self) -> LinkStateTimeline:
        """Render the captured spans as a :class:`LinkStateTimeline`.

        Requires ``capture=True`` and a prior :meth:`flush` — the batch
        drivers' exhaustive feed makes the sealed spans exactly the merged
        segment list of the classic batch build, censoring included.
        """
        if not self.capture:
            raise ValueError("timeline() requires capture=True")
        if not self.flushed:
            raise ValueError("timeline() requires flush()")
        merged = self._spans or [
            (self.horizon_start, self.horizon_end, self.initial_state)
        ]
        spans = [
            StateSpan(
                start,
                end,
                state,
                censored_left=(start == self.horizon_start),
                censored_right=(end == self.horizon_end),
            )
            for start, end, state in merged
        ]
        return LinkStateTimeline(
            spans, self._anomalies, self.horizon_start, self.horizon_end
        )

    # ---------------------------------------------------------- frontier
    def down_frontier(self) -> float:
        """Lower bound on the start of any failure still to be emitted."""
        frontier = math.inf
        if self.tail is not None and self.tail[2] is LinkState.DOWN:
            frontier = min(frontier, self.tail[0])
        if self.state is LinkState.DOWN:
            if (
                self.tail is not None
                and self.tail[2] is LinkState.DOWN
                and self.tail[1] == self.cursor
            ):
                frontier = min(frontier, self.tail[0])
            else:
                frontier = min(frontier, self.cursor)
        if self.pending_time is not None:
            frontier = min(frontier, self.pending_time)
        if (
            self.strategy is not AmbiguityStrategy.PREVIOUS_STATE
            and self.last_message_time is not None
        ):
            # Non-default strategies can open DOWN windows reaching back
            # to the last message.
            frontier = min(frontier, self.last_message_time)
        return frontier
