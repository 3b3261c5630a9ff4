"""The canonical flap phase: the ten-minute rule of §4.1.

"Two or more consecutive failures on the same link separated by less than
10 minutes" form a flapping episode.  Flap periods matter because syslog's
reliability collapses inside them: the paper finds most unmatched IS-IS
transitions (67 % of DOWNs, 61 % of UPs) fall in flap periods, and less
than half of syslog's own transitions are matched there.

:class:`FlapDetector` is the single implementation behind every mode.
The batch driver (:func:`repro.core.flapping.detect_flap_episodes`)
feeds each link's sanitised failures in start order and flushes; the
stream engine feeds them as the sanitiser releases them and closes runs
against the channel frontier.

A run tracks the **running maximum end** of its failures, not the last
failure's end: per-link failure streams arrive in start order, but a
long failure can entirely contain a later short one, and gapping against
the short one's earlier end would both split episodes the ten-minute
rule chains and truncate the episode span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, Dict, List

from repro.core.events import FailureEvent
from repro.engine.state import PRODUCTS
from repro.intervals import Interval


@dataclass(frozen=True)
class FlapEpisode:
    """A run of rapid consecutive failures on one link.

    An episode may have zero duration: two or more zero-duration failures
    at the same instant (a sanitised double-down/double-up burst) are
    still a flap under the ten-minute rule.  Only ``end < start`` is an
    error.
    """

    link: str
    start: float
    end: float
    failure_count: int

    def __post_init__(self) -> None:
        if self.failure_count < 2:
            raise ValueError("a flap episode needs at least two failures")
        if self.end < self.start:
            raise ValueError("flap episode end precedes its start")

    @property
    def span(self) -> Interval:
        return Interval(self.start, self.end)


class FlapRun:
    """A growing run of rapid consecutive failures on one link."""

    __slots__ = ("start", "end", "count")

    # Checkpointed state (see repro.engine.state).
    start: float
    end: float
    count: int

    def __init__(self, failure: FailureEvent) -> None:
        self.start = failure.start
        self.end = failure.end
        self.count = 1


class FlapDetector:
    """Per-link incremental application of §4.1's ten-minute rule."""

    # Checkpointed state (see repro.engine.state).
    runs: Dict[str, FlapRun]
    episodes: Annotated[List[FlapEpisode], PRODUCTS]

    def __init__(self, gap_threshold: float) -> None:
        if gap_threshold <= 0:
            raise ValueError("gap threshold must be positive")
        self.gap_threshold = gap_threshold
        self.runs = {}
        self.episodes = []

    def feed(self, failure: FailureEvent) -> None:
        """Add one sanitised failure (per-link start order required)."""
        run = self.runs.get(failure.link)
        if run is not None and failure.start - run.end < self.gap_threshold:
            run.end = max(run.end, failure.end)
            run.count += 1
            return
        if run is not None:
            self._close(failure.link, run)
        self.runs[failure.link] = FlapRun(failure)

    def _close(self, link: str, run: FlapRun) -> None:
        if run.count >= 2:
            self.episodes.append(FlapEpisode(link, run.start, run.end, run.count))

    def advance(self, frontier: Callable[[str], float]) -> None:
        """Close every run no future failure can extend.

        ``frontier(link)`` bounds the start of any sanitised failure the
        channel may still emit on ``link``; a run is over once that bound
        reaches its last end plus the gap threshold.
        """
        for link in sorted(self.runs):
            run = self.runs[link]
            if frontier(link) >= run.end + self.gap_threshold:
                self._close(link, run)
                del self.runs[link]

    def flush(self) -> None:
        for link in sorted(self.runs):
            self._close(link, self.runs[link])
        self.runs.clear()

    def result(self) -> List[FlapEpisode]:
        """Episodes in the canonical batch (start, link) order."""
        return sorted(self.episodes, key=lambda e: (e.start, e.link))

    @property
    def open_run_count(self) -> int:
        return len(self.runs)
