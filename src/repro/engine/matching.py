"""The canonical match + coverage phases (§3.4, Tables 3–4).

:class:`Matcher` is the single implementation of the greedy one-to-one
failure matcher behind every mode.  Matching is per-link, and per-link
failure streams are ordered by start *and* end (down spans on one link
cannot overlap), so a syslog failure's verdict is final as soon as the
IS-IS side's **frontier** — a lower bound on the start of any IS-IS
failure still to come on that link — clears both the matching window
past the failure's start and the failure's end (for partial-overlap
accounting).  The batch driver
(:func:`repro.core.matching.match_failures`) feeds both sides to
exhaustion and flushes with infinite frontiers; the stream engine feeds
real frontiers so decisions stream out within one matching window plus
hold-timer slack of real time.  Both read the same canonical result.
The same frontiers prune each link's retained failures to the undecided
ones plus the decided ones something undecided could still overlap, so
live matcher state is bounded by links and windows, not by campaign
length.

:class:`CoverageScorer` is the single implementation of Table 3's
None/One/Both accounting
(:func:`repro.core.matching.count_matching_reporters` is its batch
driver): each IS-IS transition is scored once the watermark passes its
time plus the matching window, against a pruned ring of recent syslog
messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Annotated, Callable, Deque, Dict, List, Set, Tuple, Union

from repro.core.events import FailureEvent, LinkMessage, Transition
from repro.engine.state import PRODUCTS


@dataclass
class FailureMatchResult:
    """Greedy one-to-one failure matching between two channels."""

    pairs: List[Tuple[FailureEvent, FailureEvent]] = field(default_factory=list)
    only_a: List[FailureEvent] = field(default_factory=list)
    only_b: List[FailureEvent] = field(default_factory=list)
    #: Unmatched failures that nevertheless overlap something on the other
    #: side — the paper's "partial" matches.
    partial_a: List[FailureEvent] = field(default_factory=list)
    partial_b: List[FailureEvent] = field(default_factory=list)

    @property
    def matched_count(self) -> int:
        return len(self.pairs)


@dataclass
class TransitionCoverage:
    """Table 3: reference transitions by how many distinct routers matched."""

    #: counts[direction][n] where n is 0 ("None"), 1 ("One"), 2 ("Both").
    counts: Dict[str, Dict[int, int]] = field(
        default_factory=lambda: {"down": {0: 0, 1: 0, 2: 0}, "up": {0: 0, 1: 0, 2: 0}}
    )
    #: The transitions that matched no message, for flap attribution (§4.1).
    unmatched: List[Transition] = field(default_factory=list)

    def total(self, direction: str) -> int:
        return sum(self.counts[direction].values())

    def fraction(self, direction: str, bucket: int) -> float:
        total = self.total(direction)
        return self.counts[direction][bucket] / total if total else 0.0


class _LinkMatchState:
    """Matcher bookkeeping for one link."""

    __slots__ = ("a_pending", "b_pending", "a_all", "b_all", "b_consumed")

    # Checkpointed state (see repro.engine.state).
    #: Undecided failures, FIFO in start order.
    a_pending: Deque[FailureEvent]
    #: Indices into b_all not yet resolved as matched or only-b.
    b_pending: Deque[int]
    #: Kept failures still needed, in start order: the undecided ones
    #: plus decided ones something undecided could still overlap.
    a_all: List[FailureEvent]
    b_all: List[FailureEvent]
    b_consumed: List[bool]

    def __init__(self) -> None:
        self.a_pending = deque()
        self.b_pending = deque()
        self.a_all = []
        self.b_all = []
        self.b_consumed = []


class Matcher:
    """Greedy one-to-one failure matching with provably-final decisions.

    ``a`` is the syslog channel, ``b`` the IS-IS channel, matching the
    batch call ``match_failures(syslog_kept, isis_kept)``.
    """

    # Checkpointed state (see repro.engine.state).
    links: Dict[str, _LinkMatchState]
    pairs: Annotated[List[Tuple[FailureEvent, FailureEvent]], PRODUCTS]
    only_a: Annotated[List[FailureEvent], PRODUCTS]
    only_b: Annotated[List[FailureEvent], PRODUCTS]
    partial_a: Annotated[List[FailureEvent], PRODUCTS]
    partial_b: Annotated[List[FailureEvent], PRODUCTS]

    def __init__(self, window: float) -> None:
        if window < 0:
            raise ValueError("matching window must be non-negative")
        self.window = window
        self.links = {}
        self.pairs = []
        self.only_a = []
        self.only_b = []
        self.partial_a = []
        self.partial_b = []

    def _state(self, link: str) -> _LinkMatchState:
        state = self.links.get(link)
        if state is None:
            state = self.links[link] = _LinkMatchState()
        return state

    def feed(self, side: str, failure: FailureEvent) -> None:
        """Add one kept failure to channel ``side`` (``"a"`` or ``"b"``)."""
        state = self._state(failure.link)
        if side == "a":
            state.a_pending.append(failure)
            state.a_all.append(failure)
        elif side == "b":
            state.b_all.append(failure)
            state.b_consumed.append(False)
            state.b_pending.append(len(state.b_all) - 1)
        else:
            raise ValueError(f"unknown matcher side {side!r}")

    # ---------------------------------------------------------- decisions
    def advance(
        self,
        frontier_a: Callable[[str], float],
        frontier_b: Callable[[str], float],
    ) -> None:
        """Decide every pending failure the frontiers prove final.

        ``frontier_a(link)`` / ``frontier_b(link)`` return a lower bound
        on the start of any *kept* failure the respective channel may
        still emit on ``link``.
        """
        for link, state in list(self.links.items()):
            self._advance_link(link, state, frontier_a(link), frontier_b(link))
            if not (state.a_all or state.b_all):
                del self.links[link]

    def _advance_link(
        self,
        link: str,
        state: _LinkMatchState,
        frontier_a: float,
        frontier_b: float,
    ) -> None:
        window = self.window
        while state.a_pending:
            fa = state.a_pending[0]
            if not (frontier_b > fa.start + window and frontier_b >= fa.end):
                break
            state.a_pending.popleft()
            match_index = None
            for i, fb in enumerate(state.b_all):
                if state.b_consumed[i]:
                    continue
                if fb.start > fa.start + window:
                    break
                if (
                    abs(fb.start - fa.start) <= window
                    and abs(fb.end - fa.end) <= window
                ):
                    match_index = i
                    break
            if match_index is None:
                self.only_a.append(fa)
                if any(fa.overlaps(fb) for fb in state.b_all):
                    self.partial_a.append(fa)
            else:
                state.b_consumed[match_index] = True
                self.pairs.append((fa, state.b_all[match_index]))

        while state.b_pending:
            index = state.b_pending[0]
            if state.b_consumed[index]:
                # Matched; the pair was recorded on the a side.
                state.b_pending.popleft()
                continue
            fb = state.b_all[index]
            if not (frontier_a > fb.start + window and frontier_a >= fb.end):
                break
            if state.a_pending and state.a_pending[0].start <= fb.start + window:
                # An undecided syslog failure could still consume it.
                break
            state.b_pending.popleft()
            self.only_b.append(fb)
            if any(fb.overlaps(fa) for fa in state.a_all):
                self.partial_b.append(fb)
        self._prune(state, frontier_a, frontier_b)

    @staticmethod
    def _prune(
        state: _LinkMatchState, frontier_a: float, frontier_b: float
    ) -> None:
        """Drop decided failures nothing undecided can match or overlap.

        A decided failure is only ever read again by the other side's
        overlap check (a decided b is consumed or provably unmatchable),
        and overlap needs the other failure to start before this one
        ends.  Every undecided or future failure on the other side
        starts at or after that side's bound — its frontier, or its
        first undecided failure's start — so a decided failure ending
        by then is final.  Per-link spans are ordered by start and end,
        so the prunable ones form a prefix.
        """
        bound_b = frontier_b
        if state.b_pending:
            # The loop above leaves an undecided (unconsumed) head.
            bound_b = min(bound_b, state.b_all[state.b_pending[0]].start)
        decided = len(state.a_all) - len(state.a_pending)
        drop = 0
        while drop < decided and state.a_all[drop].end <= bound_b:
            drop += 1
        if drop:
            del state.a_all[:drop]

        bound_a = frontier_a
        if state.a_pending:
            bound_a = min(bound_a, state.a_pending[0].start)
        decided = state.b_pending[0] if state.b_pending else len(state.b_all)
        drop = 0
        while drop < decided and state.b_all[drop].end <= bound_a:
            drop += 1
        if drop:
            del state.b_all[:drop]
            del state.b_consumed[:drop]
            state.b_pending = deque(index - drop for index in state.b_pending)

    def flush(self) -> None:
        """End of stream: every frontier is infinite; decide everything."""
        infinite = lambda _link: float("inf")  # noqa: E731
        self.advance(infinite, infinite)

    def result(self) -> FailureMatchResult:
        """The match result in the canonical batch order."""
        result = FailureMatchResult()
        result.pairs = sorted(self.pairs, key=lambda p: (p[0].start, p[0].link))
        result.only_a = sorted(self.only_a, key=lambda f: (f.start, f.link))
        result.only_b = sorted(self.only_b, key=lambda f: (f.start, f.link))
        result.partial_a = sorted(self.partial_a, key=lambda f: (f.start, f.link))
        result.partial_b = sorted(self.partial_b, key=lambda f: (f.start, f.link))
        return result

    @property
    def pending_count(self) -> int:
        return sum(
            len(s.a_pending) + len(s.b_pending) for s in self.links.values()
        )

    @property
    def decided_count(self) -> int:
        return len(self.pairs) + len(self.only_a) + len(self.only_b)


class CoverageScorer:
    """Incremental Table 3: reporters matching each IS-IS transition."""

    # Checkpointed state (see repro.engine.state).
    counts: Dict[str, Dict[int, int]]
    unmatched: Annotated[List[Transition], PRODUCTS]
    pending: Deque[Transition]
    #: (link, direction) -> deque of (time, reporter), in event time.
    messages: Dict[Tuple[str, str], Deque[Tuple[float, str]]]

    def __init__(self, window: float, reference_merge_window: float = 0.0) -> None:
        self.window = window
        self.reference_merge_window = reference_merge_window
        self.counts = {"down": {0: 0, 1: 0, 2: 0}, "up": {0: 0, 1: 0, 2: 0}}
        self.unmatched = []
        self.pending = deque()
        self.messages = {}

    def feed(self, item: Union[LinkMessage, Transition]) -> None:
        """Add one syslog message or one reference (IS-IS) transition."""
        if isinstance(item, LinkMessage):
            key = (item.link, item.direction)
            ring = self.messages.get(key)
            if ring is None:
                ring = self.messages[key] = deque()
            ring.append((item.time, item.reporter))
        else:
            self.pending.append(item)

    def advance(self, watermark: float) -> None:
        while self.pending and watermark > self.pending[0].time + self.window:
            self._decide(self.pending.popleft())
        self._prune(watermark)

    def _decide(self, transition: Transition) -> None:
        ring = self.messages.get((transition.link, transition.direction), ())
        low = transition.time - self.window
        high = transition.time + self.window
        reporters: Set[str] = set()
        for time, reporter in ring:
            if time < low:
                continue
            if time > high:
                break
            reporters.add(reporter)
        bucket = min(len(reporters), 2)
        self.counts[transition.direction][bucket] += 1
        if bucket == 0:
            self.unmatched.append(transition)

    def _prune(self, watermark: float) -> None:
        # Messages can be dropped once nothing pending or future (the
        # earliest future reference transition starts no earlier than the
        # watermark minus the reference channel's merge window) needs them.
        cut = watermark - self.reference_merge_window
        for transition in self.pending:
            cut = min(cut, transition.time)
        cut -= self.window
        for ring in self.messages.values():
            while ring and ring[0][0] < cut:
                ring.popleft()

    def flush(self) -> None:
        while self.pending:
            self._decide(self.pending.popleft())
        self.messages.clear()

    def result(self) -> TransitionCoverage:
        """Coverage in the batch reference order (time, then link)."""
        coverage = TransitionCoverage()
        coverage.counts = {
            direction: dict(buckets) for direction, buckets in self.counts.items()
        }
        coverage.unmatched = sorted(
            self.unmatched, key=lambda t: (t.time, t.link)
        )
        return coverage

    @property
    def message_buffer_size(self) -> int:
        return sum(len(ring) for ring in self.messages.values())
