"""The streaming analysis engine: events in, provably-final results out.

:class:`StreamEngine` consumes one event-time-ordered
:class:`~repro.stream.sources.StreamEvent` at a time and maintains the
whole §3–§4 methodology online:

* messages route into per-category :class:`~repro.engine.merge.RunMerger`
  machines (message → transition merging);
* finalised transitions drive per-link
  :class:`~repro.engine.timeline.TimelineBuilder` machines (transition →
  failure reconstruction) and the Table 3 coverage scorer;
* emitted failures pass through the
  :class:`~repro.engine.sanitize.Sanitizer` and the kept ones feed the
  greedy :class:`~repro.engine.matching.Matcher` and the
  :class:`~repro.engine.flaps.FlapDetector`.

The machines are the same canonical :mod:`repro.engine` core the batch,
columnar and service modes drive; this engine is the
watermark-by-watermark driver.

Every *drain* (a periodic sweep, plus the end-of-stream flush) advances
each machine to the current watermark, so everything the stream's
progress proves immutable is emitted immediately.  Nothing is ever
retracted, and the end-of-stream :class:`StreamResult` is exactly what
:func:`repro.core.pipeline.run_analysis` computes from the same data —
the equivalence the test suite enforces seed by seed.

The engine's state serialises to JSON — a live frontier plus the
finalised results, which :func:`~repro.stream.checkpoint.save_checkpoint`
appends once each to a results segment — and restores with
:meth:`StreamEngine.restore`, so a killed stream resumes mid-campaign
and finishes with byte-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.events import (
    SOURCE_ISIS_IP,
    SOURCE_ISIS_IS,
    SOURCE_SYSLOG,
    FailureEvent,
    Transition,
    failure_sort_key,
)
from repro.core.flapping import FlapEpisode
from repro.core.matching import FailureMatchResult, TransitionCoverage
from repro.core.links import LinkResolver
from repro.core.pipeline import AnalysisOptions
from repro.core.sanitize import SanitizationReport
from repro.engine.flaps import FlapDetector
from repro.engine.matching import CoverageScorer, Matcher
from repro.engine.merge import RunMerger
from repro.engine.sanitize import Sanitizer
from repro.engine.timeline import TimelineBuilder
from repro.faults.ledger import IngestReport
from repro.intervals import IntervalSet
from repro.simulation.dataset import Dataset
from repro.stream import checkpoint as checkpoint_codec
from repro.stream.sources import (
    ISIS_CHANNEL,
    KIND_REJECTED,
    KIND_TICK,
    SYSLOG_CHANNEL,
    StreamEvent,
    dataset_event_stream,
)
from repro.ticketing import TicketSystem

#: Merger keys, one per message category.
MERGER_KEYS = ("syslog-isis", "syslog-physical", "isis-is", "isis-ip")
#: The state-bearing merger of each channel (the §3.4 choice).
MAIN_MERGER = {SYSLOG_CHANNEL: "syslog-isis", ISIS_CHANNEL: "isis-is"}


@dataclass(frozen=True)
class StreamOptions:
    """Knobs of the streaming engine.

    ``analysis`` carries the paper's methodology parameters (shared with
    the batch pipeline so equivalence is apples to apples);
    ``drain_interval`` is how many events pass between watermark sweeps —
    it bounds emission latency, never correctness.
    """

    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    drain_interval: int = 256

    def __post_init__(self) -> None:
        if self.drain_interval < 1:
            raise ValueError("drain interval must be at least 1")


@dataclass
class StreamResult:
    """End-of-stream products, in the batch pipeline's canonical order."""

    horizon_start: float
    horizon_end: float
    syslog_failures_raw: List[FailureEvent]
    isis_failures_raw: List[FailureEvent]
    syslog_sanitized: SanitizationReport
    isis_sanitized: SanitizationReport
    failure_match: FailureMatchResult
    coverage: TransitionCoverage
    flap_episodes: List[FlapEpisode]
    counters: Dict[str, int]

    @property
    def syslog_failures(self) -> List[FailureEvent]:
        """Sanitised syslog failures (what every table consumes)."""
        return self.syslog_sanitized.kept

    @property
    def isis_failures(self) -> List[FailureEvent]:
        """Sanitised IS-IS failures."""
        return self.isis_sanitized.kept


class StreamEngine:
    """Online incremental failure analysis over one merged event stream."""

    def __init__(
        self,
        resolver: LinkResolver,
        horizon_start: float,
        horizon_end: float,
        listener_outages: IntervalSet,
        tickets: Optional[TicketSystem],
        options: Optional[StreamOptions] = None,
    ) -> None:
        self.options = options if options is not None else StreamOptions()
        analysis = self.options.analysis
        self.resolver = resolver
        self.horizon_start = horizon_start
        self.horizon_end = horizon_end
        self.single_links = {record.name for record in resolver.single_links()}

        self.watermark = -math.inf
        self.events_consumed = 0
        self.finished = False

        self.mergers: Dict[str, RunMerger] = {
            "syslog-isis": RunMerger(
                analysis.syslog.merge_window, SOURCE_SYSLOG
            ),
            "syslog-physical": RunMerger(
                analysis.syslog.merge_window, SOURCE_SYSLOG
            ),
            "isis-is": RunMerger(analysis.isis.merge_window, SOURCE_ISIS_IS),
            "isis-ip": RunMerger(analysis.isis.merge_window, SOURCE_ISIS_IP),
        }
        self.timelines: Dict[str, Dict[str, TimelineBuilder]] = {
            SYSLOG_CHANNEL: {},
            ISIS_CHANNEL: {},
        }
        self.sanitizers: Dict[str, Sanitizer] = {
            SYSLOG_CHANNEL: Sanitizer(
                listener_outages, tickets, analysis.sanitization
            ),
            ISIS_CHANNEL: Sanitizer(
                listener_outages, None, analysis.sanitization
            ),
        }
        self.matcher = Matcher(analysis.matching.window)
        self.coverage = CoverageScorer(
            analysis.matching.window, analysis.isis.merge_window
        )
        self.flaps = FlapDetector(analysis.flap_gap_threshold)
        self.raw_failures: Dict[str, List[FailureEvent]] = {
            SYSLOG_CHANNEL: [],
            ISIS_CHANNEL: [],
        }
        self.counters: Dict[str, int] = {
            "ticks": 0,
            "rejected_lsps": 0,
            "syslog_unparsed": 0,
            "syslog_unresolved": 0,
            "syslog_other": 0,
            "isis_unresolved": 0,
            "isis_multilink": 0,
            "syslog_isis_messages": 0,
            "syslog_physical_messages": 0,
            "isis_is_messages": 0,
            "isis_ip_messages": 0,
        }
        self._result: Optional[StreamResult] = None
        #: What save_checkpoint has committed to this engine's results
        #: segment (a :class:`~repro.stream.checkpoint.SegmentMark`).
        self._segment: Optional[checkpoint_codec.SegmentMark] = None

    # ------------------------------------------------------------ intake
    def process(self, event: StreamEvent) -> None:
        """Consume one event (must arrive in event-time order)."""
        if self.finished:
            raise RuntimeError("engine already finished")
        self.events_consumed += 1
        if event.time > self.watermark:
            self.watermark = event.time
        if event.message is not None:
            self._route_message(event)
        else:
            self._count_skip(event)
        if self.events_consumed % self.options.drain_interval == 0:
            self.drain()

    def _count_skip(self, event: StreamEvent) -> None:
        kind = event.kind
        if kind == KIND_TICK:
            self.counters["ticks"] += 1
        elif kind == KIND_REJECTED:
            self.counters["rejected_lsps"] += 1
        elif event.channel == SYSLOG_CHANNEL:
            if kind == "unparsed":
                self.counters["syslog_unparsed"] += 1
            elif kind == "unresolved":
                self.counters["syslog_unresolved"] += 1
            else:
                self.counters["syslog_other"] += 1
        else:
            if kind == "multilink":
                self.counters["isis_multilink"] += 1
            else:
                self.counters["isis_unresolved"] += 1

    def _route_message(self, event: StreamEvent) -> None:
        message = event.message
        if event.channel == SYSLOG_CHANNEL:
            if event.kind == "isis":
                self.counters["syslog_isis_messages"] += 1
                self.coverage.feed(message)
                closed = self.mergers["syslog-isis"].feed(message)
                if closed is not None:
                    self._route_transition("syslog-isis", closed)
            else:
                self.counters["syslog_physical_messages"] += 1
                closed = self.mergers["syslog-physical"].feed(message)
                # Physical transitions are counted by the merger; they
                # carry no link state (Table 2 material only).
        else:
            if event.kind == "is":
                self.counters["isis_is_messages"] += 1
                closed = self.mergers["isis-is"].feed(message)
                if closed is not None:
                    self._route_transition("isis-is", closed)
            else:
                self.counters["isis_ip_messages"] += 1
                self.mergers["isis-ip"].feed(message)

    # ------------------------------------------------------ transitions
    def _route_transition(self, merger_key: str, transition: Transition) -> None:
        if merger_key == "syslog-isis":
            if transition.link in self.single_links:
                self._feed_timeline(SYSLOG_CHANNEL, transition)
        elif merger_key == "isis-is":
            self.coverage.feed(transition)
            self._feed_timeline(ISIS_CHANNEL, transition)

    def _feed_timeline(self, channel: str, transition: Transition) -> None:
        timeline = self.timelines[channel].get(transition.link)
        if timeline is None:
            timeline = self.timelines[channel][transition.link] = self.new_timeline(
                channel, transition.link
            )
        timeline.feed(transition)
        self._collect_failures(channel, timeline)

    def new_timeline(self, channel: str, link: str) -> TimelineBuilder:
        """A fresh timeline machine for ``link``, configured for ``channel``."""
        analysis = self.options.analysis
        if channel == SYSLOG_CHANNEL:
            return TimelineBuilder(
                link,
                self.horizon_start,
                self.horizon_end,
                analysis.syslog.strategy,
                SOURCE_SYSLOG,
            )
        return TimelineBuilder(
            link,
            self.horizon_start,
            self.horizon_end,
            analysis.isis.strategy,
            SOURCE_ISIS_IS,
        )

    def _collect_failures(self, channel: str, timeline: TimelineBuilder) -> None:
        for failure in timeline.collect():
            self.raw_failures[channel].append(failure)
            released = self.sanitizers[channel].feed(failure, self.watermark)
            for kept in released:
                self._route_kept(channel, kept)

    def _route_kept(self, channel: str, failure: FailureEvent) -> None:
        if channel == SYSLOG_CHANNEL:
            self.matcher.feed("a", failure)
        else:
            self.matcher.feed("b", failure)
            self.flaps.feed(failure)

    # ----------------------------------------------------------- drains
    def drain(self) -> None:
        """Advance every machine to the current watermark."""
        watermark = self.watermark
        for key in MERGER_KEYS:
            for transition in self.mergers[key].advance(watermark):
                self._route_transition(key, transition)
        for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
            for timeline in self.timelines[channel].values():
                if timeline.flushed:
                    continue
                timeline.advance(watermark)
                self._collect_failures(channel, timeline)
        for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
            for kept in self.sanitizers[channel].advance(watermark):
                self._route_kept(channel, kept)
        self.coverage.advance(watermark)
        self.matcher.advance(self._syslog_kept_frontier, self._isis_kept_frontier)
        self.flaps.advance(self._isis_kept_frontier)

    def _kept_frontier(self, channel: str, link: str) -> float:
        """Lower bound on the start of any future kept failure on a link."""
        frontier = self.mergers[MAIN_MERGER[channel]].frontier(link, self.watermark)
        timeline = self.timelines[channel].get(link)
        if timeline is not None and not timeline.flushed:
            frontier = min(frontier, timeline.down_frontier())
        frontier = min(frontier, self.sanitizers[channel].held_frontier(link))
        return frontier

    def _syslog_kept_frontier(self, link: str) -> float:
        return self._kept_frontier(SYSLOG_CHANNEL, link)

    def _isis_kept_frontier(self, link: str) -> float:
        return self._kept_frontier(ISIS_CHANNEL, link)

    # ----------------------------------------------------------- finish
    def finish(self) -> StreamResult:
        """Flush everything and build the final (canonical) result."""
        if self._result is not None:
            return self._result
        self.watermark = math.inf
        for key in MERGER_KEYS:
            for transition in self.mergers[key].advance(math.inf):
                self._route_transition(key, transition)
        for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
            for timeline in self.timelines[channel].values():
                if timeline.flushed:
                    continue
                timeline.flush()
                self._collect_failures(channel, timeline)
        for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
            for kept in self.sanitizers[channel].flush():
                self._route_kept(channel, kept)
        self.coverage.flush()
        self.matcher.flush()
        self.flaps.flush()
        self.finished = True

        key = failure_sort_key
        counters = dict(self.counters)
        counters["events"] = self.events_consumed
        for merger_key in MERGER_KEYS:
            counters[f"{merger_key}-transitions"] = self.mergers[
                merger_key
            ].transition_count
        self._result = StreamResult(
            horizon_start=self.horizon_start,
            horizon_end=self.horizon_end,
            syslog_failures_raw=sorted(self.raw_failures[SYSLOG_CHANNEL], key=key),
            isis_failures_raw=sorted(self.raw_failures[ISIS_CHANNEL], key=key),
            syslog_sanitized=self.sanitizers[SYSLOG_CHANNEL].finalized_report(),
            isis_sanitized=self.sanitizers[ISIS_CHANNEL].finalized_report(),
            failure_match=self.matcher.result(),
            coverage=self.coverage.result(),
            flap_episodes=self.flaps.result(),
            counters=counters,
        )
        return self._result

    # ---------------------------------------------------------- summary
    def summary(self) -> Dict[str, object]:
        """Cheap live counters for periodic progress output."""
        return {
            "events": self.events_consumed,
            "watermark": self.watermark,
            "syslog_messages": self.counters["syslog_isis_messages"]
            + self.counters["syslog_physical_messages"],
            "isis_messages": self.counters["isis_is_messages"]
            + self.counters["isis_ip_messages"],
            "transitions": sum(
                self.mergers[key].transition_count for key in MERGER_KEYS
            ),
            "syslog_failures": len(self.raw_failures[SYSLOG_CHANNEL]),
            "isis_failures": len(self.raw_failures[ISIS_CHANNEL]),
            "syslog_kept": len(self.sanitizers[SYSLOG_CHANNEL].report.kept),
            "isis_kept": len(self.sanitizers[ISIS_CHANNEL].report.kept),
            "matched": len(self.matcher.pairs),
            "match_pending": self.matcher.pending_count,
            "flap_episodes": len(self.flaps.episodes),
            "open_runs": sum(
                self.mergers[key].open_run_count for key in MERGER_KEYS
            ),
            "held_failures": sum(
                self.sanitizers[c].held_count
                for c in (SYSLOG_CHANNEL, ISIS_CHANNEL)
            ),
        }

    # ------------------------------------------------------- checkpoint
    @classmethod
    def restore(
        cls,
        state: Dict[str, object],
        resolver: LinkResolver,
        listener_outages: IntervalSet,
        tickets: Optional[TicketSystem],
    ) -> "StreamEngine":
        """Rebuild an engine from
        :func:`~repro.stream.checkpoint.load_checkpoint` output."""
        return checkpoint_codec.restore_engine(
            state, resolver, listener_outages, tickets
        )


def stream_dataset(
    dataset: Dataset,
    options: Optional[StreamOptions] = None,
    *,
    resume_state: Optional[Dict[str, object]] = None,
    on_progress: Optional[Callable[[StreamEngine], None]] = None,
    progress_every: int = 0,
    checkpoint_at: Iterable[int] = (),
    checkpoint_every: int = 0,
    on_checkpoint: Optional[Callable[[StreamEngine], None]] = None,
    report: Optional[IngestReport] = None,
) -> StreamResult:
    """Tail a dataset through a streaming engine and return the result.

    ``resume_state`` (a loaded checkpoint) fast-forwards the sources past
    the events the checkpointed engine already consumed and continues
    from its exact state.  ``on_checkpoint`` fires at the absolute event
    counts in ``checkpoint_at`` (the tests' arbitrary cut points) and
    every ``checkpoint_every`` events (the CLI's periodic saves).

    With a ``report`` the sources are hardened: malformed syslog lines
    and damaged LSP records are quarantined into it instead of raising.
    Dropped records yield no events, so resume arithmetic (skip
    ``events_consumed`` delivered events) is unchanged, and a resumed
    ledgered run re-reads the artifacts from byte zero and therefore
    rebuilds the full ledger.
    """
    resolver = LinkResolver(dataset.inventory)
    if resume_state is not None:
        engine = StreamEngine.restore(
            resume_state, resolver, dataset.listener_outages, dataset.tickets
        )
    else:
        engine = StreamEngine(
            resolver,
            dataset.analysis_start,
            dataset.horizon_end,
            dataset.listener_outages,
            dataset.tickets,
            options,
        )

    events = dataset_event_stream(dataset, resolver, report=report)
    for _ in range(engine.events_consumed):
        next(events)

    checkpoints = sorted(n for n in checkpoint_at if n > engine.events_consumed)
    for event in events:
        engine.process(event)
        if progress_every and engine.events_consumed % progress_every == 0:
            if on_progress is not None:
                on_progress(engine)
        due = checkpoints and engine.events_consumed == checkpoints[0]
        if due:
            checkpoints.pop(0)
        if checkpoint_every and engine.events_consumed % checkpoint_every == 0:
            due = True
        if due and on_checkpoint is not None:
            on_checkpoint(engine)
    return engine.finish()
