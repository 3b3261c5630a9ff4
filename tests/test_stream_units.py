"""Unit tests for the engine core's individual machines.

The machines now live in :mod:`repro.engine` and are shared by all
five execution modes; the conformance and equivalence suites prove the
assembled modes agree, while these tests pin the contracts of each part
in isolation — ordering guarantees of the sources, watermark semantics
of the run merger and timeline builder, frontier-driven decisions of
the matcher and flap detector, deferral rules of the sanitiser, and
JSON codec round-trips.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import tempfile
import typing
from collections import deque
from types import SimpleNamespace
from typing import Deque, Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    SOURCE_ISIS_IS,
    SOURCE_SYSLOG,
    FailureEvent,
    LinkMessage,
    Transition,
)
from repro.core.extract_syslog import SyslogExtractionConfig
from repro.core.flapping import FlapEpisode
from repro.core.pipeline import AnalysisOptions
from repro.core.sanitize import SanitizationConfig, SanitizationReport
from repro.faults.chaos import stream_signature
from repro.intervals import Interval, IntervalSet
from repro.intervals.timeline import AmbiguityStrategy
from repro.engine.flaps import FlapDetector, FlapRun
from repro.engine.matching import CoverageScorer, Matcher, _LinkMatchState
from repro.engine.merge import RunMerger
from repro.engine.sanitize import Sanitizer
from repro.engine.timeline import TimelineBuilder
from repro.stream import (
    StreamEngine,
    StreamOptions,
    load_checkpoint,
    save_checkpoint,
    stream_dataset,
)
from repro.stream import checkpoint as codec
from repro.stream.sources import (
    ISIS_CHANNEL,
    SYSLOG_CHANNEL,
    ReorderBuffer,
    StreamEvent,
    merge_events,
)
from repro.ticketing import TicketSystem, TroubleTicket


def message(
    time: float,
    link: str = "lk-a",
    direction: str = "down",
    reporter: str = "r1",
) -> LinkMessage:
    return LinkMessage(
        time=time,
        link=link,
        direction=direction,
        reporter=reporter,
        source=SOURCE_SYSLOG,
        category="isis",
        reason="",
    )


def transition(
    time: float, link: str = "lk-a", direction: str = "down"
) -> Transition:
    return Transition(
        time=time,
        link=link,
        direction=direction,
        source=SOURCE_ISIS_IS,
        reporters=frozenset({"r1"}),
        messages=(message(time, link, direction),),
    )


def failure(start: float, end: float, link: str = "lk-a") -> FailureEvent:
    return FailureEvent(link=link, start=start, end=end, source=SOURCE_ISIS_IS)


def event(time: float, link: str = "lk-a", reporter: str = "r1") -> StreamEvent:
    return StreamEvent(
        time, SYSLOG_CHANNEL, "isis", message(time, link, reporter=reporter)
    )


class TestReorderBuffer:
    def test_reorders_within_lateness(self):
        buffer = ReorderBuffer(lateness=10.0)
        released = []
        for item in (event(5.0), event(3.0), event(16.0), event(14.0)):
            released.extend(buffer.push(item))
        released.extend(buffer.flush())
        assert [e.time for e in released] == [3.0, 5.0, 14.0, 16.0]

    def test_ties_break_by_link_then_reporter(self):
        buffer = ReorderBuffer(lateness=0.0)
        buffer.push(event(1.0, link="lk-b", reporter="r2"))
        buffer.push(event(1.0, link="lk-a", reporter="r9"))
        buffer.push(event(1.0, link="lk-b", reporter="r1"))
        released = buffer.flush()
        assert [(e.message.link, e.message.reporter) for e in released] == [
            ("lk-a", "r9"),
            ("lk-b", "r1"),
            ("lk-b", "r2"),
        ]

    def test_violating_lateness_bound_raises(self):
        buffer = ReorderBuffer(lateness=1.0)
        buffer.push(event(0.0))
        buffer.push(event(100.0))  # releases everything through t=99
        with pytest.raises(ValueError):
            buffer.push(event(2.0))

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            ReorderBuffer(lateness=-1.0)


class TestMergeEvents:
    def test_globally_time_ordered(self):
        a = [event(1.0), event(4.0), event(9.0)]
        b = [event(2.0), event(3.0), event(8.0)]
        merged = list(merge_events([a, b]))
        assert [e.time for e in merged] == [1.0, 2.0, 3.0, 4.0, 8.0, 9.0]

    def test_equal_times_released_in_source_order(self):
        a = [StreamEvent(5.0, SYSLOG_CHANNEL, "tick")]
        b = [StreamEvent(5.0, ISIS_CHANNEL, "tick")]
        merged = list(merge_events([a, b]))
        assert [e.channel for e in merged] == [SYSLOG_CHANNEL, ISIS_CHANNEL]


class TestRunMerger:
    def test_same_direction_within_window_merges(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        assert merger.feed(message(0.0, reporter="r1")) is None
        assert merger.feed(message(10.0, reporter="r2")) is None
        closed = merger.advance(100.0)
        assert len(closed) == 1
        assert closed[0].time == 0.0
        assert closed[0].reporters == frozenset({"r1", "r2"})
        assert merger.transition_count == 1

    def test_direction_change_closes_run(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        merger.feed(message(0.0, direction="down"))
        closed = merger.feed(message(5.0, direction="up"))
        assert closed is not None and closed.direction == "down"

    def test_watermark_must_pass_window_to_close(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        merger.feed(message(0.0))
        assert merger.advance(30.0) == []  # a message at t=30 could join
        assert len(merger.advance(30.0001)) == 1

    def test_frontier_accounts_for_open_run(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        merger.feed(message(7.0))
        assert merger.frontier("lk-a", 20.0) == 7.0
        assert merger.frontier("lk-other", 20.0) == 20.0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            RunMerger(-1.0, SOURCE_SYSLOG)


class TestTimelineBuilder:
    def make(self, **kwargs) -> TimelineBuilder:
        defaults = dict(
            link="lk-a",
            horizon_start=0.0,
            horizon_end=1000.0,
            strategy=AmbiguityStrategy.PREVIOUS_STATE,
            source=SOURCE_ISIS_IS,
        )
        defaults.update(kwargs)
        return TimelineBuilder(**defaults)

    def test_down_up_span_becomes_failure_before_flush(self):
        timeline = self.make()
        timeline.feed(transition(100.0, direction="down"))
        timeline.feed(transition(200.0, direction="up"))
        timeline.advance(201.0)
        failures = timeline.collect()
        assert [(f.start, f.end) for f in failures] == [(100.0, 200.0)]
        assert failures[0].start_transition.time == 100.0
        assert failures[0].end_transition.time == 200.0

    def test_censored_spans_are_not_failures(self):
        # DOWN running into the end horizon: never emitted.
        timeline = self.make()
        timeline.feed(transition(100.0, direction="down"))
        timeline.flush()
        assert timeline.collect() == []

    def test_out_of_horizon_transitions_ignored(self):
        timeline = self.make()
        timeline.feed(transition(-5.0, direction="down"))
        timeline.feed(transition(100.0, direction="down"))
        timeline.feed(transition(200.0, direction="up"))
        timeline.flush()
        assert [(f.start, f.end) for f in timeline.collect()] == [(100.0, 200.0)]

    def test_equal_time_transitions_apply_down_before_up(self):
        # The batch build sorts (time, direction) pairs, so at t=200 the
        # repeated down applies before the up regardless of feed order;
        # the failure closes at 200 and the extra down is an anomaly.
        timeline = self.make()
        timeline.feed(transition(100.0, direction="down"))
        timeline.feed(transition(200.0, direction="up"))
        timeline.feed(transition(200.0, direction="down"))
        timeline.feed(transition(300.0, direction="up"))
        timeline.flush()
        assert [(f.start, f.end) for f in timeline.collect()] == [(100.0, 200.0)]
        assert timeline.anomaly_count == 2  # down@200 repeat, up@300 repeat

    def test_down_frontier_tracks_ongoing_failure(self):
        timeline = self.make()
        assert timeline.down_frontier() == math.inf
        timeline.feed(transition(100.0, direction="down"))
        timeline.advance(150.0)
        assert timeline.down_frontier() == 100.0
        timeline.feed(transition(200.0, direction="up"))
        timeline.advance(250.0)
        timeline.collect()
        assert timeline.down_frontier() == math.inf


class TestMatcher:
    def test_pair_decided_once_frontiers_pass(self):
        matcher = Matcher(10.0)
        matcher.feed("a", failure(100.0, 200.0))
        matcher.feed("b", failure(103.0, 205.0))
        matcher.advance(lambda _l: 120.0, lambda _l: 120.0)
        assert len(matcher.pairs) == 0  # b frontier hasn't cleared fa.end
        matcher.advance(lambda _l: 300.0, lambda _l: 300.0)
        assert len(matcher.pairs) == 1
        assert matcher.pending_count == 0

    def test_only_b_waits_for_undecided_a(self):
        matcher = Matcher(10.0)
        matcher.feed("b", failure(100.0, 200.0))
        # The a channel's frontier is behind fb.start + window: an a
        # failure could still arrive and consume fb.
        matcher.advance(lambda _l: 105.0, lambda _l: 300.0)
        assert matcher.only_b == []
        matcher.advance(lambda _l: 300.0, lambda _l: 300.0)
        assert [f.start for f in matcher.only_b] == [100.0]

    def test_flush_decides_everything(self):
        matcher = Matcher(10.0)
        matcher.feed("a", failure(100.0, 200.0))
        matcher.feed("b", failure(500.0, 600.0))
        matcher.flush()
        result = matcher.result()
        assert result.pairs == []
        assert [f.start for f in result.only_a] == [100.0]
        assert [f.start for f in result.only_b] == [500.0]

    def test_partial_overlap_accounting(self):
        matcher = Matcher(10.0)
        matcher.feed("a", failure(100.0, 200.0))
        matcher.feed("b", failure(150.0, 400.0))  # overlaps, far from matching
        matcher.flush()
        result = matcher.result()
        assert [f.start for f in result.partial_a] == [100.0]
        assert [f.start for f in result.partial_b] == [150.0]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Matcher(-1.0)


class TestCoverageScorer:
    def test_counts_distinct_reporters_in_window(self):
        coverage = CoverageScorer(10.0, 30.0)
        coverage.feed(message(95.0, reporter="r1"))
        coverage.feed(message(105.0, reporter="r2"))
        coverage.feed(transition(100.0, direction="down"))
        coverage.advance(200.0)
        assert coverage.counts["down"][2] == 1
        assert coverage.result().unmatched == []

    def test_unmatched_transition_recorded(self):
        coverage = CoverageScorer(10.0, 30.0)
        coverage.feed(transition(100.0, direction="down"))
        coverage.flush()
        assert coverage.counts["down"][0] == 1
        assert [t.time for t in coverage.result().unmatched] == [100.0]

    def test_rings_prune_as_watermark_advances(self):
        coverage = CoverageScorer(10.0, 30.0)
        for t in range(0, 1000, 50):
            coverage.feed(message(float(t)))
            coverage.advance(float(t))
        assert coverage.message_buffer_size < 5


class TestSanitizer:
    def test_short_failure_released_immediately(self):
        sanitizer = Sanitizer(
            IntervalSet(), TicketSystem(), SanitizationConfig()
        )
        released = sanitizer.feed(failure(100.0, 200.0), watermark=150.0)
        assert [f.start for f in released] == [100.0]
        assert sanitizer.held_count == 0

    def test_listener_outage_overlap_dropped(self):
        outages = IntervalSet([Interval(150.0, 160.0)])
        sanitizer = Sanitizer(outages, None, SanitizationConfig())
        released = sanitizer.feed(failure(100.0, 200.0), watermark=300.0)
        assert released == []
        assert [f.start for f in sanitizer.report.removed_listener_overlap] == [
            100.0
        ]

    def test_long_failure_held_until_ticket_horizon(self):
        config = SanitizationConfig()
        day, slack = config.long_failure_threshold, config.ticket_slack
        tickets = TicketSystem(
            [TroubleTicket("t1", "lk-a", 0.0, day + 1000.0, "outage")]
        )
        sanitizer = Sanitizer(IntervalSet(), tickets, config)
        long_failure = failure(0.0, day + 1000.0)
        assert sanitizer.feed(long_failure, watermark=day + 1000.0) == []
        assert sanitizer.held_frontier("lk-a") == 0.0
        # Watermark at end + slack: a later-slack ticket could still exist.
        assert sanitizer.advance(long_failure.end + slack) == []
        released = sanitizer.advance(long_failure.end + slack + 1.0)
        assert [f.start for f in released] == [0.0]
        assert [f.start for f in sanitizer.report.verified_long] == [0.0]

    def test_unverified_long_failure_dropped_at_horizon(self):
        config = SanitizationConfig()
        sanitizer = Sanitizer(IntervalSet(), TicketSystem(), config)
        long_failure = failure(0.0, config.long_failure_threshold + 5.0)
        sanitizer.feed(long_failure, watermark=long_failure.end)
        assert sanitizer.flush() == []
        assert [f.start for f in sanitizer.report.removed_unverified_long] == [
            0.0
        ]

    def test_held_long_failure_queues_followers(self):
        config = SanitizationConfig()
        tickets = TicketSystem()
        sanitizer = Sanitizer(IntervalSet(), tickets, config)
        long_failure = failure(0.0, config.long_failure_threshold + 5.0)
        short_after = failure(config.long_failure_threshold + 10.0,
                              config.long_failure_threshold + 20.0)
        sanitizer.feed(long_failure, watermark=short_after.end)
        # The short failure is decidable, but releasing it before the held
        # long one would break per-link start order downstream.
        assert sanitizer.feed(short_after, watermark=short_after.end) == []
        released = sanitizer.flush()
        assert [f.start for f in released] == [short_after.start]

    def test_no_tickets_means_no_deferral(self):
        config = SanitizationConfig()
        sanitizer = Sanitizer(IntervalSet(), None, config)
        long_failure = failure(0.0, config.long_failure_threshold + 5.0)
        released = sanitizer.feed(long_failure, watermark=long_failure.end)
        assert [f.start for f in released] == [0.0]

    def test_finalized_report_sorted(self):
        sanitizer = Sanitizer(IntervalSet(), None, SanitizationConfig())
        sanitizer.feed(failure(300.0, 400.0, link="lk-b"), watermark=500.0)
        sanitizer.feed(failure(100.0, 200.0, link="lk-a"), watermark=500.0)
        report = sanitizer.finalized_report()
        assert isinstance(report, SanitizationReport)
        assert [f.start for f in report.kept] == [100.0, 300.0]


class TestFlapDetector:
    def test_rapid_failures_form_episode(self):
        detector = FlapDetector(600.0)
        detector.feed(failure(0.0, 10.0))
        detector.feed(failure(100.0, 110.0))
        detector.feed(failure(200.0, 210.0))
        detector.advance(lambda _l: 10000.0)
        episodes = detector.result()
        assert [(e.start, e.end, e.failure_count) for e in episodes] == [
            (0.0, 210.0, 3)
        ]

    def test_single_failure_is_not_an_episode(self):
        detector = FlapDetector(600.0)
        detector.feed(failure(0.0, 10.0))
        detector.flush()
        assert detector.result() == []

    def test_run_not_closed_while_frontier_is_near(self):
        detector = FlapDetector(600.0)
        detector.feed(failure(0.0, 10.0))
        detector.feed(failure(100.0, 110.0))
        detector.advance(lambda _l: 500.0)  # a failure at 500 could extend it
        assert detector.open_run_count == 1
        detector.advance(lambda _l: 710.0)
        assert detector.open_run_count == 0
        assert len(detector.result()) == 1

    def test_gap_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            FlapDetector(0.0)


def _json(data):
    """``data`` as it comes back from a JSON file."""
    return json.loads(json.dumps(data))


def _resolver(single):
    """The one resolver call the engine makes: which links are single."""
    records = [SimpleNamespace(name=name) for name in single]
    return SimpleNamespace(single_links=lambda: records)


#: Random event streams: steps that straddle the merge (30 s), matching
#: (10 s) and flap (600 s) windows and the 24 h ticket threshold.
_STEPS = st.sampled_from([0.0, 0.5, 4.0, 20.0, 45.0, 400.0, 900.0, 40000.0, 90000.0])
_LINKS = ("lk-a", "lk-b", "lk-c")
#: lk-c is not a single link: its syslog transitions feed no timeline.
_SINGLE = ("lk-a", "lk-b")
#: What one step does besides flipping a link: nothing, a repeated
#: report, or an event that carries no link state.
_EXTRAS = st.sampled_from(
    [None] * 5
    + ["repeat", (SYSLOG_CHANNEL, "physical"), (SYSLOG_CHANNEL, "unparsed")]
    + [(ISIS_CHANNEL, "ip"), (ISIS_CHANNEL, "tick")]
)


@st.composite
def event_streams(draw):
    """Links going down and up, reported by either channel or both."""
    time = 1000.0
    state = dict.fromkeys(_LINKS, "up")
    events = []

    def report(channel, kind, link, direction, reporter):
        source = SOURCE_SYSLOG if channel == SYSLOG_CHANNEL else SOURCE_ISIS_IS
        message = LinkMessage(time, link, direction, reporter, source, kind)
        events.append(StreamEvent(time, channel, kind, message))

    steps = st.tuples(
        _STEPS,
        st.sampled_from(_SINGLE * 2 + _LINKS),
        st.sampled_from(["both", "both", SYSLOG_CHANNEL, ISIS_CHANNEL]),
        st.sampled_from(["r1", "r2"]),
        _EXTRAS,
    )
    for step, link, channels, reporter, extra in draw(
        st.lists(steps, min_size=10, max_size=50)
    ):
        time += step
        if extra is None or extra == "repeat":
            if extra is None:
                state[link] = "down" if state[link] == "up" else "up"
            if channels != ISIS_CHANNEL:
                report(SYSLOG_CHANNEL, "isis", link, state[link], reporter)
            if channels != SYSLOG_CHANNEL:
                report(ISIS_CHANNEL, "is", link, state[link], reporter)
        elif extra[1] in ("physical", "ip"):
            report(*extra, link, state[link], reporter)
        else:
            events.append(StreamEvent(time, *extra))
    return events


class TestCheckpointCodec:
    """The derived codec: value round trips, engine round trips at random
    cuts, and state declarations that cover every machine attribute."""

    @pytest.mark.parametrize(
        "value, tp",
        [
            (message(123.456, link="lk-z", reporter="r7"), LinkMessage),
            (
                Transition(
                    time=5.0,
                    link="lk-a",
                    direction="up",
                    source=SOURCE_ISIS_IS,
                    reporters=frozenset({"r2", "r1"}),
                    messages=(message(5.0), message(6.0, reporter="r2")),
                ),
                Transition,
            ),
            (
                FailureEvent(
                    link="lk-a",
                    start=10.0,
                    end=20.0,
                    source=SOURCE_ISIS_IS,
                    start_transition=transition(10.0, direction="down"),
                    end_transition=transition(20.0, direction="up"),
                ),
                FailureEvent,
            ),
            (failure(1.0, 2.0), FailureEvent),
            (FlapEpisode(link="lk-a", start=0.0, end=100.0, failure_count=4), FlapEpisode),
            (
                SanitizationReport(
                    kept=[failure(1.0, 2.0)],
                    removed_unverified_long=[failure(3.0, 100000.0)],
                ),
                SanitizationReport,
            ),
            (
                StreamOptions(
                    AnalysisOptions(
                        syslog=SyslogExtractionConfig(
                            strategy=AmbiguityStrategy.ASSUME_DOWN
                        ),
                        sanitization=SanitizationConfig(
                            long_failure_threshold=math.inf
                        ),
                    ),
                    drain_interval=7,
                ),
                StreamOptions,
            ),
            ({(1.5, "down"): transition(1.5)}, Dict[Tuple[float, str], Transition]),
            ({"down": {0: 3, 2: 1}}, Dict[str, Dict[int, int]]),
            (deque([(0.1 + 0.2, "r1"), (-math.inf, "r2")]), Deque[Tuple[float, str]]),
        ],
        ids=[
            "message",
            "transition",
            "failure",
            "bare-failure",
            "episode",
            "report",
            "options",
            "tuple-keys",
            "int-keys",
            "ring",
        ],
    )
    def test_value_round_trip(self, value, tp):
        encoded = _json(codec.encode(value, tp))
        back = codec.decode(tp, encoded)
        assert back == value
        assert type(back) is type(value)
        assert _json(codec.encode(back, tp)) == encoded

    def test_float_exactness_survives_json(self):
        # Shortest-round-trip decimal: every float comes back bit-identical.
        times = [0.1 + 0.2, 1e-17, 86400.000000001, 2**53 + 0.0, -math.inf]
        for t in times:
            assert json.loads(json.dumps(t)) == t

    #: A listener outage and a ticket for long failures to meet.
    CONTEXT = (
        IntervalSet([Interval(50000.0, 50100.0)]),
        TicketSystem([TroubleTicket("t1", "lk-a", 1000.0, 300000.0, "outage")]),
    )

    def _engine(self, options):
        return StreamEngine(_resolver(_SINGLE), 0.0, 2.0e6, *self.CONTEXT, options)

    @given(
        events=event_streams(),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
        drain_interval=st.sampled_from([1, 3, 8]),
        strategy=st.sampled_from(list(AmbiguityStrategy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_round_trip_at_random_cuts(
        self, events, cuts, drain_interval, strategy
    ):
        options = StreamOptions(
            AnalysisOptions(syslog=SyslogExtractionConfig(strategy=strategy)),
            drain_interval=drain_interval,
        )
        uncut = self._engine(options)
        for event in events:
            uncut.process(event)
        expected = stream_signature(uncut.finish())

        engine = self._engine(options)
        position = 0
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "engine.ckpt")
            for cut in sorted({min(cut, len(events)) for cut in cuts}):
                for event in events[position:cut]:
                    engine.process(event)
                position = cut
                document = _json(codec.encode_engine(engine))
                restored = codec.decode_engine(
                    document, _resolver(_SINGLE), *self.CONTEXT
                )
                assert _json(codec.encode_engine(restored)) == document
                # Through the files too: the resumed engine keeps
                # appending to the segment it was loaded from.
                save_checkpoint(path, engine)
                engine = StreamEngine.restore(
                    load_checkpoint(path), _resolver(_SINGLE), *self.CONTEXT
                )
            for event in events[position:]:
                engine.process(event)
        assert stream_signature(engine.finish()) == expected


def _machines(engine):
    """Every machine instance inside an engine, nested ones included."""
    yield from engine.mergers.values()
    for timelines in engine.timelines.values():
        yield from timelines.values()
    yield from engine.sanitizers.values()
    yield engine.matcher
    yield from engine.matcher.links.values()
    yield engine.coverage
    yield engine.flaps
    yield from engine.flaps.runs.values()


#: Every class whose state a checkpoint carries.
MACHINES = (
    RunMerger,
    TimelineBuilder,
    Sanitizer,
    Matcher,
    _LinkMatchState,
    CoverageScorer,
    FlapDetector,
    FlapRun,
)


@pytest.fixture(scope="module")
def live_machines(small_dataset):
    """Attribute names of each machine class, sampled across a run."""
    seen = {cls: set() for cls in MACHINES}

    def sample(engine):
        for machine in _machines(engine):
            attrs = vars(machine) if hasattr(machine, "__dict__") else {
                name: None for name in type(machine).__slots__ if hasattr(machine, name)
            }
            seen[type(machine)].add(frozenset(attrs))

    stream_dataset(small_dataset, checkpoint_every=250, on_checkpoint=sample)
    return seen


@pytest.mark.parametrize("cls", MACHINES, ids=lambda cls: cls.__name__)
def test_state_annotations_cover_every_attribute(cls, live_machines):
    # What the codec carries (the annotations) plus what the constructor
    # rebuilds (its parameters) must account for every attribute a
    # machine holds mid-stream; anything else would be lost on resume.
    assert live_machines[cls], f"no {cls.__name__} was live at any sample"
    declared = set(typing.get_type_hints(cls)) | set(
        inspect.signature(cls.__init__).parameters
    )
    for attrs in live_machines[cls]:
        assert attrs <= declared, sorted(attrs - declared)


@pytest.mark.parametrize("cls", MACHINES, ids=lambda cls: cls.__name__)
def test_state_annotations_resolve_on_every_supported_python(cls):
    # The codec evaluates these at run time; PEP 604 unions (X | None)
    # do not evaluate before Python 3.10, so state uses Optional[...].
    assert cls.__annotations__
    for name, annotation in cls.__annotations__.items():
        assert "|" not in annotation, (cls.__name__, name, annotation)
    typing.get_type_hints(cls, include_extras=True)


class TestStreamOptions:
    def test_drain_interval_validated(self):
        from repro.stream.engine import StreamOptions

        with pytest.raises(ValueError):
            StreamOptions(drain_interval=0)
