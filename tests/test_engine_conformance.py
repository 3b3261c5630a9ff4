"""Engine-core conformance: four entry points, one per-link funnel.

The unification contract: batch (``run_analysis``), columnar
(``ingest="columnar"``), stream (``stream_dataset``) and the tenant
service (``run_worker``) are thin
drivers over the same ``repro.engine`` state machines, so the same input
must come out *byte-identical* everywhere — the same Table 2/3
renderings, the same isolation summaries, the same flap table, the same
sanitisation ledgers, and the same (empty) drop ledgers on clean input.
Seeds 7 and 2013 are the acceptance seeds shared with the equivalence
suites.

Two modes have a narrower surface by design, not by divergence:

* the stream engine keeps counters rather than message/transition lists,
  so Table 2 (which re-derives match fractions from those lists) is a
  batch-family rendering; the stream's Table 3, flap table and isolation
  summaries are still compared as rendered bytes;
* the tenant service ingests a single syslog journal, so its conformance
  surface is the syslog half of the funnel (merge → timeline → failure →
  sanitise): those products must match the batch run of the full dataset
  byte for byte, and ``run_worker`` itself must match the in-process
  replay exactly.

Three runtime checks pin the shape of the contract, not just its
outputs on the acceptance seeds:

* the phase trace — every driver reaches the engine's seven post-ingest
  sinks, in funnel order;
* non-default options — each config value a phase reads changes the
  result, and the four drivers still agree under it;
* sort-key ties — a hand-built input whose products tie on their first
  sort field comes out of every driver in the canonical key order.
"""

from __future__ import annotations

import dataclasses
import io
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from repro import AnalysisResult, ScenarioConfig, run_analysis, run_scenario
from repro.cli import _print_report
from repro.core.events import failure_sort_key, transition_sort_key
from repro.core.extract_isis import IsisExtractionConfig
from repro.core.extract_syslog import SyslogExtractionConfig
from repro.core.flapping import flap_intervals
from repro.core.isolation import compute_isolation, isolation_summary
from repro.core.matching import MatchConfig
from repro.core.pipeline import AnalysisOptions
from repro.engine import sanitize as engine_sanitize
from repro.engine.flaps import FlapDetector
from repro.engine.matching import CoverageScorer, Matcher
from repro.engine.merge import RunMerger
from repro.engine.timeline import TimelineBuilder
from repro.faults.chaos import analysis_signature, stream_signature
from repro.faults.ledger import IngestReport
from repro.intervals import Interval, IntervalSet
from repro.isis.lsp import LinkStatePacket, LspId
from repro.isis.tlv import DynamicHostnameTlv, ExtendedIsReachabilityTlv, IsNeighbor
from repro.service.profile import load_tenant_context
from repro.service.worker import (
    JOURNAL_FILE,
    STOP_FILE,
    read_report,
    replay_lines,
    run_worker,
)
from repro.stream import stream_dataset
from repro.stream.engine import StreamOptions
from repro.syslog.cisco import AdjacencyChangeMessage
from tests.test_stream_equivalence import assert_equivalent

SEED_CONFIGS = {
    7: ScenarioConfig(seed=7, duration_days=10.0),
    2013: ScenarioConfig(seed=2013, duration_days=10.0),
}

#: The AnalysisResult-producing drivers measured against batch.
ANALYSIS_MODES = ("columnar",)
#: Every rendering the report CLI can produce from an AnalysisResult.
TABLES = ("table2", "table3", "table4", "table5", "flaps")
#: The subset computable from a StreamResult's retained products.
STREAM_TABLES = ("table3", "flaps")


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Per seed, built once: the dataset, saved as a tenant profile, plus
    the tenant context and syslog journal lines the service reads."""
    built = {}

    def build(seed: int) -> SimpleNamespace:
        if seed not in built:
            dataset = run_scenario(SEED_CONFIGS[seed])
            profile_dir = tmp_path_factory.mktemp(f"conformance-{seed}")
            dataset.save(profile_dir)
            built[seed] = SimpleNamespace(
                profile_dir=profile_dir,
                dataset=dataset,
                context=load_tenant_context("tenant0", str(profile_dir)),
                lines=[
                    line
                    for line in (profile_dir / "syslog.log")
                    .read_text("utf-8")
                    .splitlines()
                    if line.strip()
                ],
            )
        return built[seed]

    return build


@pytest.fixture(scope="module", params=sorted(SEED_CONFIGS))
def conformance(request, campaign, tmp_path_factory):
    """One seed's dataset pushed through all four drivers, lenient mode.

    Lenient mode is used everywhere so each driver produces a drop
    ledger to compare; on clean input lenient is byte-identical to
    strict (``TestLenientCleanPathIdentity`` enforces that separately).
    """
    seed = request.param
    built = campaign(seed)
    dataset = built.dataset

    ledgers = {}

    def tracked(name: str) -> IngestReport:
        ledgers[name] = IngestReport()
        return ledgers[name]

    modes = {
        "batch": run_analysis(dataset, report=tracked("batch")),
        "columnar": run_analysis(
            dataset, report=tracked("columnar"), ingest="columnar"
        ),
    }
    stream = stream_dataset(dataset, report=tracked("stream"))

    # Service mode: the saved tenant profile's syslog journal drained by
    # the real worker entry point and by the in-process replay comparator.
    service, service_report = replay_lines(built.context, built.lines)
    ledgers["service"] = service_report

    state_dir = tmp_path_factory.mktemp(f"tenant0-{seed}")
    (state_dir / JOURNAL_FILE).write_text(
        "".join(f"{line}\n" for line in built.lines), "utf-8"
    )
    (state_dir / STOP_FILE).touch()  # drain and exit
    assert (
        run_worker(
            {
                "tenant": "tenant0",
                "profile_dir": str(built.profile_dir),
                "state_dir": str(state_dir),
                "checkpoint_every": 10_000,
                "heartbeat_interval": 0.01,
                "poll_interval": 0.01,
            }
        )
        == 0
    )

    return SimpleNamespace(
        seed=seed,
        dataset=dataset,
        batch=modes["batch"],
        modes=modes,
        stream=stream,
        service=service,
        worker_report=read_report(state_dir),
        ledgers=ledgers,
    )


DRIVERS = ("batch", "columnar", "stream", "service")


def run_driver(driver: str, campaign: SimpleNamespace, options=None):
    """One strict pass of ``campaign`` through ``driver``, under the
    paper defaults when ``options`` is ``None``."""
    stream_options = None if options is None else StreamOptions(analysis=options)
    if driver == "batch":
        return run_analysis(campaign.dataset, options)
    if driver == "columnar":
        return run_analysis(campaign.dataset, options, ingest="columnar")
    if driver == "stream":
        return stream_dataset(campaign.dataset, stream_options)
    result, _ = replay_lines(campaign.context, campaign.lines, options=stream_options)
    return result


def render(result, table: str) -> str:
    """The report CLI's rendering of one table, captured as bytes-for-bytes."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        _print_report(result, table)
    return buffer.getvalue()


def down_map(failures):
    spans = {}
    for event in failures:
        spans.setdefault(event.link, []).append(Interval(event.start, event.end))
    return {link: IntervalSet(items) for link, items in spans.items()}


def isolation_events(conformance, failures):
    """Table 7's event tuple for one channel's kept failures."""
    per_site = compute_isolation(
        conformance.dataset.network,
        down_map(failures),
        conformance.batch.horizon_start,
        conformance.batch.horizon_end,
    )
    return isolation_summary(per_site).events


def assert_same_sanitization(mine, theirs):
    assert mine.kept == theirs.kept
    assert mine.removed_listener_overlap == theirs.removed_listener_overlap
    assert mine.removed_unverified_long == theirs.removed_unverified_long
    assert mine.verified_long == theirs.verified_long


def assert_syslog_funnel_matches(service, batch):
    """The service's journal holds only the syslog channel, but the phases
    it exercises — merge, timeline, failure, sanitise — must land on the
    very same bytes as the batch run of the full dataset."""
    assert service.syslog_failures_raw == batch.syslog.failures
    assert_same_sanitization(service.syslog_sanitized, batch.syslog_sanitized)
    assert service.counters["syslog-isis-transitions"] == len(
        batch.syslog.isis_transitions
    )


class TestAnalysisDriverConformance:
    """Columnar against batch: the full rendering surface."""

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("mode", ANALYSIS_MODES)
    def test_rendered_tables_byte_identical(self, conformance, mode, table):
        assert render(conformance.modes[mode], table) == render(
            conformance.batch, table
        )

    @pytest.mark.parametrize("mode", ANALYSIS_MODES)
    def test_analysis_signatures_identical(self, conformance, mode):
        assert analysis_signature(conformance.modes[mode]) == analysis_signature(
            conformance.batch
        )

    @pytest.mark.parametrize("mode", ANALYSIS_MODES)
    def test_isolation_summaries_identical(self, conformance, mode):
        result = conformance.modes[mode]
        for channel in ("syslog_failures", "isis_failures"):
            assert isolation_events(
                conformance, getattr(result, channel)
            ) == isolation_events(conformance, getattr(conformance.batch, channel))


class TestStreamDriverConformance:
    def test_rendered_tables_byte_identical(self, conformance):
        stream = conformance.stream
        shim = SimpleNamespace(
            coverage=stream.coverage,
            flap_episodes=stream.flap_episodes,
            flap_intervals=flap_intervals(
                stream.flap_episodes, horizon_start=stream.horizon_start
            ),
        )
        for table in STREAM_TABLES:
            assert render(shim, table) == render(conformance.batch, table)

    def test_sanitisation_ledgers_identical(self, conformance):
        assert_same_sanitization(
            conformance.stream.syslog_sanitized, conformance.batch.syslog_sanitized
        )
        assert_same_sanitization(
            conformance.stream.isis_sanitized, conformance.batch.isis_sanitized
        )

    def test_isolation_summaries_identical(self, conformance):
        for channel in ("syslog_failures", "isis_failures"):
            assert isolation_events(
                conformance, getattr(conformance.stream, channel)
            ) == isolation_events(conformance, getattr(conformance.batch, channel))


class TestServiceDriverConformance:
    def test_run_worker_matches_inprocess_replay(self, conformance):
        assert conformance.worker_report["signature"] == stream_signature(
            conformance.service
        )
        assert conformance.worker_report["dropped"] == 0

    def test_syslog_funnel_matches_batch(self, conformance):
        assert_syslog_funnel_matches(conformance.service, conformance.batch)

    def test_syslog_isolation_matches_batch(self, conformance):
        assert isolation_events(
            conformance, conformance.service.syslog_failures
        ) == isolation_events(conformance, conformance.batch.syslog_failures)


class TestDropLedgerConformance:
    def test_all_four_ledgers_empty_and_identical(self, conformance):
        documents = {
            name: ledger.to_json() for name, ledger in conformance.ledgers.items()
        }
        assert sorted(documents) == [
            "batch",
            "columnar",
            "service",
            "stream",
        ]
        for name, ledger in conformance.ledgers.items():
            assert ledger.dropped() == 0, name
        # The three full-dataset drivers agree byte for byte; the service
        # ledger (a syslog-only feed) is compared for emptiness above.
        reference = documents["batch"]
        for name in ("columnar", "stream"):
            assert documents[name] == reference, name


# --------------------------------------------------------------- phase trace
#: Each post-ingest phase's single implementation (its sink), patched at
#: the attribute every driver looks up at call time.
PHASE_SINKS = (
    ("merge", RunMerger, "feed"),
    ("timeline", TimelineBuilder, "feed"),
    ("failure", TimelineBuilder, "collect"),
    ("sanitize", engine_sanitize, "classify_failure"),
    ("match", Matcher, "feed"),
    ("coverage", CoverageScorer, "feed"),
    ("flaps", FlapDetector, "feed"),
)
BATCH_FUNNEL = (
    "merge", "timeline", "failure", "sanitize", "match", "coverage", "flaps"
)
#: The stream scores each syslog message for coverage (unordered, rank
#: 5) before it merges it.
STREAM_FUNNEL = (
    "coverage", "merge", "timeline", "failure", "sanitize", "match", "flaps"
)
#: The order in which each driver first reaches the sinks.  A syslog-only
#: tenant produces no IS-IS failures, so the service never reaches flaps.
FIRST_REACH = {
    "batch": BATCH_FUNNEL,
    "columnar": BATCH_FUNNEL,
    "stream": STREAM_FUNNEL,
    "service": STREAM_FUNNEL[:-1],
}


@pytest.fixture
def phase_trace(monkeypatch):
    """The phases, in the order a run first reaches their sinks."""
    reached = []
    for phase, owner, name in PHASE_SINKS:

        def traced(*args, _phase=phase, _sink=getattr(owner, name), **kwargs):
            if _phase not in reached:
                reached.append(_phase)
            return _sink(*args, **kwargs)

        monkeypatch.setattr(owner, name, traced)
    return reached


class TestPhaseTrace:
    """Every driver chains the whole funnel through the engine's sinks in
    funnel order: a dropped phase, a swapped pair of phases or a private
    twin of an engine machine shows up as a missing or misplaced phase."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_first_reach_order(self, campaign, phase_trace, driver):
        run_driver(driver, campaign(7))
        assert tuple(phase_trace) == FIRST_REACH[driver]


# -------------------------------------------------------- non-default options
#: A non-default value for every config parameter a funnel phase reads.
NON_DEFAULT = AnalysisOptions(
    syslog=SyslogExtractionConfig(merge_window=10.0),
    isis=IsisExtractionConfig(merge_window=10.0),
    matching=MatchConfig(window=2.0),
    flap_gap_threshold=120.0,
)
#: What each of those values changes in a batch run of seed 7.
OPTION_EFFECTS = {
    "syslog": lambda result: len(result.syslog.isis_transitions),
    "isis": lambda result: len(result.isis.is_transitions),
    "matching": lambda result: result.failure_match.matched_count,
    "flap_gap_threshold": lambda result: len(result.flap_episodes),
}


@pytest.fixture(scope="module")
def non_default_runs(campaign):
    seven = campaign(7)
    return {driver: run_driver(driver, seven, NON_DEFAULT) for driver in DRIVERS}


class TestNonDefaultOptions:
    """Every driver reads each config value instead of restating the
    default: the values change the result, and the drivers still agree."""

    def test_each_value_changes_the_result(self, campaign):
        dataset = campaign(7).dataset
        defaults = run_analysis(dataset)
        for field, effect in OPTION_EFFECTS.items():
            alone = dataclasses.replace(
                AnalysisOptions(), **{field: getattr(NON_DEFAULT, field)}
            )
            assert effect(run_analysis(dataset, alone)) != effect(defaults), field

    def test_columnar_matches_batch(self, non_default_runs):
        assert analysis_signature(
            non_default_runs["columnar"]
        ) == analysis_signature(non_default_runs["batch"])

    def test_stream_matches_batch(self, non_default_runs):
        assert_equivalent(non_default_runs["batch"], non_default_runs["stream"])

    def test_service_matches_batch(self, non_default_runs):
        assert_syslog_funnel_matches(
            non_default_runs["service"], non_default_runs["batch"]
        )


# ------------------------------------------------------------ sort-key ties
#: Per link, in link-name order: the (DOWN, UP) instants both channels
#: report.  The links fail at the same instants, so every product ties on
#: its first sort field.  The second link's extra failure makes it seal
#: its earlier failures first, so a stream that sorted on the start alone
#: would emit them ahead of the first link's.
TIED_FAILURES = (
    ((10_000.0, 10_100.0), (10_300.0, 10_400.0)),
    ((10_000.0, 10_100.0), (10_300.0, 10_400.0), (10_600.0, 10_700.0)),
)


def tied_campaign(base: SimpleNamespace) -> SimpleNamespace:
    """``base`` with both channels replaced by ``TIED_FAILURES``.

    The links are the first two single links over four distinct routers,
    each reported by its ``router_a`` end only.  At every shared instant
    the later link's syslog line and LSP are written first.
    """
    resolver = base.context.resolver
    links = []
    for record in sorted(resolver.single_links(), key=lambda r: r.name):
        if all(
            {record.router_a, record.router_b}.isdisjoint(
                {link.router_a, link.router_b}
            )
            for link in links
        ):
            links.append(record)
        if len(links) == len(TIED_FAILURES):
            break

    sequence = {}

    def lsp(record, time, up):
        origin = resolver.system_id_for(record.router_a)
        sequence[origin] = sequence.get(origin, 0) + 1
        tlvs = [DynamicHostnameTlv(hostname=record.router_a)]
        if up:
            neighbor = resolver.system_id_for(record.router_b)
            tlvs.append(
                ExtendedIsReachabilityTlv(
                    neighbors=(IsNeighbor(system_id=neighbor, metric=10),)
                )
            )
        packet = LinkStatePacket(LspId(origin), sequence[origin], tlvs=tuple(tlvs))
        return time, packet.pack()

    # The listener seeds its view of an origin from its first LSP silently.
    records = [lsp(record, 9_000.0, up=True) for record in reversed(links)]
    lines = []
    for time, reverse_rank, direction in sorted(
        (time, -rank, direction)
        for rank, spans in enumerate(TIED_FAILURES)
        for span in spans
        for time, direction in zip(span, ("down", "up"))
    ):
        record = links[-reverse_rank]
        message = AdjacencyChangeMessage(
            record.router_a, record.port_a, record.router_b, direction
        )
        lines.append(message.to_syslog(time).render())
        records.append(lsp(record, time, up=direction == "up"))

    # No listener outage may mask the hand-built failures.
    no_outages = IntervalSet([])
    return SimpleNamespace(
        dataset=dataclasses.replace(
            base.dataset,
            syslog_text="".join(f"{line}\n" for line in lines),
            lsp_records=records,
            listener_outages=no_outages,
        ),
        context=dataclasses.replace(base.context, listener_outages=no_outages),
        lines=lines,
    )


@pytest.fixture(scope="module")
def tied_runs(campaign):
    tied = tied_campaign(campaign(7))
    return {driver: run_driver(driver, tied) for driver in DRIVERS}


class TestSortKeyTies:
    """Seeds 7 and 2013 never tie on a first sort field, so only a
    hand-built input shows whether a driver orders by the canonical keys
    of ``repro.core.events`` or by a key that drops the link."""

    def test_every_product_ties(self, tied_runs):
        batch = tied_runs["batch"]
        for products in (
            batch.syslog.failures,
            batch.isis.failures,
            [syslog for syslog, _ in batch.failure_match.pairs],
            batch.flap_episodes,
        ):
            starts = [item.start for item in products]
            assert len(set(starts)) < len(starts)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_products_in_canonical_order(self, tied_runs, driver):
        result = tied_runs[driver]
        if isinstance(result, AnalysisResult):
            raw = (result.syslog.failures, result.isis.failures)
            transitions = (result.syslog.isis_transitions, result.isis.is_transitions)
        else:
            raw = (result.syslog_failures_raw, result.isis_failures_raw)
            transitions = ()
        for items in (
            *raw,
            result.syslog_sanitized.kept,
            result.isis_sanitized.kept,
            result.flap_episodes,
        ):
            assert items == sorted(items, key=failure_sort_key)
        pairs = result.failure_match.pairs
        assert pairs == sorted(pairs, key=lambda pair: failure_sort_key(pair[0]))
        for items in transitions:
            assert items == sorted(items, key=transition_sort_key)

    def test_drivers_agree(self, tied_runs):
        batch = tied_runs["batch"]
        assert analysis_signature(tied_runs["columnar"]) == analysis_signature(batch)
        assert_equivalent(batch, tied_runs["stream"])
        assert_syslog_funnel_matches(tied_runs["service"], batch)
