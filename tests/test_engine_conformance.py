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
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from repro import ScenarioConfig, run_analysis, run_scenario
from repro.cli import _print_report
from repro.core.flapping import flap_intervals
from repro.core.isolation import compute_isolation, isolation_summary
from repro.faults.chaos import analysis_signature, stream_signature
from repro.faults.ledger import IngestReport
from repro.intervals import Interval, IntervalSet
from repro.service.profile import load_tenant_context
from repro.service.worker import (
    JOURNAL_FILE,
    STOP_FILE,
    read_report,
    replay_lines,
    run_worker,
)
from repro.stream import stream_dataset

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


@pytest.fixture(scope="module", params=sorted(SEED_CONFIGS))
def conformance(request, tmp_path_factory):
    """One seed's dataset pushed through all four drivers, lenient mode.

    Lenient mode is used everywhere so each driver produces a drop
    ledger to compare; on clean input lenient is byte-identical to
    strict (``TestLenientCleanPathIdentity`` enforces that separately).
    """
    seed = request.param
    dataset = run_scenario(SEED_CONFIGS[seed])

    ledgers = {}

    def tracked(name: str) -> IngestReport:
        ledgers[name] = IngestReport()
        return ledgers[name]

    modes = {
        "batch": run_analysis(dataset, strict=False, report=tracked("batch")),
        "columnar": run_analysis(
            dataset, strict=False, report=tracked("columnar"), ingest="columnar"
        ),
    }
    stream = stream_dataset(dataset, strict=False, report=tracked("stream"))

    # Service mode: the dataset saved as a tenant profile, its syslog
    # journal drained by the real worker entry point and by the
    # in-process replay comparator.
    root = tmp_path_factory.mktemp(f"conformance-{seed}")
    profile_dir = root / "campaign"
    dataset.save(profile_dir)
    context = load_tenant_context("tenant0", str(profile_dir))
    corpus = [
        line
        for line in (profile_dir / "syslog.log").read_text("utf-8").splitlines()
        if line.strip()
    ]
    service, service_report = replay_lines(context, corpus)
    ledgers["service"] = service_report

    state_dir = root / "tenant0"
    state_dir.mkdir()
    (state_dir / JOURNAL_FILE).write_text(
        "".join(f"{line}\n" for line in corpus), "utf-8"
    )
    (state_dir / STOP_FILE).touch()  # drain and exit
    assert (
        run_worker(
            {
                "tenant": "tenant0",
                "profile_dir": str(profile_dir),
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
        # The journal holds only the syslog channel, but the phases it
        # exercises — merge, timeline, failure, sanitise — must land on
        # the very same bytes as the batch run of the full dataset.
        assert (
            conformance.service.syslog_failures_raw
            == conformance.batch.syslog.failures
        )
        assert_same_sanitization(
            conformance.service.syslog_sanitized,
            conformance.batch.syslog_sanitized,
        )

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
