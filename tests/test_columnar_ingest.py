"""The columnar ingest contract: byte-identical to the scalar parser.

``repro.columnar`` is only allowed to be fast.  Every test here compares
the vectorised batch parse against ``SyslogCollector.parse_log``
— entries, drop ledgers, ledger-less exceptions — on inputs
chosen to hit the classifier's escape hatches: year rollover, Feb 29,
backdated lines at the slack boundary, truncation, binary garbage, and
non-ASCII text.  The Hypothesis fuzz then quantifies over arbitrary
mixes of those shapes.

When numpy is unavailable the columnar entry point falls back to the
scalar parser, so the identities hold trivially; the suite still runs to
pin the fallback path.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScenarioConfig, run_analysis, run_scenario
from repro.columnar import (
    COLUMNAR_AVAILABLE,
    available_backends,
    parse_log_columnar,
)
from repro.faults.chaos import analysis_signature
from repro.faults.injectors import inject_garbage_lines, truncate_log_lines
from repro.faults.ledger import CHANNEL_SYSLOG, IngestReport
from repro.syslog.collector import SyslogCollector
from repro.syslog.message import Facility, Severity, SyslogMessage

HOSTS = [f"r{i:03d}-cpe-{i % 7}" for i in range(17)]
BODIES = [
    "%CLNS-5-ADJCHANGE: ISIS: Adjacency to lax-core-01 (Gi0/0/1) Up, "
    "new adjacency",
    "%ROUTING-ISIS-4-ADJCHANGE : Adjacency to sac-core-02 (Te0/1/0) (L2) "
    "Down, hold time expired",
    "%LINK-3-UPDOWN: Interface Gi0/0/1, changed state to down",
    "%LINEPROTO-5-UPDOWN: Line protocol on Interface Gi0/0/1, "
    "changed state to up",
    "%SYS-5-CONFIG_I: Configured from console by admin on vty0 (10.0.0.1)",
]

#: Edge-of-grammar vectors: every one is a distinct reason the fast lane
#: must bail (or prove it need not).
EDGE_LINES = [
    "",
    "   ",
    "not a syslog line",
    "<999>Oct 20 00:00:00.000 h b",
    "<192>Oct 20 10:00:00.000 h b",
    "<191>Oct 20 10:00:00.000 h b",
    "<12>Xyz 20 00:00:00.000 h b",
    "<12>Oct 40 00:00:00.000 h b",
    "<12>Feb 29 12:00:00.000 host body",
    "<12>Feb 30 12:00:00.000 host body",
    "<12>Oct 20 25:00:00.000 host body",
    "<12>Oct 20 10:60:00.000 host body",
    "<12>Oct 20 10:00:61.000 host body",
    "<12>Oct 20 10:00:00.00 host body",
    "<12>Oct  0 10:00:00.000 host body",
    "<12>Oct 20 10:00:00.000  doublespace",
    "<12>Oct 20 10:00:00.000 hostonly",
    "<12>Oct 20 10:00:00.000 host ",
    "<12>Oct 20 10:00:00.000 h \x1c body",
    "<12>Oct 20 10:00:00.000 hóst body",
    "<12>Oct 20 10:00:00.000 host bödy",
    "ünïcode <12>Oct 20 10:00:00.000 h b",
]


def render_line(rng: random.Random, time: float) -> str:
    return SyslogMessage(
        timestamp=time,
        hostname=rng.choice(HOSTS),
        body=rng.choice(BODIES),
        severity=rng.choice(list(Severity)),
        facility=rng.choice([Facility.LOCAL7, Facility.LOCAL4]),
    ).render()


def clean_corpus(rng: random.Random, n: int, start=0.0, step=2.0) -> str:
    time, out = start, []
    for _ in range(n):
        time += rng.random() * step
        out.append(render_line(rng, time))
    return "\n".join(out) + "\n"


def ledger_json(report: IngestReport) -> str:
    payload = report.to_json() if hasattr(report, "to_json") else report.__dict__
    return json.dumps(payload, default=str, sort_keys=True)


def assert_identical(text: str, *, ledger: bool) -> None:
    """The full contract: entries, ledger records and raised exceptions,
    with a drop ledger (``ledger=True``) or without one."""
    scalar_report = IngestReport() if ledger else None
    columnar_report = IngestReport() if ledger else None
    scalar_exc = columnar_exc = None
    scalar = columnar = None
    try:
        scalar = SyslogCollector.parse_log(text, report=scalar_report)
    except Exception as exc:  # noqa: BLE001 - identity includes the type
        scalar_exc = (type(exc).__name__, str(exc))
    try:
        columnar = parse_log_columnar(text, report=columnar_report)
    except Exception as exc:  # noqa: BLE001
        columnar_exc = (type(exc).__name__, str(exc))

    assert scalar_exc == columnar_exc
    if scalar_exc is not None:
        return
    assert scalar == columnar
    if ledger:
        assert ledger_json(scalar_report) == ledger_json(columnar_report)


def test_backends_reported():
    backends = available_backends()
    assert ("numpy" in backends) == COLUMNAR_AVAILABLE


@pytest.mark.parametrize("ledger", [False, True])
def test_clean_corpus_identity(ledger):
    rng = random.Random(7)
    assert_identical(clean_corpus(rng, 800), ledger=ledger)


def test_year_rollover_identity():
    rng = random.Random(11)
    assert_identical(clean_corpus(rng, 1500, step=40000.0), ledger=True)


def test_backdated_lines_identity():
    rng = random.Random(13)
    lines, time = [], 0.0
    for _ in range(800):
        time += rng.random() * 30000.0
        lines.append(render_line(rng, max(0.0, time - rng.random() * 172000.0)))
    assert_identical("\n".join(lines) + "\n", ledger=True)


@pytest.mark.parametrize("ledger", [False, True])
def test_edge_vectors_identity(ledger):
    rng = random.Random(17)
    mixed = []
    time = 0.0
    for i in range(600):
        if rng.random() < 0.4:
            mixed.append(rng.choice(EDGE_LINES))
        else:
            time += rng.random() * 5.0
            mixed.append(render_line(rng, time))
    assert_identical("\n".join(mixed), ledger=ledger)


def test_truncated_lines_identity():
    rng = random.Random(19)
    lines, time = [], 0.0
    for _ in range(500):
        time += rng.random() * 5.0
        line = render_line(rng, time)
        if rng.random() < 0.4:
            line = line[: rng.randrange(len(line))]
        lines.append(line)
    assert_identical("\n".join(lines), ledger=True)


def test_random_bytes_identity():
    rng = random.Random(23)
    blob = bytes(rng.randrange(256) for _ in range(8000)).decode(
        "utf-8", "replace"
    )
    assert_identical(blob, ledger=True)


def test_late_start_identity():
    """A log that opens 13 months into the study resolves its years from
    a cold context in both engines alike."""
    rng = random.Random(29)
    text = clean_corpus(rng, 200, start=400 * 86400.0)
    assert_identical(text, ledger=True)


def test_fault_injected_ledger_equivalence():
    """The repo's own injectors, both paths, identical IngestReports."""
    rng = random.Random(31)
    raw = clean_corpus(rng, 600).encode()
    damaged = inject_garbage_lines(raw, random.Random(1), count=30)
    damaged = truncate_log_lines(damaged, random.Random(2), count=40)
    text = damaged.decode("utf-8", "replace")

    scalar_report, columnar_report = IngestReport(), IngestReport()
    scalar = SyslogCollector.parse_log(text, report=scalar_report)
    columnar = parse_log_columnar(text, report=columnar_report)
    assert scalar == columnar
    assert ledger_json(scalar_report) == ledger_json(columnar_report)


# ------------------------------------------------------------------ fuzz

_line_strategy = st.one_of(
    st.sampled_from(EDGE_LINES),
    st.builds(
        lambda seed, time: render_line(random.Random(seed), time),
        st.integers(0, 2**16),
        st.floats(0.0, 3.0e7, allow_nan=False),
    ),
    st.builds(
        lambda seed, time, cut: (
            lambda line: line[: max(0, int(cut * len(line)))]
        )(render_line(random.Random(seed), time)),
        st.integers(0, 2**16),
        st.floats(0.0, 3.0e7, allow_nan=False),
        st.floats(0.0, 1.0),
    ),
    st.text(max_size=60).map(lambda s: s.replace("\n", " ")),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_line_strategy, max_size=40), ledger=st.booleans())
def test_fuzz_batched_equals_per_line(lines, ledger):
    """Batched parse == per-line reference parse on arbitrary mixes."""
    assert_identical("\n".join(lines), ledger=ledger)


# ----------------------------------------------------------- end to end


@pytest.mark.parametrize("seed", [7, 2013])
def test_analysis_identity_across_engines(seed):
    dataset = run_scenario(ScenarioConfig(seed=seed, duration_days=5.0))
    scalar = run_analysis(dataset, ingest="scalar")
    columnar = run_analysis(dataset, ingest="columnar")
    assert scalar.syslog_failures == columnar.syslog_failures
    assert scalar.isis_failures == columnar.isis_failures
    assert scalar.failure_match.pairs == columnar.failure_match.pairs
    assert scalar.coverage.counts == columnar.coverage.counts
    assert scalar.flap_episodes == columnar.flap_episodes


def damage(dataset):
    """Garbage syslog lines plus one LSP record truncated mid-PDU."""
    lines = dataset.syslog_text.split("\n")
    lines.insert(50, "complete garbage not a syslog line")
    lines.insert(900, "<999>Nov  3 10:00:00.000 rtr1 oops")
    lines.insert(1700, "\x00\x01\x02 binary junk")
    records = list(dataset.lsp_records)
    time, raw = records[30]
    records[30] = (time, raw[: len(raw) // 2])
    return dataclasses.replace(
        dataset, syslog_text="\n".join(lines), lsp_records=records
    )


def test_lenient_damaged_artifacts_identity(small_dataset):
    """Both engines quarantine the same records, and the ledger's
    ``first``/``last`` samples bracket the damage in file order."""
    damaged = damage(small_dataset)
    reports = {"scalar": IngestReport(), "columnar": IngestReport()}
    results = {
        ingest: run_analysis(damaged, report=reports[ingest], ingest=ingest)
        for ingest in reports
    }
    assert analysis_signature(results["columnar"]) == analysis_signature(
        results["scalar"]
    )
    assert ledger_json(reports["columnar"]) == ledger_json(reports["scalar"])
    ledger = reports["scalar"].channels[CHANNEL_SYSLOG]
    assert ledger.dropped == 3
    assert ledger.first.sample == "complete garbage not a syslog line"
    assert ledger.first.index == 51
    assert ledger.last.sample == "\x00\x01\x02 binary junk"
    assert ledger.last.index == 1701
    assert reports["scalar"].dropped() == 4


def test_strict_damaged_artifacts_same_exception(small_dataset):
    records = list(small_dataset.lsp_records)
    time, raw = records[30]
    records[30] = (time, raw[: len(raw) // 2])
    damaged = dataclasses.replace(small_dataset, lsp_records=records)
    raised = {}
    for ingest in ("scalar", "columnar"):
        with pytest.raises(Exception) as error:
            run_analysis(damaged, ingest=ingest)
        raised[ingest] = (type(error.value), str(error.value))
    assert raised["columnar"] == raised["scalar"]


def test_unknown_ingest_rejected():
    dataset = run_scenario(ScenarioConfig(seed=7, duration_days=2.0))
    with pytest.raises(ValueError, match="ingest"):
        run_analysis(dataset, ingest="simd")
