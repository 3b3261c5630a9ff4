"""The three benchmark workloads: inputs, one repetition, output checks.

Every workload builds its inputs from the seed with the program's own
generators and loaders (the functions in ``SETUPS``), exposes one closed-loop
repetition (``Prepared.run``) and, for ``service-replay``, an open-loop
repetition at a fixed offered rate (``Prepared.open_loop``).  Output
checks run outside every timed region: ``Prepared.check`` compares the
first output against an independent analysis path over the same input, and
``Prepared.digest`` pins every later repetition to that output.

Inputs are cut to a fixed number of records (see :func:`cut_campaign`)
rather than a fixed number of days, because campaign size per day varies
by about 15% between seeds while the benchmark compares runs made with
different seeds.  A fixed feed length also fixes where the service's
checkpoints fall.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Dataset, ScenarioConfig, run_analysis, run_scenario
from repro.faults.chaos import analysis_signature, stream_signature
from repro.fleet import build_network, preset, write_corpus
from repro.service.framing import FrameError, TcpFrameDecoder, encode_octet_counted
from repro.service.profile import load_tenant_context
from repro.service.supervisor import Service, TenantConfig
from repro.service.worker import TenantPipeline
from repro.stream import stream_dataset
from repro.stream.checkpoint import save_checkpoint
from repro.stream.sources import LogTailer
from repro.syslog.collector import SyslogCollector

WORKLOADS = ("campaign-batch", "fleet-columnar", "service-replay")

#: Records kept per campaign: syslog lines plus LSP records.
CAMPAIGN_RECORDS = 6000
#: Syslog lines in the service feed: two checkpoints at the default
#: 2000-event interval, the last one 1000 lines before the end.  Short
#: enough for a 30-second run to hold a dozen repetitions of each loop.
SERVICE_LINES = 5000
#: First campaign length tried; grown until a seed yields enough records.
CAMPAIGN_DAYS = 21.0
SERVICE_DAYS = 32.0
#: ``repro.fleet`` corpus: the ``small`` preset widened to 160 routers.
FLEET_PODS = 40
FLEET_DAYS = 10.0
#: Bytes handed to the frame decoder per call: the size of the
#: supervisor's ``recv`` on a tenant's TCP connection
#: (``Service._read_conn``).
RECV_BYTES = 65536
#: Open-loop offered rate on ``service-replay`` (lines/s), about half the
#: closed-loop capacity measured at the parent commit.
OPEN_LOOP_RATE = 4000.0
#: ``prctl`` option that sets the calling thread's timer slack (Linux).
PR_SET_TIMERSLACK = 29


def _punctual_sleep() -> None:
    """Let ``time.sleep`` wake on time.

    Linux lets a sleeping thread wake up to its timer slack late, 50 us
    by default.  The open-loop generator would then send every line that
    late, and that fixed delay would sit in every latency sample.  A slack
    of 1 ns makes the generator punctual; elsewhere this is a no-op.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def _span(tracer: Any, name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class JournalSink:
    """The part of a supervisor's tenant runtime its journal writer uses."""

    journal_handle: Any
    journal_lines: int = 0
    journal_bytes: int = 0


@dataclass
class Prepared:
    """One workload's inputs and the operations measured on them."""

    workload: str
    records: int
    sizes: Dict[str, int]
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], List[str]]
    #: Headline counts of an output, recorded with the digest per seed.
    findings: Callable[[Any], Dict[str, int]]
    #: ``open_loop(rate)`` -> (output, per-line latencies s, send lateness s).
    open_loop: Optional[Callable[[float], Tuple[Any, List[float], List[float]]]] = None
    #: Records an output lost (dropped, shed or late); 0 on clean input.
    lost: Callable[[Any], int] = field(default=lambda output: 0)


def cut_campaign(dataset: Dataset, records: int, count_lsps: bool) -> Optional[Dataset]:
    """The campaign as captured until it holds ``records`` records.

    Records are syslog lines, plus LSP records when ``count_lsps``.  The
    horizon ends at the time of the ``records``-th record and both
    channels are cut there, so they cover the same span.  ``None`` when
    the campaign is too short.
    """
    lines = [line for line in dataset.syslog_text.split("\n") if line.strip()]
    line_times = [entry.generated_time for entry in SyslogCollector.parse_log(dataset.syslog_text)]
    times = line_times + ([stamp for stamp, _ in dataset.lsp_records] if count_lsps else [])
    if len(times) < records:
        return None
    horizon = sorted(times)[records - 1]
    kept = [line for line, stamp in zip(lines, line_times) if stamp <= horizon]
    return dataclasses.replace(
        dataset,
        syslog_text="".join(f"{line}\n" for line in kept),
        lsp_records=[record for record in dataset.lsp_records if record[0] <= horizon],
        horizon_end=horizon,
        summary=None,
    )


def _campaign(seed: int, days: float, records: int, count_lsps: bool, tracer: Any) -> Dataset:
    """A seed's CENIC-shaped campaign, cut to ``records`` records."""
    while True:
        with _span(tracer, "simulation.scenario"):
            dataset = cut_campaign(
                run_scenario(ScenarioConfig(seed=seed, duration_days=days)), records, count_lsps
            )
        if dataset is not None:
            return dataset
        days *= 1.5


def _dataset_sizes(dataset: Dataset) -> Dict[str, int]:
    lines = sum(1 for line in dataset.syslog_text.split("\n") if line.strip())
    return {
        "syslog_lines": lines,
        "lsp_records": len(dataset.lsp_records),
        "records": lines + len(dataset.lsp_records),
        "bytes": len(dataset.syslog_text.encode("utf-8"))
        + sum(len(raw) for _, raw in dataset.lsp_records),
        "routers": len(dataset.network.routers),
        "links": len(dataset.network.links),
    }


def _analysis_findings(result: Any) -> Dict[str, int]:
    return {
        "syslog_failures": len(result.syslog_failures),
        "isis_failures": len(result.isis_failures),
        "matched_pairs": result.failure_match.matched_count,
        "flap_episodes": len(result.flap_episodes),
    }


def _same_failures(label: str, mine: Any, theirs: Any) -> List[str]:
    return [] if mine == theirs else [f"{label} differ"]


def _same_sanitization(label: str, mine: Any, theirs: Any) -> List[str]:
    problems = []
    for attr in ("kept", "removed_listener_overlap", "removed_unverified_long", "verified_long"):
        if getattr(mine, attr) != getattr(theirs, attr):
            problems.append(f"{label} sanitisation {attr} differs")
    return problems


# ------------------------------------------------------------ campaign-batch
def setup_campaign(seed: int, workdir: Path, tracer: Any = None) -> Prepared:
    """``run_analysis`` (jobs=1, scalar ingest) on a seed's campaign."""
    dataset = _campaign(seed, CAMPAIGN_DAYS, CAMPAIGN_RECORDS, True, tracer)
    sizes = _dataset_sizes(dataset)

    def check(result: Any) -> List[str]:
        stream = stream_dataset(dataset)
        return (
            _same_failures("syslog failures", stream.syslog_failures_raw, result.syslog.failures)
            + _same_failures("IS-IS failures", stream.isis_failures_raw, result.isis.failures)
            + _same_sanitization("syslog", stream.syslog_sanitized, result.syslog_sanitized)
            + _same_sanitization("IS-IS", stream.isis_sanitized, result.isis_sanitized)
            + _same_failures("flap episodes", stream.flap_episodes, result.flap_episodes)
            + _same_failures("matched pairs", stream.failure_match.pairs, result.failure_match.pairs)
        )

    return Prepared(
        workload="campaign-batch",
        records=sizes["records"],
        sizes=sizes,
        run=lambda: run_analysis(dataset),
        digest=lambda result: _digest(analysis_signature(result)),
        check=check,
        findings=_analysis_findings,
    )


# ------------------------------------------------------------ fleet-columnar
def setup_fleet(seed: int, workdir: Path, tracer: Any = None) -> Prepared:
    """``run_analysis(ingest="columnar")`` on a generated fleet corpus."""
    spec = preset("small", seed=seed, pods=FLEET_PODS, duration_days=FLEET_DAYS)
    corpus = workdir / "fleet"
    with _span(tracer, "fleet.generate"):
        write_corpus(spec, corpus, dataset=True)
        network = build_network(spec)
    with _span(tracer, "simulation.dataset_load"):
        dataset = Dataset.load(corpus, network)
    sizes = _dataset_sizes(dataset)

    def check(result: Any) -> List[str]:
        scalar = analysis_signature(run_analysis(dataset, ingest="scalar"))
        return [] if scalar == analysis_signature(result) else ["columnar differs from scalar ingest"]

    return Prepared(
        workload="fleet-columnar",
        records=sizes["records"],
        sizes=sizes,
        run=lambda: run_analysis(dataset, ingest="columnar"),
        digest=lambda result: _digest(analysis_signature(result)),
        check=check,
        findings=_analysis_findings,
    )


# ------------------------------------------------------------ service-replay
@dataclass
class TenantOutcome:
    """What one replay of the tenant feed produced."""

    result: Any
    lines_seen: int
    drops: int
    frame_errors: int


def setup_service(seed: int, workdir: Path, tracer: Any = None) -> Prepared:
    """One tenant's feed through frame decode, journal, tail and pipeline."""
    dataset = _campaign(seed, SERVICE_DAYS, SERVICE_LINES, False, tracer)
    profile = workdir / "profile"
    with _span(tracer, "service.profile"):
        dataset.save(profile)
        context = load_tenant_context("bench", profile)
    lines = [line for line in dataset.syslog_text.split("\n") if line.strip()]
    frames = [encode_octet_counted(line) for line in lines]
    feed = b"".join(frames)
    frame_ends = list(itertools.accumulate(len(frame) for frame in frames))
    checkpoint_every = TenantConfig(name="bench", profile_dir=str(profile)).checkpoint_every
    state = workdir / "state"
    state.mkdir(exist_ok=True)
    journal_path = state / "journal.log"
    checkpoint_path = str(state / "checkpoint.json")
    sizes = _dataset_sizes(dataset)
    sizes.update(records=len(lines), bytes=len(feed), frames=len(lines))

    def fresh() -> Tuple[TcpFrameDecoder, LogTailer, TenantPipeline]:
        for path in (journal_path, Path(checkpoint_path)):
            if path.exists():
                path.unlink()
        return TcpFrameDecoder(), LogTailer(journal_path), TenantPipeline(context)

    def replay(sends: Callable[[], Any], on_line: Callable[[], None]) -> TenantOutcome:
        """Drive the tenant; ``sends`` yields byte ranges as they come due."""
        decoder, tailer, pipeline = fresh()
        errors = 0
        last_checkpoint = 0
        with open(journal_path, "ab") as journal:
            sink = JournalSink(journal)
            for start, stop in sends():
                for offset in range(start, stop, RECV_BYTES):
                    items = decoder.feed(feed[offset:min(offset + RECV_BYTES, stop)])
                    delivered = [item for item in items if not isinstance(item, FrameError)]
                    errors += len(items) - len(delivered)
                    if delivered:
                        # The supervisor's own journal writer; it reads no
                        # supervisor state, only the sink.
                        Service._journal(None, sink, delivered)
                    for line in tailer.poll():
                        pipeline.feed_line(line)
                        on_line()
                        consumed = pipeline.engine.events_consumed
                        if consumed - last_checkpoint >= checkpoint_every:
                            save_checkpoint(checkpoint_path, pipeline.engine)
                            last_checkpoint = consumed
            errors += len(decoder.close())
        result = pipeline.finish()
        return TenantOutcome(result, pipeline.lines_seen, pipeline.report.dropped(), errors)

    def closed_loop() -> TenantOutcome:
        return replay(lambda: [(0, len(feed))], lambda: None)

    def open_loop(rate: float) -> Tuple[TenantOutcome, List[float], List[float]]:
        """Frames sent on a fixed schedule; latency runs from each due time."""
        _punctual_sleep()
        clock = time.perf_counter
        latencies: List[float] = []
        lateness: List[float] = []
        start = clock() + 0.01
        total = len(frame_ends)

        def sends() -> Any:
            sent = 0
            while sent < total:
                now = clock()
                due = min(total, int((now - start) * rate) + 1) if now >= start else 0
                if due <= sent:
                    time.sleep(max(0.0, start + sent / rate - now))
                    continue
                lateness.extend(now - (start + index / rate) for index in range(sent, due))
                first = frame_ends[sent - 1] if sent else 0
                yield first, frame_ends[due - 1]
                sent = due

        def on_line() -> None:
            latencies.append(clock() - (start + len(latencies) / rate))

        outcome = replay(sends, on_line)
        return outcome, latencies, lateness

    def check(outcome: TenantOutcome) -> List[str]:
        batch = run_analysis(dataset)
        problems = _same_failures(
            "syslog failures", outcome.result.syslog_failures_raw, batch.syslog.failures
        ) + _same_sanitization("syslog", outcome.result.syslog_sanitized, batch.syslog_sanitized)
        if outcome.lines_seen != len(lines):
            problems.append(f"tenant saw {outcome.lines_seen} of {len(lines)} lines")
        if outcome.drops or outcome.frame_errors:
            problems.append(f"{outcome.drops} drops, {outcome.frame_errors} frame errors")
        return problems

    return Prepared(
        workload="service-replay",
        records=len(lines),
        sizes=sizes,
        run=closed_loop,
        digest=lambda outcome: _digest(stream_signature(outcome.result)),
        check=check,
        findings=lambda outcome: {
            "syslog_failures": len(outcome.result.syslog_failures),
            "events": outcome.result.counters["events"],
        },
        open_loop=open_loop,
        lost=lambda outcome: outcome.drops + outcome.frame_errors
        + max(0, len(lines) - outcome.lines_seen),
    )


SETUPS = {
    "campaign-batch": setup_campaign,
    "fleet-columnar": setup_fleet,
    "service-replay": setup_service,
}
