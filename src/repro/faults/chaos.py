"""The chaos harness behind ``repro chaos``.

:func:`run_chaos` replays one seeded measurement campaign under every
injector in :mod:`repro.faults.injectors` and asserts the robustness
invariants the hardened ingestion promises:

* **No unhandled exception.**  Every scenario runs the full lenient
  pipeline over deliberately damaged artifacts; any exception escaping
  it fails the scenario.
* **Every loss is attributed.**  Each record the damage made unreadable
  appears in the drop ledger with a reason, and where the artifact
  allows it, the arithmetic closes exactly (parsed + dropped = original).
* **Degradation is bounded.**  Damage confined to one channel leaves the
  other channel's results byte-identical to the pristine baseline, and
  result drift on the damaged channel is bounded by the number of
  dropped records.
* **Kill-anywhere resume.**  A stream killed at any event boundary and
  resumed from its checkpoint finishes with byte-identical results —
  checked through a real on-disk checkpoint file, in strict mode on the
  pristine dataset and in lenient mode on a damaged one.
* **Corrupt checkpoints fail typed.**  Every corruption mode of the
  checkpoint's frontier file, and a results segment cut or bit-flipped
  inside its committed region, surfaces as :class:`CheckpointError`,
  never a bare decode error or a silent misread; a torn segment tail
  past the committed length resumes byte-identically.

All corruption is derived from the scenario seed via
:func:`repro.util.rand.child_rng`, so a failing run reproduces exactly.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple, get_type_hints

from repro.core.events import FailureEvent, Transition
from repro.core.flapping import FlapEpisode
from repro.core.links import LinkResolver
from repro.core.pipeline import AnalysisResult, run_analysis
from repro.core.report import render_table
from repro.faults.injectors import (
    CHECKPOINT_MODES,
    SEGMENT_MODES,
    _mrt_record_spans,
    bitflip_mrt_payloads,
    corrupt_checkpoint,
    corrupt_mrt_length,
    corrupt_segment,
    inject_garbage_lines,
    truncate_log_lines,
    truncate_mrt,
)
from repro.faults.ledger import CHANNEL_ISIS, CHANNEL_SYSLOG, IngestReport
from repro.simulation.dataset import Dataset
from repro.simulation.scenario import ScenarioConfig, run_scenario
from repro.stream import checkpoint as codec
from repro.stream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    segment_path,
)
from repro.stream.engine import StreamEngine, StreamResult, stream_dataset
from repro.syslog.collector import SyslogCollector
from repro.util.rand import child_rng

#: Damage intensities (lines / records touched per scenario).
GARBAGE_LINES = 10
TRUNCATED_LINES = 10
BITFLIPPED_RECORDS = 6


class _Killed(RuntimeError):
    """Raised by the chaos kill switch at a checkpoint boundary."""


# ------------------------------------------------------ canonical signatures
def _by_field(result: Any) -> Dict[str, Any]:
    """A result dataclass as an object keyed by field name."""
    hints = get_type_hints(type(result))
    return {
        item.name: codec.encode(getattr(result, item.name), hints[item.name])
        for item in fields(result)
    }


def _coverage_document(coverage: Any) -> Dict[str, Any]:
    return {
        "counts": {
            direction: {str(bucket): count for bucket, count in sorted(buckets.items())}
            for direction, buckets in coverage.counts.items()
        },
        "unmatched": codec.encode(coverage.unmatched, List[Transition]),
    }


def analysis_signature(result: AnalysisResult) -> str:
    """Canonical bytes of everything Tables 2–5 are computed from."""
    document = {
        "horizon": [result.horizon_start, result.horizon_end],
        "syslog_sanitized": _by_field(result.syslog_sanitized),
        "isis_sanitized": _by_field(result.isis_sanitized),
        "match": _by_field(result.failure_match),
        "coverage": _coverage_document(result.coverage),
        "flaps": codec.encode(result.flap_episodes, List[FlapEpisode]),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def stream_signature(result: StreamResult) -> str:
    """Canonical bytes of a :class:`StreamResult` (resume identity check)."""
    document = {
        "horizon": [result.horizon_start, result.horizon_end],
        "syslog_raw": codec.encode(result.syslog_failures_raw, List[FailureEvent]),
        "isis_raw": codec.encode(result.isis_failures_raw, List[FailureEvent]),
        "syslog_sanitized": _by_field(result.syslog_sanitized),
        "isis_sanitized": _by_field(result.isis_sanitized),
        "match": _by_field(result.failure_match),
        "coverage": _coverage_document(result.coverage),
        "flaps": codec.encode(result.flap_episodes, List[FlapEpisode]),
        "counters": result.counters,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------ outcomes
@dataclass
class ScenarioOutcome:
    """One chaos scenario's verdict and its audit trail."""

    name: str
    ok: bool = True
    notes: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    drops: int = 0

    def check(self, condition: bool, label: str) -> None:
        """Record one invariant; a false condition fails the scenario."""
        if condition:
            self.notes.append(label)
        else:
            self.ok = False
            self.failures.append(label)


class _Chaos:
    """Shared state of one chaos run: pristine artifacts and baselines."""

    def __init__(self, seed: int, days: float, kill_samples: int, root: Path):
        self.seed = seed
        self.days = days
        self.kill_samples = kill_samples
        self.root = root
        self.pristine_dir = root / "pristine"

        dataset = run_scenario(ScenarioConfig(seed=seed, duration_days=days))
        dataset.save(self.pristine_dir)
        self.network = dataset.network

        # The baseline is the *reloaded* pristine dataset in strict mode,
        # so every comparison below is load-path against load-path.
        self.pristine = Dataset.load(self.pristine_dir, self.network)
        self.baseline = run_analysis(self.pristine)
        self.baseline_signature = analysis_signature(self.baseline)
        self.baseline_entries = len(
            SyslogCollector.parse_log(self.pristine.syslog_text)
        )
        self.baseline_records = len(self.pristine.lsp_records)
        self._stream_baseline: Optional[StreamResult] = None

    def rng(self, label: str):
        return child_rng(self.seed, f"chaos:{label}")

    @property
    def stream_baseline(self) -> StreamResult:
        if self._stream_baseline is None:
            self._stream_baseline = stream_dataset(self.pristine)
        return self._stream_baseline

    def damaged(
        self, name: str, mutations: Dict[str, Callable[[bytes], bytes]]
    ) -> Tuple[Path, Dataset, IngestReport]:
        """Copy the pristine campaign, corrupt named files, reload lenient."""
        directory = self.root / name
        if directory.exists():
            shutil.rmtree(directory)
        shutil.copytree(self.pristine_dir, directory)
        for filename, mutate in mutations.items():
            path = directory / filename
            path.write_bytes(mutate(path.read_bytes()))
        report = IngestReport()
        dataset = Dataset.load(
            directory, self.network, strict=False, report=report
        )
        return directory, dataset, report

    def lenient_entry_count(self, dataset: Dataset) -> int:
        return len(
            SyslogCollector.parse_log(
                dataset.syslog_text, strict=False, report=IngestReport()
            )
        )


# ----------------------------------------------------------------- scenarios
def _scenario_clean_identity(chaos: _Chaos) -> ScenarioOutcome:
    """With no injector, lenient mode must be byte-identical to strict."""
    outcome = ScenarioOutcome("clean-identity")
    report = IngestReport()
    dataset = Dataset.load(
        chaos.pristine_dir, chaos.network, strict=False, report=report
    )
    result = run_analysis(dataset, strict=False, report=report)
    outcome.check(not report, "ledger empty on pristine artifacts")
    outcome.check(
        analysis_signature(result) == chaos.baseline_signature,
        "lenient results byte-identical to strict",
    )
    return outcome


def _scenario_syslog_garbage(chaos: _Chaos) -> ScenarioOutcome:
    outcome = ScenarioOutcome("syslog-garbage")
    rng = chaos.rng("syslog-garbage")
    _, dataset, report = chaos.damaged(
        "syslog-garbage",
        {"syslog.log": lambda raw: inject_garbage_lines(raw, rng, GARBAGE_LINES)},
    )
    result = run_analysis(dataset, strict=False, report=report)
    drops = outcome.drops = report.dropped(CHANNEL_SYSLOG)
    outcome.check(
        1 <= drops <= GARBAGE_LINES,
        f"{drops} of {GARBAGE_LINES} garbage lines quarantined",
    )
    outcome.check(report.dropped(CHANNEL_ISIS) == 0, "IS-IS channel untouched")
    outcome.check(
        chaos.lenient_entry_count(dataset) == chaos.baseline_entries,
        "every real log line still parses",
    )
    outcome.check(
        analysis_signature(result) == chaos.baseline_signature,
        "results byte-identical to baseline",
    )
    return outcome


def _scenario_syslog_truncate(chaos: _Chaos) -> ScenarioOutcome:
    outcome = ScenarioOutcome("syslog-truncate")
    rng = chaos.rng("syslog-truncate")
    _, dataset, report = chaos.damaged(
        "syslog-truncate",
        {"syslog.log": lambda raw: truncate_log_lines(raw, rng, TRUNCATED_LINES)},
    )
    result = run_analysis(dataset, strict=False, report=report)
    drops = outcome.drops = report.dropped(CHANNEL_SYSLOG)
    entries = chaos.lenient_entry_count(dataset)
    outcome.check(
        entries + drops == chaos.baseline_entries,
        f"loss fully attributed: {entries} parsed + {drops} dropped "
        f"= {chaos.baseline_entries} original lines",
    )
    known = {"malformed-line", "bad-timestamp", "pri-out-of-range"}
    outcome.check(
        set(report.reasons(CHANNEL_SYSLOG)) <= known,
        "every drop carries a typed reason",
    )
    delta = abs(len(result.syslog_failures) - len(chaos.baseline.syslog_failures))
    outcome.check(
        delta <= drops,
        f"syslog failure drift {delta} bounded by {drops} dropped lines",
    )
    outcome.check(
        json.dumps(codec.encode(result.isis_sanitized))
        == json.dumps(codec.encode(chaos.baseline.isis_sanitized)),
        "IS-IS results byte-identical to baseline",
    )
    return outcome


def _scenario_mrt_damage(
    chaos: _Chaos,
    name: str,
    mutate: Callable[[bytes], bytes],
    cut_reasons: set,
) -> ScenarioOutcome:
    """Shared body of the two unresynchronisable-archive scenarios."""
    outcome = ScenarioOutcome(name)
    directory, dataset, report = chaos.damaged(name, {"isis.dump": mutate})
    result = run_analysis(dataset, strict=False, report=report)
    drops = outcome.drops = report.dropped(CHANNEL_ISIS)
    salvageable = len(_mrt_record_spans((directory / "isis.dump").read_bytes()))
    lost = chaos.baseline_records - len(dataset.lsp_records)
    outcome.check(
        drops == 1 and set(report.reasons(CHANNEL_ISIS)) <= cut_reasons,
        f"cut recorded once ({', '.join(sorted(report.reasons(CHANNEL_ISIS)))})",
    )
    ledger = report.channel(CHANNEL_ISIS)
    outcome.check(
        ledger.first is not None and ledger.first.offset is not None,
        "cut carries its byte offset",
    )
    outcome.check(
        len(dataset.lsp_records) == salvageable and lost > 0,
        f"valid prefix salvaged: {len(dataset.lsp_records)} of "
        f"{chaos.baseline_records} records",
    )
    delta = abs(len(result.isis_failures) - len(chaos.baseline.isis_failures))
    outcome.check(
        delta <= lost,
        f"IS-IS failure drift {delta} bounded by {lost} lost records",
    )
    outcome.check(
        json.dumps(codec.encode(result.syslog_sanitized))
        == json.dumps(codec.encode(chaos.baseline.syslog_sanitized)),
        "syslog results byte-identical to baseline",
    )
    return outcome


def _scenario_mrt_bitflip(chaos: _Chaos) -> ScenarioOutcome:
    outcome = ScenarioOutcome("mrt-bitflip")
    rng = chaos.rng("mrt-bitflip")
    _, dataset, report = chaos.damaged(
        "mrt-bitflip",
        {
            "isis.dump": lambda raw: bitflip_mrt_payloads(
                raw, rng, BITFLIPPED_RECORDS
            )
        },
    )
    result = run_analysis(dataset, strict=False, report=report)
    outcome.check(
        len(dataset.lsp_records) == chaos.baseline_records,
        "framing intact: every record still loads",
    )
    drops = outcome.drops = report.dropped(CHANNEL_ISIS)
    outcome.check(
        1 <= drops <= BITFLIPPED_RECORDS
        and set(report.reasons(CHANNEL_ISIS)) == {"lsp-decode"},
        f"{drops} of {BITFLIPPED_RECORDS} flipped records rejected as lsp-decode",
    )
    ledger = report.channel(CHANNEL_ISIS)
    outcome.check(
        ledger.first is not None and ledger.first.index is not None,
        "rejections carry record indexes",
    )
    outcome.check(
        json.dumps(codec.encode(result.syslog_sanitized))
        == json.dumps(codec.encode(chaos.baseline.syslog_sanitized)),
        "syslog results byte-identical to baseline",
    )
    return outcome


def _scenario_checkpoint_corrupt(chaos: _Chaos) -> ScenarioOutcome:
    outcome = ScenarioOutcome("checkpoint-corrupt")
    rng = chaos.rng("checkpoint-corrupt")
    total = chaos.stream_baseline.counters["events"]
    path = chaos.root / "engine.ckpt"

    def save_and_kill(engine: StreamEngine) -> None:
        save_checkpoint(str(path), engine)
        raise _Killed()

    try:
        stream_dataset(
            chaos.pristine,
            checkpoint_at=[max(1, total // 2)],
            on_checkpoint=save_and_kill,
        )
    except _Killed:
        pass
    pristine_ckpt = path.read_bytes()

    state = load_checkpoint(str(path))
    resolver = LinkResolver(chaos.pristine.inventory)
    StreamEngine.restore(
        state, resolver, chaos.pristine.listener_outages, chaos.pristine.tickets
    )
    outcome.notes.append("intact checkpoint loads and restores")

    def damaged(mode: str) -> None:
        try:
            damaged_state = load_checkpoint(str(path))
            StreamEngine.restore(
                damaged_state,
                resolver,
                chaos.pristine.listener_outages,
                chaos.pristine.tickets,
            )
        except CheckpointError as error:
            outcome.drops += 1
            outcome.check(
                bool(str(error)),
                f"{mode}: typed CheckpointError ({str(error)[:60]}...)",
            )
        else:
            outcome.check(False, f"{mode}: corruption loaded without error")

    for mode in CHECKPOINT_MODES:
        path.write_bytes(corrupt_checkpoint(pristine_ckpt, rng, mode))
        damaged(mode)
    path.write_bytes(pristine_ckpt)

    # The results segment: a torn tail past the committed length (a kill
    # between append and rename) must resume byte-identically; damage
    # inside the committed region must fail typed.
    segment = Path(segment_path(str(path)))
    pristine_segment = segment.read_bytes()
    committed = state["segment"]["length"]
    expected = stream_signature(chaos.stream_baseline)
    for mode in SEGMENT_MODES:
        segment.write_bytes(
            corrupt_segment(pristine_segment, committed, rng, mode)
        )
        if mode != "tail":
            damaged(f"segment-{mode}")
            continue
        resumed = stream_dataset(
            chaos.pristine, resume_state=load_checkpoint(str(path))
        )
        outcome.check(
            stream_signature(resumed) == expected,
            "segment-tail: torn tail ignored, resume byte-identical",
        )
    return outcome


def _kill_points(total: int, samples: int) -> List[int]:
    """Event boundaries to kill at: evenly spread, always including the
    first boundary and the final one."""
    if total <= samples:
        return list(range(1, total + 1))
    step = total / samples
    points = {1, total}
    for i in range(1, samples):
        points.add(max(1, round(i * step)))
    return sorted(points)


def _resume_identical(
    dataset: Dataset,
    kill_at: int,
    path: Path,
    expected_signature: str,
    *,
    strict: bool = True,
) -> Tuple[bool, int]:
    """Kill one stream run at ``kill_at`` via a real checkpoint file and
    resume it; returns (signatures match, lenient drops after resume)."""

    def save_and_kill(engine: StreamEngine) -> None:
        save_checkpoint(str(path), engine)
        raise _Killed()

    report = None if strict else IngestReport()
    try:
        stream_dataset(
            dataset,
            checkpoint_at=[kill_at],
            on_checkpoint=save_and_kill,
            strict=strict,
            report=report,
        )
    except _Killed:
        pass
    resume_report = None if strict else IngestReport()
    resumed = stream_dataset(
        dataset,
        resume_state=load_checkpoint(str(path)),
        strict=strict,
        report=resume_report,
    )
    drops = resume_report.dropped() if resume_report is not None else 0
    return stream_signature(resumed) == expected_signature, drops


def _scenario_kill_resume(chaos: _Chaos) -> ScenarioOutcome:
    outcome = ScenarioOutcome("kill-resume")
    baseline = chaos.stream_baseline
    total = baseline.counters["events"]
    signature = stream_signature(baseline)
    path = chaos.root / "kill.ckpt"

    points = _kill_points(total, chaos.kill_samples)
    for kill_at in points:
        identical, _ = _resume_identical(chaos.pristine, kill_at, path, signature)
        outcome.check(
            identical, f"kill at event {kill_at}/{total}: resume byte-identical"
        )

    # The same guarantee must hold for a lenient stream over a damaged
    # archive — and the resumed run, which re-reads from byte zero, must
    # rebuild the *full* drop ledger, not just the post-kill tail.
    rng = chaos.rng("kill-resume-damage")
    _, damaged, report = chaos.damaged(
        "kill-resume",
        {
            "isis.dump": lambda raw: bitflip_mrt_payloads(
                raw, rng, BITFLIPPED_RECORDS
            )
        },
    )
    full_report = IngestReport()
    damaged_full = stream_dataset(damaged, strict=False, report=full_report)
    damaged_total = damaged_full.counters["events"]
    identical, resumed_drops = _resume_identical(
        damaged,
        max(1, damaged_total // 2),
        path,
        stream_signature(damaged_full),
        strict=False,
    )
    outcome.drops = resumed_drops
    outcome.check(identical, "lenient resume on damaged archive byte-identical")
    outcome.check(
        resumed_drops == full_report.dropped() and resumed_drops > 0,
        f"resumed run rebuilds the full ledger ({resumed_drops} drops)",
    )
    return outcome


# ------------------------------------------------------------------- driver
def run_chaos(
    seed: int = 2013,
    days: float = 10.0,
    *,
    kill_samples: int = 6,
    out: TextIO = sys.stdout,
    work_dir: Optional[Path] = None,
    only: Optional[str] = None,
) -> int:
    """Run every chaos scenario; returns a process exit code (0 = all ok).

    ``only`` restricts the run to scenarios whose name starts with the
    given prefix (``only="service-"`` is CI's live-service smoke job).
    """
    own_dir = work_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        if own_dir
        else Path(work_dir)
    )
    try:
        return _run_scenarios(seed, days, kill_samples, root, out, only)
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)


def _run_scenarios(
    seed: int,
    days: float,
    kill_samples: int,
    root: Path,
    out: TextIO,
    only: Optional[str] = None,
) -> int:
    print(
        f"chaos: seed={seed} days={days:g} — simulating pristine campaign",
        file=out,
    )
    chaos = _Chaos(seed, days, kill_samples, root)
    print(
        f"chaos: baseline {chaos.baseline_entries} log lines, "
        f"{chaos.baseline_records} LSP records",
        file=out,
    )

    scenarios: List[Tuple[str, Callable[[_Chaos], ScenarioOutcome]]] = [
        ("clean-identity", _scenario_clean_identity),
        ("syslog-garbage", _scenario_syslog_garbage),
        ("syslog-truncate", _scenario_syslog_truncate),
        (
            "mrt-truncate",
            lambda c: _scenario_mrt_damage(
                c,
                "mrt-truncate",
                lambda raw: truncate_mrt(raw, c.rng("mrt-truncate")),
                {"truncated-header", "truncated-payload"},
            ),
        ),
        ("mrt-bitflip", _scenario_mrt_bitflip),
        (
            "mrt-badlength",
            lambda c: _scenario_mrt_damage(
                c,
                "mrt-badlength",
                lambda raw: corrupt_mrt_length(raw, c.rng("mrt-badlength")),
                {"oversize-record"},
            ),
        ),
        ("checkpoint-corrupt", _scenario_checkpoint_corrupt),
        ("kill-resume", _scenario_kill_resume),
    ]
    # The live-service scenarios spawn real sockets and worker processes;
    # the import is deferred so batch-only chaos runs never pay for it
    # (and so repro.faults keeps no hard dependency on repro.service).
    from repro.service.chaos import service_scenarios

    scenarios.extend(service_scenarios())
    if only is not None:
        scenarios = [
            entry for entry in scenarios if entry[0].startswith(only)
        ]
        if not scenarios:
            print(f"chaos: no scenario matches prefix {only!r}", file=out)
            return 1

    outcomes: List[ScenarioOutcome] = []
    for name, scenario in scenarios:
        try:
            outcome = scenario(chaos)
        except Exception as error:  # the one invariant every scenario shares
            outcome = ScenarioOutcome(name, ok=False)
            outcome.failures.append(
                f"unhandled {type(error).__name__}: {error}"
            )
        outcomes.append(outcome)
        status = "ok" if outcome.ok else "FAIL"
        print(f"chaos: {outcome.name}: {status}", file=out)
        for note in outcome.notes:
            print(f"  + {note}", file=out)
        for failure in outcome.failures:
            print(f"  ! {failure}", file=out)

    print(file=out)
    print(
        render_table(
            ["Scenario", "Verdict", "Ledger drops", "Checks"],
            [
                [
                    o.name,
                    "ok" if o.ok else "FAIL",
                    str(o.drops),
                    f"{len(o.notes)}/{len(o.notes) + len(o.failures)}",
                ]
                for o in outcomes
            ],
            title="Chaos scenarios",
        ),
        file=out,
    )
    return 0 if all(o.ok for o in outcomes) else 1
