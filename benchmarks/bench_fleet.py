"""Columnar ingest vs the scalar parser on a fleet-scale corpus.

Not a paper table: this bench characterises the two halves of the fleet
subsystem together.  ``repro.fleet`` streams a 10k-router, 30-day corpus
to disk; ``repro.columnar`` must then ingest it at least **10x** faster
than the scalar reference parser — a floor asserted *unconditionally*,
because vectorisation needs no extra cores — while producing identical
results.  Identity is asserted in the same run, three ways:

* **value digest** — every parsed entry of the benchmark corpus, hashed
  on both paths and compared;
* **drop ledgers** — a fault-injected copy of a corpus slice (truncated
  lines, binary garbage, bad timestamps) parsed leniently on both paths
  must yield byte-identical ``IngestReport`` JSON;
* **end-to-end** — ``run_analysis(ingest="columnar")`` must equal the
  sequential scalar run, findings for findings, on scenario seeds 7 and
  2013.

Timing protocol (the ``warm_heap`` flag in the output): one untimed
columnar parse first, its result freed, so neither timed parse pays
first-touch page faults; each timed parse is digested and freed before
the next starts, so neither holds the other's two million entries.
Each engine is timed twice and the fastest repetition wins (the
standard noise estimator), on two clocks: wall time, and process CPU
time.  The floor is asserted on the **CPU-time** ratio — both parsers
are single-threaded, so CPU time is the work actually done and is
immune to noisy-neighbour descheduling that can stretch either leg's
wall clock on shared hosts; both ratios are reported.

Results land in ``BENCH_fleet.json`` at the repo root (and a text table
under ``benchmarks/results/``) so CI can archive them.

Usage::

    python benchmarks/bench_fleet.py           # fleet preset, ~5 min
    python benchmarks/bench_fleet.py --quick   # CI smoke, tiny corpus
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from _bench_utils import emit  # noqa: E402
from repro import ScenarioConfig, run_analysis, run_scenario  # noqa: E402
from repro.columnar import (  # noqa: E402
    COLUMNAR_AVAILABLE,
    parse_log_columnar,
)
from repro.faults.ledger import IngestReport  # noqa: E402
from repro.fleet import preset, write_corpus  # noqa: E402
from repro.syslog.collector import SyslogCollector  # noqa: E402

SPEEDUP_FLOOR = 10.0
SCENARIO_SEEDS = (7, 2013)
TIMED_REPS = 2


def _timed_parses(parse, text):
    """Best-of-N wall and CPU seconds for ``parse(text)``, plus the last
    parse's digest and entry count (every repetition is freed before the
    next starts)."""
    best_wall = best_cpu = float("inf")
    digest = None
    entries = 0
    for _ in range(TIMED_REPS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        parsed = parse(text)
        wall, cpu = (
            time.perf_counter() - wall0,
            time.process_time() - cpu0,
        )
        best_wall = min(best_wall, wall)
        best_cpu = min(best_cpu, cpu)
        digest = _digest(parsed)
        entries = len(parsed)
        del parsed
    return best_wall, best_cpu, digest, entries


def _digest(entries) -> str:
    """Value-based digest of a parse (identity-blind, unlike pickle)."""
    h = hashlib.sha256()
    for entry in entries:
        h.update(repr(entry).encode())
        h.update(b"\n")
    return h.hexdigest()


def _ledger_json(report: IngestReport) -> str:
    payload = report.to_json() if hasattr(report, "to_json") else report.__dict__
    return json.dumps(payload, default=str, sort_keys=True)


def _fault_inject(text: str, seed: int = 13) -> str:
    """Damage a corpus the way broken collectors do."""
    rng = random.Random(seed)
    lines = text.splitlines()
    for i in range(len(lines)):
        roll = rng.random()
        if roll < 0.05:
            lines[i] = lines[i][: rng.randrange(max(1, len(lines[i])))]
        elif roll < 0.08:
            lines[i] = bytes(
                rng.randrange(256) for _ in range(rng.randrange(5, 40))
            ).decode("utf-8", "replace")
        elif roll < 0.10:
            lines[i] = lines[i].replace(":", ";", 1)
    return "\n".join(lines)


def _ledgers_identical(text: str) -> bool:
    scalar_report, columnar_report = IngestReport(), IngestReport()
    scalar = SyslogCollector.parse_log(
        text, report=scalar_report
    )
    columnar = parse_log_columnar(
        text, report=columnar_report
    )
    return scalar == columnar and _ledger_json(
        scalar_report
    ) == _ledger_json(columnar_report)


def _analysis_identical(seed: int, days: float) -> bool:
    dataset = run_scenario(ScenarioConfig(seed=seed, duration_days=days))
    scalar = run_analysis(dataset, ingest="scalar")
    columnar = run_analysis(dataset, ingest="columnar")
    return (
        scalar.syslog_failures == columnar.syslog_failures
        and scalar.isis_failures == columnar.isis_failures
        and scalar.failure_match.pairs == columnar.failure_match.pairs
        and scalar.coverage.counts == columnar.coverage.counts
        and scalar.flap_episodes == columnar.flap_episodes
    )


def run_bench(quick: bool, scenario_days: float) -> dict:
    spec = (
        preset("tiny", chatter_per_router_day=2000.0)
        if quick
        else preset("fleet")
    )

    with tempfile.TemporaryDirectory(prefix="bench_fleet_") as tmp:
        started = time.perf_counter()
        counters = write_corpus(spec, tmp)
        generate_seconds = time.perf_counter() - started
        text = (Path(tmp) / "syslog.log").read_text(encoding="utf-8")

    warm = parse_log_columnar(text)
    del warm

    scalar_seconds, scalar_cpu, scalar_digest, entry_count = _timed_parses(
        SyslogCollector.parse_log, text
    )
    columnar_seconds, columnar_cpu, columnar_digest, _ = _timed_parses(
        parse_log_columnar, text
    )

    # Identity leg 2: drop ledgers on a damaged slice of the same corpus.
    slice_text = text[: min(len(text), 4_000_000)]
    ledgers_ok = _ledgers_identical(_fault_inject(slice_text))
    del text

    # Identity leg 3: end-to-end analysis on the scenario seeds.
    analysis_ok = {
        seed: _analysis_identical(seed, scenario_days)
        for seed in SCENARIO_SEEDS
    }

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - columnar falls back to scalar
        numpy_version = None

    return {
        "preset": spec.preset,
        "quick": quick,
        "routers": counters.routers,
        "links": counters.links,
        "failures": counters.failures,
        "corpus_lines": counters.syslog_lines,
        "lsp_records": counters.lsp_records,
        "parsed_entries": entry_count,
        "generate_seconds": round(generate_seconds, 3),
        "timed_reps": TIMED_REPS,
        "scalar_seconds": round(scalar_seconds, 3),
        "scalar_cpu_seconds": round(scalar_cpu, 3),
        "columnar_seconds": round(columnar_seconds, 3),
        "columnar_cpu_seconds": round(columnar_cpu, 3),
        "speedup_wall": round(scalar_seconds / columnar_seconds, 3),
        "speedup": round(scalar_cpu / columnar_cpu, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": not quick and COLUMNAR_AVAILABLE,
        "digest_identical": scalar_digest == columnar_digest,
        "ledgers_identical": ledgers_ok,
        "analysis_identical": analysis_ok,
        "warm_heap": True,
        "columnar_available": COLUMNAR_AVAILABLE,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "cores": cores,
        },
    }


def render(result: dict) -> str:
    host = result["host"]
    lines = [
        "bench_fleet — columnar ingest vs scalar on a fleet corpus",
        f"  corpus          preset {result['preset']}: "
        f"{result['routers']:,} routers, {result['links']:,} links, "
        f"{result['corpus_lines']:,} lines, "
        f"{result['lsp_records']:,} LSP records",
        f"  generate        {result['generate_seconds']:.1f} s (streamed)",
        f"  scalar ingest   {result['scalar_seconds']:.2f} s wall / "
        f"{result['scalar_cpu_seconds']:.2f} s cpu "
        f"(best of {result['timed_reps']})",
        f"  columnar ingest {result['columnar_seconds']:.2f} s wall / "
        f"{result['columnar_cpu_seconds']:.2f} s cpu "
        f"(best of {result['timed_reps']})",
        f"  speedup         {result['speedup']:.1f}x cpu, "
        f"{result['speedup_wall']:.1f}x wall"
        + (
            ""
            if result["speedup_asserted"]
            else "  (not asserted: "
            + ("--quick corpus)" if result["quick"] else "numpy unavailable)")
        ),
        f"  digest          identical={result['digest_identical']} "
        "(warm heap, value-hashed, freed between runs)",
        f"  ledgers         identical={result['ledgers_identical']} "
        "(fault-injected slice, lenient mode)",
        f"  analysis        "
        + ", ".join(
            f"seed {seed}: identical={ok}"
            for seed, ok in result["analysis_identical"].items()
        ),
        f"  host            {host['cores']} core(s), "
        f"python {host['python']}, numpy {host['numpy']}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: tiny corpus, speedup reported but not asserted",
    )
    parser.add_argument(
        "--scenario-days",
        type=float,
        default=None,
        help="length of the seed-7/2013 identity campaigns "
        "(default: 21, or 5 with --quick)",
    )
    args = parser.parse_args(argv)
    scenario_days = (
        args.scenario_days
        if args.scenario_days is not None
        else (5.0 if args.quick else 21.0)
    )

    result = run_bench(args.quick, scenario_days)
    emit("bench_fleet", render(result))
    (_ROOT / "BENCH_fleet.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    failed = False
    if not result["digest_identical"]:
        print("FAIL: columnar parse diverges from scalar", file=sys.stderr)
        failed = True
    if not result["ledgers_identical"]:
        print("FAIL: drop ledgers diverge on damaged input", file=sys.stderr)
        failed = True
    for seed, ok in result["analysis_identical"].items():
        if not ok:
            print(
                f"FAIL: analysis diverges between engines on seed {seed}",
                file=sys.stderr,
            )
            failed = True
    if result["speedup_asserted"] and result["speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: CPU-time speedup {result['speedup']:.1f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x floor (no extra cores required)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
