"""Repository benchmark: three single-process workloads, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-batch --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
provenance (host, versions, input sizes, sample counts).  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import hostspeed  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` spent in the closed loop on ``service-replay``;
#: the open loop gets the rest.
SERVICE_CLOSED_SHARE = 0.3
#: Fewest repetitions of each kind a run makes, whatever ``--seconds`` says.
MIN_REPS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


def _status_kb(field: str) -> int:
    """One ``kB`` field of ``/proc/self/status``, such as ``VmHWM``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


class PeakRss:
    """Peak resident set size over the measured repetitions only.

    On Linux, writing ``5`` to ``/proc/self/clear_refs`` resets the
    process's high-water mark (``VmHWM``).  Each repetition opens a fresh
    window and its peak is read as soon as it returns, so set-up, output
    checks and digesting between repetitions never count.  Without that
    interface the process-lifetime ``ru_maxrss`` is reported instead.
    """

    def __init__(self) -> None:
        gc.collect()
        try:
            # Hand freed set-up memory back, so it does not stay resident
            # under the repetitions.
            ctypes.CDLL(None).malloc_trim(0)
        except (AttributeError, OSError):
            pass
        self.peak_kb = 0
        try:
            #: Peak of set-up and checks, and what stays resident after them.
            self.before = {"setup_peak_mb": _status_kb("VmHWM") / 1024.0,
                           "rss_before_reps_mb": _status_kb("VmRSS") / 1024.0}
            self.scoped = self._reset()
        except OSError:
            self.before, self.scoped = {}, False

    @staticmethod
    def _reset() -> bool:
        try:
            with open("/proc/self/clear_refs", "w") as clear_refs:
                clear_refs.write("5")
            return True
        except OSError:
            return False

    def start(self) -> None:
        if self.scoped:
            self._reset()

    def stop(self) -> None:
        if self.scoped:
            self.peak_kb = max(self.peak_kb, _status_kb("VmHWM"))
        else:
            self.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def provenance(self) -> Dict[str, Any]:
        return self.before | {"peak_rss_scope": "repetitions" if self.scoped else "process"}


class HostClock:
    """Host-speed probes around each repetition.

    The probes run once between consecutive repetitions, outside their
    timed regions; a repetition's speed factor comes from the probes on
    either side of it (see ``hostspeed``).
    """

    def __init__(self) -> None:
        self.last = hostspeed.probe()
        self.probes = [self.last]

    def around(self) -> List[Tuple[float, float]]:
        """Probe again; the probes on either side of the repetition just ended."""
        before, self.last = self.last, hostspeed.probe()
        self.probes.append(self.last)
        return [before, self.last]


def timed_reps(run: Callable[[], Any], seconds: float, settle: Callable[[Any], None],
               peak: PeakRss, clock: HostClock) -> Tuple[List[float], List[float]]:
    """Closed loop: repeat ``run`` for ``seconds``; wall seconds and host factor of each.

    Each output is settled (checked) outside the timed region and then
    dropped, so memory does not grow with the number of repetitions.
    """
    walls: List[float] = []
    factors: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        peak.start()
        start = time.perf_counter()
        output = run()
        walls.append(time.perf_counter() - start)
        peak.stop()
        factors.append(hostspeed.factor(clock.around()))
        settle(output)
    return walls, factors


class Books:
    """Records attempted and failed, plus the problems behind failures.

    ``reference`` is the digest of the checked first output.  When that
    output failed its checks (``checked`` is false), every later
    repetition reproducing it is just as wrong, so all records fail.
    """

    def __init__(self, prepared: Any, reference: str, checked: bool) -> None:
        self.prepared = prepared
        self.reference = reference
        self.checked = checked
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def settle(self, output: Any, label: str) -> None:
        """Count one repetition's records; all of them fail on a wrong output."""
        records = self.prepared.records
        self.attempted += records
        if self.prepared.digest(output) != self.reference:
            self.failed += records
            self.problems.append(f"{label}: output differs from the checked output")
        elif not self.checked:
            self.failed += records
        else:
            self.failed += min(records, self.prepared.lost(output))


def reference_problems(prepared: Any, seed: int, output: Any) -> List[str]:
    """Compare with the findings and digest recorded for this seed, if any."""
    recorded = json.loads((HERE / "reference.json").read_text())
    expected = recorded.get(prepared.workload, {}).get(str(seed))
    if expected is None:
        return []
    actual = {"digest": prepared.digest(output), "findings": prepared.findings(output)}
    if actual == expected:
        return []
    return [f"output {actual} differs from the one recorded for seed {seed}: {expected}"]


def prepare(workload: str, seed: int, workdir: Path, repeats: int, tracer: Any = None):
    """Build inputs ``repeats`` times; the last set is kept.

    Gives the set-up wall times and the host factor of each.
    """
    from workloads import SETUPS

    clock = HostClock()
    times, factors = [], []
    for index in range(repeats):
        target = workdir / f"setup{index}"
        target.mkdir()
        start = time.perf_counter()
        prepared = SETUPS[workload](seed, target, tracer)
        times.append(time.perf_counter() - start)
        factors.append(hostspeed.factor(clock.around()))
    return prepared, times, factors


def normalised(walls: List[float], factors: List[float]) -> List[float]:
    """Wall times as they would read on the reference host."""
    return [wall / factor for wall, factor in zip(walls, factors)]


def first_output(prepared: Any, seed: int) -> Books:
    """Untimed warm-up whose output every check runs on."""
    output = prepared.run()
    problems = prepared.check(output) + reference_problems(prepared, seed, output)
    books = Books(prepared, prepared.digest(output), checked=not problems)
    books.problems += problems
    books.settle(output, "warm-up")
    return books


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> Tuple[Dict, Dict, Books]:
    prepared, setup_times, setup_factors = prepare(workload, seed, workdir, SETUP_REPEATS)
    books = first_output(prepared, seed)
    provenance: Dict[str, Any] = {
        "setup_samples": len(setup_times),
        "raw_setup_s": statistics.median(setup_times),
    }
    peak = PeakRss()
    clock = HostClock()

    closed_seconds = seconds * (SERVICE_CLOSED_SHARE if prepared.open_loop else 1.0)
    walls, factors = timed_reps(prepared.run, closed_seconds,
                                lambda output: books.settle(output, "repetition"), peak, clock)
    rep_seconds = statistics.median(normalised(walls, factors))
    provenance.update(closed_loop_reps=len(walls), raw_rep_s=statistics.median(walls))
    metrics = {
        "setup_s": (statistics.median(normalised(setup_times, setup_factors)), "s"),
        "records_per_s": (prepared.records / rep_seconds, "1/s"),
    }

    if prepared.open_loop is None:
        # A batch result arrives whole: every record's latency is the
        # repetition's wall time, so both percentiles equal it.
        metrics["latency_p50_ms"] = (rep_seconds * 1e3, "ms")
        metrics["latency_p99_ms"] = (rep_seconds * 1e3, "ms")
        provenance["latency_samples"] = len(walls)
    else:
        from workloads import OPEN_LOOP_RATE

        p50s, p99s, late, open_factors, pause_factors, samples = [], [], [], [], [], 0
        deadline = time.perf_counter() + seconds - closed_seconds
        while len(p50s) < MIN_REPS or time.perf_counter() < deadline:
            gc.collect()
            peak.start()
            output, latencies, lateness = prepared.open_loop(OPEN_LOOP_RATE)
            peak.stop()
            probes = clock.around()
            open_factors.append(hostspeed.factor(probes))
            # The tail is the last checkpoint's pause (see README).
            pause_factors.append(hostspeed.pause_factor(probes))
            books.settle(output, f"open-loop repetition {len(p50s)}")
            p50s.append(percentile(latencies, 0.50))
            p99s.append(percentile(latencies, 0.99))
            late.append(statistics.median(lateness))
            samples += len(latencies)
        metrics["latency_p50_ms"] = (statistics.median(normalised(p50s, open_factors)) * 1e3, "ms")
        metrics["latency_p99_ms"] = (statistics.median(normalised(p99s, pause_factors)) * 1e3, "ms")
        provenance.update(
            open_loop_rate=OPEN_LOOP_RATE,
            open_loop_reps=len(p50s),
            latency_samples=samples,
            raw_latency_p50_ms=statistics.median(p50s) * 1e3,
            raw_latency_p99_ms=statistics.median(p99s) * 1e3,
            generator_late_ms=statistics.median(late) * 1e3,
        )

    metrics["peak_rss_mb"] = (peak.peak_kb / 1024.0, "MB")
    provenance.update(peak.provenance())
    provenance.update(host_factor=statistics.median(hostspeed.factor([probe]) for probe in clock.probes),
                      host_probes=len(clock.probes))
    provenance["failed_share"] = books.failed / books.attempted
    return metrics, provenance | {"sizes": prepared.sizes}, books


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> Tuple[Dict, Dict, Books]:
    from tracing import ROOT, Tracer, installed, self_times, summary
    from layers import PER_LAYER, patches_for

    tracer = Tracer()
    prepared, _, _ = prepare(workload, seed, workdir, 1, tracer)
    setup_self = self_times(tracer.spans)
    tracer.reset()
    books = first_output(prepared, seed)
    patches = patches_for(workload)

    untraced_walls, traced_walls, layer_samples, counts = [], [], [], []
    pauses = []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        output = prepared.run()
        untraced_walls.append(time.perf_counter() - start)
        books.settle(output, "untraced repetition")

        tracer.reset()
        gc.collect()
        with installed(tracer, patches):
            start = time.perf_counter()
            with tracer.span(ROOT):
                output = prepared.run()
            traced_walls.append(time.perf_counter() - start)
        books.settle(output, "traced repetition")
        spans = summary(tracer.spans)
        layer_samples.append({name: row["self_s"] for name, row in spans.items()})
        counts.append(dict(tracer.counts) | {f"{name}#": row["count"] for name, row in spans.items()})
        pauses.append(spans.get("stream.checkpoint", {}).get("max_s", 0.0))

    late_ms = 0.0
    if prepared.open_loop is not None:
        from workloads import OPEN_LOOP_RATE

        with installed(tracer, patches):
            output, _, lateness = prepared.open_loop(OPEN_LOOP_RATE)
        books.settle(output, "traced open-loop repetition")
        late_ms = statistics.median(lateness) * 1e3

    if any(rep != counts[0] for rep in counts):
        books.problems.append("trace counts differ between traced repetitions")

    untraced_wall = statistics.median(untraced_walls)
    traced_wall = statistics.median(traced_walls)
    values = {
        "self": {name: statistics.median(sample.get(name, 0.0) for sample in layer_samples)
                 for name in set().union(*layer_samples)},
        "setup": setup_self,
        "counts": counts[0],
        "pause_max_ms": statistics.median(pauses) * 1e3,
        "late_ms": late_ms,
        "untraced_wall": untraced_wall,
        "traced_wall": traced_wall,
    }
    metrics = {name: (source(values), unit) for name, unit, source in PER_LAYER}
    layer_self = sum(seconds for name, seconds in values["self"].items() if name != ROOT)
    provenance = {
        "traced_reps": len(traced_walls),
        "untraced_reps": len(untraced_walls),
        "layer_self_s": layer_self,
        # (layer self times - tracing overhead) / untraced wall, leaving
        # out the root span's self time (``trace.unattributed_s``): 1.0
        # when the layer spans account for the whole untraced repetition.
        "accounted_share": (layer_self - (traced_wall - untraced_wall)) / untraced_wall,
        "spans": spans,
        "sizes": prepared.sizes,
    }
    return metrics, provenance, books


def host() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {CHECKOUT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    work_root = CHECKOUT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        measure = traced if args.trace else end_to_end
        metrics, provenance, books = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in books.problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    correct = not books.problems and books.failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host": host(), **provenance}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": books.attempted,
        "failed": books.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
