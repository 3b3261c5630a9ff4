"""Command-line interface.

Eight subcommands — four mirror the paper's workflow, the rest scale and
guard it:

``repro simulate``
    Run a measurement campaign and save the dataset directory (configs/,
    syslog.log, isis.dump, ground_truth.json, tickets.json, meta.json).

``repro analyze``
    Load a saved dataset (or simulate one on the fly with ``--seed``) and
    print the headline comparison: failures per channel, matching, and
    sanitisation accounting.

``repro report``
    Print one of the paper's tables computed from a dataset.

``repro stream``
    Tail a dataset through the online incremental engine
    (:mod:`repro.stream`): live progress summaries while the stream runs,
    the same end-of-stream tables as ``analyze``, and optional periodic
    checkpoints a killed run resumes from with ``--resume``.

``repro lint``
    Run the project's reproducibility linter (:mod:`repro.devtools`):
    determinism, mutable-default, checkpoint-codec-drift, and event-time
    rules over the source tree.  See ``docs/static-analysis.md``.

``repro fleetgen``
    Stream a fleet-scale corpus (:mod:`repro.fleet`) to disk: 10k–100k
    routers, months of simulated time, optionally gzipped, optionally a
    full loadable dataset.  ``--shard LO:HI`` regenerates just one pod
    range of the identical corpus.  See ``docs/scale.md``.

``repro chaos``
    Replay a seeded campaign under every fault injector
    (:mod:`repro.faults`) and assert the robustness invariants: no
    unhandled exception on damaged artifacts, every loss attributed in
    the drop ledger, kill-at-any-boundary resume byte-identical.
    ``--only service-`` restricts the run to the live-service
    scenarios.  See ``docs/robustness.md``.

``repro serve``
    Run the always-on multi-tenant ingestion service (:mod:`repro.service`):
    live RFC 3164 syslog over UDP and TCP (RFC 6587 framing) into
    supervised per-tenant stream engines with checkpoint-backed
    failover, or query a running service with ``--status URL``.  See
    ``docs/service.md``.

Examples::

    repro simulate --seed 7 --days 60 --out campaign/
    repro analyze campaign/ --seed 7
    repro report campaign/ --seed 7 --table table4
    repro stream campaign/ --seed 7 --checkpoint engine.ckpt \\
        --checkpoint-every 50000
    repro stream campaign/ --seed 7 --checkpoint engine.ckpt --resume
    repro lint src --format json
    repro chaos --quick
    repro chaos --quick --only service-
    repro serve --config service.json
    repro serve --status http://127.0.0.1:8514
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import AnalysisResult, Dataset, ScenarioConfig, run_analysis, run_scenario
from repro.core.report import format_percent, render_table
from repro.topology.cenic import CenicParameters, build_cenic_like_network
from repro.util.timefmt import SECONDS_PER_HOUR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Syslog vs IS-IS failure analysis (IMC 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a campaign and save it")
    simulate.add_argument("--seed", type=int, default=2013)
    simulate.add_argument("--days", type=float, default=60.0)
    simulate.add_argument("--out", required=True, help="output directory")

    analyze = sub.add_parser("analyze", help="analyse a saved or fresh campaign")
    analyze.add_argument("dataset", nargs="?", help="saved dataset directory")
    analyze.add_argument("--seed", type=int, default=2013)
    analyze.add_argument("--days", type=float, default=60.0)
    analyze.add_argument(
        "--ingest",
        choices=["scalar", "columnar"],
        default="scalar",
        help="syslog parse engine; columnar is the vectorised fast path "
        "(identical results, see docs/scale.md)",
    )

    report = sub.add_parser("report", help="print one of the paper's tables")
    report.add_argument("dataset", nargs="?", help="saved dataset directory")
    report.add_argument("--seed", type=int, default=2013)
    report.add_argument("--days", type=float, default=60.0)
    report.add_argument(
        "--table",
        choices=["table2", "table3", "table4", "table5", "flaps"],
        default="table4",
    )

    stream = sub.add_parser(
        "stream", help="tail a campaign through the incremental engine"
    )
    stream.add_argument("dataset", nargs="?", help="saved dataset directory")
    stream.add_argument("--seed", type=int, default=2013)
    stream.add_argument("--days", type=float, default=60.0)
    stream.add_argument(
        "--progress-every",
        type=int,
        default=25000,
        help="events between live summaries (0 disables them)",
    )
    stream.add_argument(
        "--checkpoint", help="checkpoint file to write and/or resume from"
    )
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="events between checkpoint writes (requires --checkpoint)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="continue from the --checkpoint file instead of starting over",
    )
    stream.add_argument(
        "--drain-interval",
        type=int,
        default=256,
        help="events between watermark sweeps (latency knob, not results)",
    )

    from repro.devtools.lint import add_arguments as add_lint_arguments

    lint = sub.add_parser(
        "lint", help="run the reproducibility linter (docs/static-analysis.md)"
    )
    add_lint_arguments(lint)

    fleetgen = sub.add_parser(
        "fleetgen", help="generate a fleet-scale corpus (docs/scale.md)"
    )
    fleetgen.add_argument("--out", required=True, help="output directory")
    fleetgen.add_argument(
        "--preset",
        default="tiny",
        help="size preset: tiny, small, fleet, or paper",
    )
    fleetgen.add_argument(
        "--seed", type=int, default=None, help="override the preset's seed"
    )
    fleetgen.add_argument(
        "--days", type=float, default=None, help="override the horizon length"
    )
    fleetgen.add_argument(
        "--pods", type=int, default=None, help="override the pod count"
    )
    fleetgen.add_argument(
        "--shard",
        default=None,
        metavar="LO:HI",
        help="emit only pods [LO, HI); shards of a partition concatenate "
        "to the full corpus",
    )
    fleetgen.add_argument(
        "--gzip", action="store_true", help="gzip the streamed artifacts"
    )
    fleetgen.add_argument(
        "--dataset",
        action="store_true",
        help="also write configs and ground truth so the directory loads "
        "as a full dataset",
    )

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection harness (docs/robustness.md)"
    )
    chaos.add_argument("--seed", type=int, default=2013)
    chaos.add_argument(
        "--days",
        type=float,
        default=10.0,
        help="campaign length of the replayed scenario",
    )
    chaos.add_argument(
        "--kill-samples",
        type=int,
        default=6,
        help="event boundaries to kill and resume the stream at",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="small campaign (3 days, 4 kill points) for CI",
    )
    chaos.add_argument(
        "--only",
        metavar="PREFIX",
        default=None,
        help="run only scenarios whose name starts with PREFIX "
        "(e.g. 'service-' for the live-service scenarios)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the always-on multi-tenant ingestion service "
        "(docs/service.md)",
    )
    serve.add_argument(
        "--config",
        metavar="CONFIG.json",
        default=None,
        help="service configuration document (tenants, ports, state dir)",
    )
    serve.add_argument(
        "--status",
        metavar="URL",
        default=None,
        help="query a running service's status endpoint and print a "
        "per-tenant table instead of starting a service",
    )
    return parser


def _load_or_run(args: argparse.Namespace) -> Dataset:
    if args.dataset:
        manifest_path = Path(args.dataset) / "manifest.json"
        if manifest_path.exists():
            # A fleet corpus carries its spec; the network is rebuilt
            # arithmetically rather than from the scenario seed.
            from repro.fleet import FleetSpec, build_network

            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if not manifest.get("dataset"):
                raise SystemExit(
                    f"{args.dataset} is a stream-only fleet corpus; "
                    "regenerate it with `repro fleetgen --dataset` to "
                    "analyse it"
                )
            spec = FleetSpec(**manifest["spec"])
            return Dataset.load(args.dataset, build_network(spec))
        # The network is regenerated from the scenario seed; topology
        # parameters are deterministic in it.
        network = build_cenic_like_network(CenicParameters(seed=args.seed))
        return Dataset.load(args.dataset, network)
    print(
        f"(no dataset directory given: simulating seed={args.seed} "
        f"days={args.days:g})",
        file=sys.stderr,
    )
    return run_scenario(ScenarioConfig(seed=args.seed, duration_days=args.days))


def _print_analysis(result: AnalysisResult) -> None:
    syslog = result.syslog_failures
    isis = result.isis_failures
    match = result.failure_match
    syslog_hours = sum(f.duration for f in syslog) / SECONDS_PER_HOUR
    isis_hours = sum(f.duration for f in isis) / SECONDS_PER_HOUR
    print(
        render_table(
            ["Quantity", "Syslog", "IS-IS"],
            [
                ["Failures", f"{len(syslog):,}", f"{len(isis):,}"],
                ["Downtime (h)", f"{syslog_hours:,.0f}", f"{isis_hours:,.0f}"],
            ],
            title="Channel comparison",
        )
    )
    print()
    print(
        render_table(
            ["Quantity", "Value"],
            [
                ["Matched failures", f"{match.matched_count:,}"],
                [
                    "Syslog-only",
                    f"{len(match.only_a):,} "
                    f"({format_percent(len(match.only_a) / max(1, len(syslog)))})",
                ],
                [
                    "IS-IS-only",
                    f"{len(match.only_b):,} "
                    f"({format_percent(len(match.only_b) / max(1, len(isis)))})",
                ],
                ["Flap episodes", f"{len(result.flap_episodes):,}"],
                [
                    "Spurious downtime removed (h)",
                    f"{result.syslog_sanitized.spurious_downtime_hours:,.0f}",
                ],
            ],
            title="Matching and sanitisation",
        )
    )


def _print_table2(result: AnalysisResult) -> None:
    from repro.core.matching import transition_match_fraction

    config = result.options.matching
    fractions = {}
    for field, reference in (
        ("IS", result.isis.is_transitions),
        ("IP", result.isis.ip_transitions),
    ):
        for category, messages in (
            ("isis", result.syslog.isis_messages),
            ("media", result.syslog.physical_messages),
        ):
            fractions[(field, category)] = transition_match_fraction(
                reference, messages, config
            )
    rows = []
    for category, label in (("isis", "IS-IS"), ("media", "physical media")):
        for direction in ("down", "up"):
            rows.append(
                [
                    f"{label} {direction.capitalize()}",
                    format_percent(fractions[("IS", category)][direction]),
                    format_percent(fractions[("IP", category)][direction]),
                ]
            )
    print(
        render_table(
            ["Syslog type", "IS reach", "IP reach"],
            rows,
            title="Table 2: state transitions matching syslog by LSP field",
        )
    )


def _print_table3(result: AnalysisResult) -> None:
    from repro.core.flapping import in_flap

    coverage = result.coverage
    rows = []
    for direction in ("down", "up"):
        rows.append(
            [direction.upper()]
            + [
                f"{coverage.counts[direction][bucket]:,} "
                f"({format_percent(coverage.fraction(direction, bucket))})"
                for bucket in (0, 1, 2)
            ]
        )
    print(
        render_table(
            ["IS-IS transition", "None", "One", "Both"],
            rows,
            title="Table 3: IS-IS transitions by matching syslog messages",
        )
    )
    print()
    flap_rows = []
    for direction in ("down", "up"):
        unmatched = [t for t in coverage.unmatched if t.direction == direction]
        inside = sum(
            1
            for t in unmatched
            if in_flap(result.flap_intervals, t.link, t.time)
        )
        share = inside / len(unmatched) if unmatched else 0.0
        flap_rows.append(
            [direction.upper(), f"{format_percent(share)} of {len(unmatched):,}"]
        )
    print(
        render_table(
            ["Direction", "Unmatched inside flap periods"],
            flap_rows,
            title="§4.1: flap attribution of unmatched transitions",
        )
    )


def _print_report(result: AnalysisResult, table: str) -> None:
    if table == "table2":
        _print_table2(result)
        return
    if table == "table3":
        _print_table3(result)
        return
    if table == "table4":
        _print_analysis(result)
        return
    if table == "table5":
        from repro.core.statistics import class_statistics

        links = result.resolver.single_links()
        rows = []
        for label, selection in (
            ("Core", [l for l in links if l.is_core]),
            ("CPE", [l for l in links if not l.is_core]),
        ):
            for channel, failures in (
                ("Syslog", result.syslog_failures),
                ("IS-IS", result.isis_failures),
            ):
                stats = class_statistics(
                    failures, selection, result.horizon_start, result.horizon_end
                )
                rows.append(
                    [
                        label,
                        channel,
                        f"{stats.failures_per_link_year.median:.1f}",
                        f"{stats.duration_seconds.median:.0f}",
                        f"{stats.downtime_hours_per_year.median:.2f}",
                    ]
                )
        print(
            render_table(
                [
                    "Class", "Channel",
                    "Median fail/yr", "Median dur (s)", "Median down h/yr",
                ],
                rows,
                title="Per-link statistics (Table 5 medians)",
            )
        )
        return
    if table == "flaps":
        episodes = sorted(
            result.flap_episodes, key=lambda e: -e.failure_count
        )[:15]
        print(
            render_table(
                ["Link", "Failures", "Duration (h)"],
                [
                    [
                        e.link[:58],
                        e.failure_count,
                        f"{(e.end - e.start) / 3600:.2f}",
                    ]
                    for e in episodes
                ],
                title="Largest flapping episodes (ten-minute rule)",
            )
        )
        return
    raise ValueError(f"unknown table {table!r}")


def _run_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        CheckpointError,
        load_checkpoint,
        save_checkpoint,
        stream_dataset,
    )
    from repro.stream.engine import StreamOptions

    if args.checkpoint_every and not args.checkpoint:
        print("--checkpoint-every requires --checkpoint", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.drain_interval < 1:
        print("--drain-interval must be at least 1", file=sys.stderr)
        return 2

    dataset = _load_or_run(args)
    resume_state = None
    if args.resume:
        try:
            resume_state = load_checkpoint(args.checkpoint)
        except CheckpointError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        print(
            f"(resuming from {args.checkpoint}: "
            f"{resume_state['events_consumed']:,} events already consumed)",
            file=sys.stderr,
        )

    def on_progress(engine) -> None:
        s = engine.summary()
        print(
            f"[{s['events']:>10,} ev] t={s['watermark']:>12,.0f}s  "
            f"kept syslog {s['syslog_kept']:,} / isis {s['isis_kept']:,}  "
            f"matched {s['matched']:,} (+{s['match_pending']} pending)  "
            f"flap episodes {s['flap_episodes']:,}",
            file=sys.stderr,
        )

    def on_checkpoint(engine) -> None:
        save_checkpoint(args.checkpoint, engine)
        print(
            f"(checkpoint written at event {engine.events_consumed:,})",
            file=sys.stderr,
        )

    result = stream_dataset(
        dataset,
        StreamOptions(drain_interval=args.drain_interval),
        resume_state=resume_state,
        on_progress=on_progress if args.progress_every else None,
        progress_every=args.progress_every,
        checkpoint_every=args.checkpoint_every,
        on_checkpoint=on_checkpoint if args.checkpoint_every else None,
    )

    counters = result.counters
    print(
        render_table(
            ["Quantity", "Count"],
            [
                ["Events consumed", f"{counters['events']:,}"],
                [
                    "Syslog messages",
                    f"{counters['syslog_isis_messages'] + counters['syslog_physical_messages']:,}",
                ],
                [
                    "IS-IS reachability changes",
                    f"{counters['isis_is_messages'] + counters['isis_ip_messages']:,}",
                ],
                ["LSP refresh ticks", f"{counters['ticks']:,}"],
                [
                    "Link transitions",
                    f"{sum(counters[f'{k}-transitions'] for k in ('syslog-isis', 'syslog-physical', 'isis-is', 'isis-ip')):,}",
                ],
            ],
            title="Stream consumption",
        )
    )
    print()
    # StreamResult exposes the same fields the analyze printer reads.
    _print_analysis(result)
    return 0


def _run_fleetgen(args: argparse.Namespace) -> int:
    from repro.fleet import preset, write_corpus

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.days is not None:
        overrides["duration_days"] = args.days
    if args.pods is not None:
        overrides["pods"] = args.pods
    try:
        spec = preset(args.preset, **overrides)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    pods = None
    if args.shard is not None:
        try:
            lo, hi = (int(part) for part in args.shard.split(":"))
        except ValueError:
            raise SystemExit(
                f"bad --shard {args.shard!r}: expected LO:HI"
            ) from None
        if not 0 <= lo < hi <= spec.pods:
            raise SystemExit(
                f"--shard {args.shard} out of range for {spec.pods} pods"
            )
        pods = range(lo, hi)

    try:
        counters = write_corpus(
            spec,
            args.out,
            gzip_artifacts=args.gzip,
            dataset=args.dataset,
            pods=pods,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"wrote {args.out}: {counters.syslog_lines:,} syslog lines "
        f"({counters.failure_lines:,} failure, {counters.chatter_lines:,} "
        f"chatter), {counters.lsp_records:,} LSP records, "
        f"{counters.failures:,} failures across {counters.routers:,} "
        f"routers / {counters.links:,} links"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        Service,
        ServiceConfig,
        fetch_status,
        render_status,
    )

    if args.status is not None:
        print(render_status(fetch_status(args.status)))
        return 0
    if args.config is None:
        raise SystemExit("repro serve: either --config or --status required")
    config_path = Path(args.config)
    try:
        document = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bad --config {args.config}: {exc}") from None
    try:
        config = ServiceConfig.from_document(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"bad --config {args.config}: {exc}") from None

    service = Service(config)
    service.start()
    for name, doc in sorted(service.status()["tenants"].items()):
        print(
            f"serve: tenant {name}: tcp={doc['tcp_port']} "
            f"udp={doc['udp_port']}"
        )
    if service.status_port is not None:
        print(
            f"serve: status endpoint "
            f"http://{config.host}:{service.status_port}/status"
        )
    print("serve: running — Ctrl-C to drain and stop")
    try:
        while True:
            service.clock.sleep(1.0)
    except KeyboardInterrupt:
        print("serve: draining…")
    finally:
        summary = service.stop()
    failed = [
        name
        for name, doc in summary.items()
        if doc.get("state") == "failed"
    ]
    print(render_status(service.status()))
    if failed:
        print(f"serve: FAILED tenants: {', '.join(sorted(failed))}")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        dataset = run_scenario(
            ScenarioConfig(seed=args.seed, duration_days=args.days)
        )
        dataset.save(args.out)
        summary = dataset.summary
        print(
            f"saved {args.out}: {summary.syslog_delivered:,} syslog messages, "
            f"{summary.lsp_record_count:,} LSP records, "
            f"{summary.ground_truth_failure_count:,} ground-truth failures"
        )
        return 0
    if args.command == "analyze":
        result = run_analysis(_load_or_run(args), ingest=args.ingest)
        _print_analysis(result)
        return 0
    if args.command == "fleetgen":
        return _run_fleetgen(args)
    if args.command == "report":
        result = run_analysis(_load_or_run(args))
        _print_report(result, args.table)
        return 0
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "lint":
        from repro.devtools.lint import run as run_lint

        return run_lint(args)
    if args.command == "chaos":
        from repro.faults.chaos import run_chaos

        days = 3.0 if args.quick else args.days
        kill_samples = 4 if args.quick else args.kill_samples
        return run_chaos(
            args.seed, days, kill_samples=kill_samples, only=args.only
        )
    if args.command == "serve":
        return _run_serve(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
