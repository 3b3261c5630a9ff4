"""Which program boundaries the traced run wraps, and the metrics they give.

Each patch rebinds the name a caller looks up at call time, so the span
sits exactly on the call into a layer's public function.  Per-line
parser calls in batch ingest are counted but not spanned, so their time
stays in the enclosing ``syslog.parse`` span.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Dict, List, Tuple

import workloads
from repro.isis.lsp import LinkStatePacket
from repro.service.framing import FrameError, TcpFrameDecoder
from repro.service.supervisor import Service
from repro.service.worker import TenantPipeline
from repro.stream.engine import StreamEngine
from repro.stream.sources import LogTailer, ReorderBuffer
from repro.syslog.collector import SyslogCollector
from tracing import ROOT, Patch

# ``repro.core`` re-exports functions named like its submodules, so the
# modules are taken from the import table rather than by attribute.
columnar, columnar_ingest, extract_isis, extract_syslog, pipeline, worker, collector, message = (
    importlib.import_module(f"repro.{name}")
    for name in (
        "columnar", "columnar.ingest", "core.extract_isis", "core.extract_syslog",
        "core.pipeline", "service.worker", "syslog.collector", "syslog.message",
    )
)


def _add(name: str, amount: Callable[[tuple, Any], int]) -> Callable:
    def hook(counts, args, kwargs, result):
        counts[name] += amount(args, result)
    return hook


def _replay(counts, args, kwargs, result):
    listener, changes = result
    counts["isis.lsps"] += len(args[0])
    counts["isis.rejected"] += listener.rejected_count
    counts["isis.changes"] += len(changes)


def _sanitize(counts, args, kwargs, result):
    counts["engine.sanitize_in"] += len(args[0])
    counts["engine.sanitize_kept"] += len(result.kept)


def _scalar_line(counts, args, kwargs, result):
    counts["syslog.parse_lines"] += 1
    if isinstance(result, tuple) and result[0] is None:
        counts["syslog.parse_drops"] += 1


def _journal(counts, args, kwargs, result):
    # The sink's byte total is cumulative over one replay of the feed.
    counts["service.journal_bytes"] = args[1].journal_bytes


def _frames(counts, args, kwargs, result):
    errors = sum(1 for item in result if isinstance(item, FrameError))
    counts["service.frames"] += len(result) - errors
    counts["service.frame_errors"] += errors


_BARRIER = _add("columnar.barrier_lines", lambda args, result: 1)

BATCH: List[Patch] = [
    (pipeline, "LinkResolver", "topology.resolver", None),
    (SyslogCollector, "parse_log", "syslog.parse", None),
    (collector, "parse_syslog_line", None, _scalar_line),
    (message, "parse_timestamp", "util.timefmt", None),
    (columnar, "parse_log_columnar", "columnar.parse", None),
    (columnar_ingest, "parse_syslog_line", None, _BARRIER),
    (columnar_ingest, "try_parse_syslog_line", None, _BARRIER),
    (extract_syslog, "classify_entries", "core.extract_syslog.classify", None),
    (extract_isis, "replay_lsp_records", "isis.replay", _replay),
    (LinkStatePacket, "unpack", "isis.unpack", None),
    (extract_isis, "classify_changes", "core.extract_isis.classify", None),
    (extract_syslog, "merge_messages", "engine.merge", None),
    (extract_isis, "merge_messages", "engine.merge", None),
    (extract_syslog, "reconstruct_channel", "engine.timeline",
     _add("engine.failures", lambda args, result: len(result[1]))),
    (extract_isis, "reconstruct_channel", "engine.timeline",
     _add("engine.failures", lambda args, result: len(result[1]))),
    (pipeline, "sanitize_failures", "engine.sanitize", _sanitize),
    (pipeline, "match_failures", "engine.match",
     _add("engine.match_pairs", lambda args, result: len(result.pairs))),
    (pipeline, "count_matching_reporters", "engine.coverage", None),
    (pipeline, "detect_flap_episodes", "engine.flaps",
     _add("engine.flap_episodes", lambda args, result: len(result))),
    (pipeline, "flap_intervals", "engine.flaps", None),
]

SERVICE: List[Patch] = [
    (TcpFrameDecoder, "feed", "service.frame", _frames),
    (TcpFrameDecoder, "close", "service.frame", _frames),
    (Service, "_journal", "service.journal", _journal),
    (LogTailer, "poll", "service.journal", None),
    (TenantPipeline, "feed_line", "service.feed", None),
    (worker, "try_parse_syslog_line", "syslog.parse", _scalar_line),
    (message, "parse_timestamp", "util.timefmt", None),
    (worker, "classify_entry", "core.extract_syslog.classify", None),
    (ReorderBuffer, "push", "stream.reorder", None),
    (ReorderBuffer, "flush", "stream.reorder", None),
    (StreamEngine, "process", "stream.engine",
     _add("stream.engine_events", lambda args, result: 1)),
    (TenantPipeline, "finish", "stream.finish",
     _add("service.drops", lambda args, result: args[0].report.dropped())),
    (workloads, "save_checkpoint", "stream.checkpoint",
     _add("stream.checkpoint_bytes", lambda args, result: os.path.getsize(args[0]))),
]


def patches_for(workload: str) -> List[Patch]:
    return SERVICE if workload == "service-replay" else BATCH


def _self(name: str) -> Callable[[Dict], float]:
    return lambda values: values["self"].get(name, 0.0)


def _setup(name: str) -> Callable[[Dict], float]:
    return lambda values: values["setup"].get(name, 0.0)


def _count(name: str) -> Callable[[Dict], float]:
    return lambda values: values["counts"].get(name, 0)


def _kept_ratio(values: Dict) -> float:
    counts = values["counts"]
    return counts.get("engine.sanitize_kept", 0) / max(1, counts.get("engine.sanitize_in", 0))


#: ``(metric, unit, value from the traced run's reduced values)``; the
#: order is the one BENCHMARK.json lists them in.
PER_LAYER: List[Tuple[str, str, Callable[[Dict], float]]] = [
    ("simulation.scenario_s", "s", _setup("simulation.scenario")),
    ("fleet.generate_s", "s", _setup("fleet.generate")),
    ("simulation.dataset_load_s", "s", _setup("simulation.dataset_load")),
    ("service.profile_s", "s", _setup("service.profile")),
    ("isis.replay_s", "s", _self("isis.replay")),
    ("isis.unpack_s", "s", _self("isis.unpack")),
    ("isis.unpack_calls", "count", _count("isis.unpack#")),
    ("isis.lsps", "count", _count("isis.lsps")),
    ("isis.rejected", "count", _count("isis.rejected")),
    ("isis.changes", "count", _count("isis.changes")),
    ("syslog.parse_s", "s", _self("syslog.parse")),
    ("syslog.parse_lines", "count", _count("syslog.parse_lines")),
    ("syslog.parse_drops", "count", _count("syslog.parse_drops")),
    ("util.timefmt_s", "s", _self("util.timefmt")),
    ("util.timefmt_calls", "count", _count("util.timefmt#")),
    ("columnar.parse_s", "s", _self("columnar.parse")),
    ("columnar.barrier_lines", "count", _count("columnar.barrier_lines")),
    ("topology.resolver_s", "s", _self("topology.resolver")),
    ("core.extract_syslog.classify_s", "s", _self("core.extract_syslog.classify")),
    ("core.extract_isis.classify_s", "s", _self("core.extract_isis.classify")),
    ("engine.merge_s", "s", _self("engine.merge")),
    ("engine.timeline_s", "s", _self("engine.timeline")),
    ("engine.failures", "count", _count("engine.failures")),
    ("engine.sanitize_s", "s", _self("engine.sanitize")),
    ("engine.sanitize_kept_ratio", "ratio", _kept_ratio),
    ("engine.match_s", "s", _self("engine.match")),
    ("engine.match_pairs", "count", _count("engine.match_pairs")),
    ("engine.coverage_s", "s", _self("engine.coverage")),
    ("engine.flaps_s", "s", _self("engine.flaps")),
    ("engine.flap_episodes", "count", _count("engine.flap_episodes")),
    ("service.frame_s", "s", _self("service.frame")),
    ("service.frames", "count", _count("service.frames")),
    ("service.frame_errors", "count", _count("service.frame_errors")),
    ("service.journal_s", "s", _self("service.journal")),
    ("service.journal_bytes", "bytes", _count("service.journal_bytes")),
    ("service.feed_s", "s", _self("service.feed")),
    ("stream.reorder_s", "s", _self("stream.reorder")),
    ("stream.engine_s", "s", _self("stream.engine")),
    ("stream.engine_events", "count", _count("stream.engine_events")),
    ("stream.finish_s", "s", _self("stream.finish")),
    ("service.drops", "count", _count("service.drops")),
    ("service.generator_late_ms", "ms", lambda values: values["late_ms"]),
    ("stream.checkpoint_s", "s", _self("stream.checkpoint")),
    ("stream.checkpoint_count", "count", _count("stream.checkpoint#")),
    ("stream.checkpoint_bytes", "bytes", _count("stream.checkpoint_bytes")),
    ("stream.checkpoint_pause_max_ms", "ms", lambda values: values["pause_max_ms"]),
    ("trace.unattributed_s", "s", _self(ROOT)),
    ("trace.untraced_wall_s", "s", lambda values: values["untraced_wall"]),
    ("trace.traced_wall_s", "s", lambda values: values["traced_wall"]),
    ("trace.overhead_s", "s", lambda values: values["traced_wall"] - values["untraced_wall"]),
]
