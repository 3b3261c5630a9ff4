"""The per-tenant worker: journal lines in, analysis state out.

One worker process serves one tenant.  Its input is the tenant's
append-only **journal** — the raw syslog lines the frontend delivered,
in arrival order — which it tails with
:class:`~repro.stream.sources.LogTailer`.  Each complete line runs
through the :class:`TenantPipeline`:

1. lenient parse (:func:`~repro.syslog.message.try_parse_syslog_line`,
   RFC 3164 with RFC 5424 fallback) — malformed lines land in the drop
   ledger, never crash the tenant;
2. classification against the tenant's mined inventory
   (:func:`~repro.core.extract_syslog.classify_entry`);
3. event-time re-ordering through a
   :class:`~repro.stream.sources.ReorderBuffer` bounded by the
   transport's maximum delay — arrivals later than the bound are
   ledgered (``late-arrival``), not delivered out of order;
4. delivery into a :class:`~repro.stream.engine.StreamEngine`.

**Failover is replay.**  The journal is the single source of truth: the
pipeline's entire derived state is a deterministic function of the
journal bytes, because the reorder buffer's release sequence is
prefix-stable and the engine consumes released events in order.  A
restarted worker therefore restores the engine from its last checkpoint,
re-tails the journal from byte zero, and skips the first
``events_consumed`` *released* events — the exact kill-anywhere resume
arithmetic the stream engine's checkpoint tests prove — and finishes
byte-identical to a never-killed run.  The ledger and year-resolution
context are rebuilt in full by the same replay, so nothing about a
restart is visible in the final report.

The module-level :func:`tenant_worker_main` is the process entry point
the supervisor spawns; :func:`replay_lines` is the in-process clean-run
comparator the chaos scenarios and tests check identity against.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.extract_syslog import classify_entry
from repro.faults.ledger import (
    CHANNEL_CHECKPOINT,
    CHANNEL_SERVICE,
    CHANNEL_SYSLOG,
    IngestReport,
)
from repro.service.clock import Clock
from repro.service.files import read_json, write_json_atomic
from repro.service.profile import TenantContext, load_tenant_context
from repro.stream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.engine import StreamEngine, StreamOptions, StreamResult
from repro.stream.sources import (
    SYSLOG_CHANNEL,
    LogTailer,
    ReorderBuffer,
    StreamEvent,
)
from repro.syslog.collector import CiscoMemo, collected_entry
from repro.syslog.message import try_parse_syslog_line

#: Default event-time disorder bound (seconds).  The simulated transport
#: delays a datagram by at most ~9.5 s (spurious retransmit + queueing),
#: so 10 s re-orders every delivery the scenarios produce.
DEFAULT_LATENESS = 10.0

#: Ledger reason for arrivals later than the reorder bound.
REASON_LATE_ARRIVAL = "late-arrival"
#: Ledger reason for a journal whose final line has no newline — the
#: frontend writer died mid-append and the fragment is genuinely torn.
REASON_TORN_JOURNAL = "torn-journal-line"
#: Ledger reason for a checkpoint the worker could not restore from.
REASON_BAD_CHECKPOINT = "corrupt-checkpoint"

#: File names inside a tenant's state directory.
JOURNAL_FILE = "journal.log"
CHECKPOINT_FILE = "checkpoint.json"
HEARTBEAT_FILE = "heartbeat.json"
REPORT_FILE = "report.json"
STOP_FILE = "stop"


class TenantPipeline:
    """Raw journal lines to analysis engine, deterministically.

    The pipeline is pure in the journal content: feeding the same lines
    in the same order always produces the same engine state, ledger, and
    final result.  ``engine`` may be a checkpoint-restored engine, in
    which case the pipeline skips the first ``engine.events_consumed``
    released events during replay — the caller re-feeds the journal from
    byte zero and the prefix-stable release order guarantees the skipped
    prefix is exactly what the engine already consumed.
    """

    def __init__(
        self,
        context: TenantContext,
        *,
        options: Optional[StreamOptions] = None,
        lateness: float = DEFAULT_LATENESS,
        report: Optional[IngestReport] = None,
        engine: Optional[StreamEngine] = None,
    ) -> None:
        self.context = context
        self.report = report if report is not None else IngestReport()
        if engine is None:
            engine = StreamEngine(
                context.resolver,
                context.analysis_start,
                context.horizon_end,
                context.listener_outages,
                context.tickets,
                options,
            )
        self.engine = engine
        self.reorder = ReorderBuffer(lateness)
        self.lines_seen = 0
        self.latest = 0.0
        self._skip = engine.events_consumed
        self._cisco_memo: CiscoMemo = {}

    @property
    def replaying(self) -> bool:
        """Still fast-forwarding through already-consumed events?"""
        return self._skip > 0

    def feed_line(self, line: str) -> None:
        """Consume one complete journal line."""
        self.lines_seen += 1
        if not line.strip():
            return
        message, reason = try_parse_syslog_line(line, after=self.latest)
        if message is None:
            self.report.record(
                CHANNEL_SYSLOG,
                reason or "malformed-line",
                index=self.lines_seen,
                sample=line,
            )
            return
        self.latest = max(self.latest, message.timestamp)
        entry = collected_entry(
            self._cisco_memo, message.timestamp, message.hostname, message.body
        )
        kind, link_message = classify_entry(entry, self.context.resolver)
        time = (
            link_message.time
            if link_message is not None
            else entry.generated_time
        )
        event = StreamEvent(time, SYSLOG_CHANNEL, kind, link_message)
        try:
            released = self.reorder.push(event)
        except ValueError:
            # The transport bound was violated; delivering the event
            # would break event-time order, so it is shed — attributed,
            # exactly like any other loss.
            self.report.record(
                CHANNEL_SERVICE,
                REASON_LATE_ARRIVAL,
                index=self.lines_seen,
                sample=line,
            )
            return
        for item in released:
            self._deliver(item)

    def _deliver(self, event: StreamEvent) -> None:
        if self._skip > 0:
            self._skip -= 1
            return
        self.engine.process(event)

    def finish(self) -> StreamResult:
        """Flush the reorder buffer and finalise the engine."""
        for event in self.reorder.flush():
            self._deliver(event)
        return self.engine.finish()


def replay_lines(
    context: TenantContext,
    lines: List[str],
    *,
    options: Optional[StreamOptions] = None,
    lateness: float = DEFAULT_LATENESS,
) -> Tuple[StreamResult, IngestReport]:
    """One-shot clean run: the lines straight through a fresh pipeline.

    This is the comparator every service identity check measures against:
    a live tenant — restarted, flooded, or fed torn frames — must end
    with exactly this result for the lines its journal actually holds.
    """
    pipeline = TenantPipeline(context, options=options, lateness=lateness)
    for line in lines:
        pipeline.feed_line(line)
    return pipeline.finish(), pipeline.report


def _ledger_document(report: IngestReport) -> Dict[str, Any]:
    return report.to_json()


def _heartbeat_document(
    *,
    seq: int,
    pipeline: TenantPipeline,
    tailer: LogTailer,
    draining: bool,
) -> Dict[str, Any]:
    engine = pipeline.engine
    return {
        "pid": os.getpid(),
        "seq": seq,
        "journal_offset": tailer.offset,
        "pending_bytes": tailer.pending_bytes,
        "lines_seen": pipeline.lines_seen,
        "events_consumed": engine.events_consumed,
        "watermark": None
        if engine.watermark == float("-inf")
        else engine.watermark,
        "replaying": pipeline.replaying,
        "draining": draining,
        "dropped": pipeline.report.dropped(),
        "ledger": _ledger_document(pipeline.report),
    }


def run_worker(config: Dict[str, Any], *, clock: Optional[Clock] = None) -> int:
    """The worker loop (separated from the entry point for testing).

    ``config`` is a plain JSON-able dict (it crosses a process spawn):

    ``tenant``, ``profile_dir``, ``state_dir`` — identity and paths;
    ``lateness``, ``checkpoint_every``, ``heartbeat_interval``,
    ``poll_interval`` — knobs; ``crash_after_lines`` /
    ``hang_after_lines`` — chaos hooks (see below), absent in normal
    operation.

    Returns a process exit code: 0 after a clean drain, 1 when the
    profile cannot be loaded.
    """
    clock = clock if clock is not None else Clock()
    tenant = config["tenant"]
    state_dir = Path(config["state_dir"])
    checkpoint_path = state_dir / CHECKPOINT_FILE
    stop_path = state_dir / STOP_FILE
    checkpoint_every = int(config.get("checkpoint_every", 2000))
    heartbeat_interval = float(config.get("heartbeat_interval", 0.2))
    poll_interval = float(config.get("poll_interval", 0.05))
    crash_after = config.get("crash_after_lines")
    hang_after = config.get("hang_after_lines")

    try:
        context = load_tenant_context(tenant, config["profile_dir"])
    except (OSError, ValueError, KeyError) as error:
        write_json_atomic(
            state_dir / REPORT_FILE,
            {"tenant": tenant, "error": f"profile unusable: {error}"},
        )
        return 1

    report = IngestReport()
    engine: Optional[StreamEngine] = None
    if checkpoint_path.exists():
        try:
            state = load_checkpoint(str(checkpoint_path))
            engine = StreamEngine.restore(
                state,
                context.resolver,
                context.listener_outages,
                context.tickets,
            )
        except CheckpointError as error:
            # A corrupt checkpoint is recoverable damage, not death: the
            # journal replays from byte zero into a fresh engine.  The
            # fallback is recorded so the degradation is visible.
            report.record(
                CHANNEL_CHECKPOINT, REASON_BAD_CHECKPOINT, sample=str(error)
            )
            engine = None

    pipeline = TenantPipeline(
        context,
        lateness=float(config.get("lateness", DEFAULT_LATENESS)),
        report=report,
        engine=engine,
    )
    tailer = LogTailer(state_dir / JOURNAL_FILE)
    seq = 0
    last_beat = -heartbeat_interval  # beat immediately on entry
    last_checkpoint_events = pipeline.engine.events_consumed

    while True:
        lines = tailer.poll()
        for line in lines:
            pipeline.feed_line(line)
            if crash_after is not None and pipeline.lines_seen >= crash_after:
                # Chaos hook: simulate an abrupt worker death (no flush,
                # no checkpoint, no heartbeat) at an arbitrary point.
                os._exit(13)
            if hang_after is not None and pipeline.lines_seen >= hang_after:
                # Chaos hook: simulate a wedged worker — alive but
                # silent, which only the heartbeat watchdog can catch.
                while True:
                    clock.sleep(3600.0)
            if (
                not pipeline.replaying
                and pipeline.engine.events_consumed - last_checkpoint_events
                >= checkpoint_every
            ):
                save_checkpoint(str(checkpoint_path), pipeline.engine)
                last_checkpoint_events = pipeline.engine.events_consumed

        now = clock.now()
        if now - last_beat >= heartbeat_interval:
            seq += 1
            write_json_atomic(
                state_dir / HEARTBEAT_FILE,
                _heartbeat_document(
                    seq=seq, pipeline=pipeline, tailer=tailer, draining=False
                ),
            )
            last_beat = now

        if stop_path.exists() and not lines:
            break
        if not lines:
            clock.sleep(poll_interval)

    # Drain: the frontend has stopped writing.  One final poll closes
    # the race between the stop marker and the last journal append, then
    # a torn final line (frontend died mid-write) is attributed.
    for line in tailer.poll():
        pipeline.feed_line(line)
    fragment = tailer.close_partial()
    if fragment is not None:
        report.record(CHANNEL_SERVICE, REASON_TORN_JOURNAL, sample=fragment)

    result = pipeline.finish()
    from repro.faults.chaos import stream_signature

    write_json_atomic(
        state_dir / REPORT_FILE,
        {
            "tenant": tenant,
            "signature": stream_signature(result),
            "events": result.counters["events"],
            "lines_seen": pipeline.lines_seen,
            "journal_offset": tailer.offset,
            "syslog_failures": len(result.syslog_failures),
            "flap_episodes": len(result.flap_episodes),
            "dropped": report.dropped(),
            "ledger": _ledger_document(report),
        },
    )
    seq += 1
    write_json_atomic(
        state_dir / HEARTBEAT_FILE,
        _heartbeat_document(
            seq=seq, pipeline=pipeline, tailer=tailer, draining=True
        ),
    )
    return 0


def tenant_worker_main(config: Dict[str, Any]) -> None:
    """Process entry point for one tenant worker (picklable, top level)."""
    # A terminal Ctrl-C signals the whole foreground process group; the
    # worker must not die mid-line on it.  Graceful shutdown is the
    # supervisor's job (the stop file), so the worker ignores SIGINT
    # and drains exactly as it would under `service.stop()`.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(run_worker(config))


def read_heartbeat(state_dir: "str | Path") -> Optional[Dict[str, Any]]:
    """The tenant's last heartbeat document, or ``None``."""
    return read_json(Path(state_dir) / HEARTBEAT_FILE)


def read_report(state_dir: "str | Path") -> Optional[Dict[str, Any]]:
    """The tenant's final drain report document, or ``None``."""
    return read_json(Path(state_dir) / REPORT_FILE)
