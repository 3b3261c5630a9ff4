"""The always-on supervisor: sockets in front, tenant workers behind.

One :class:`Service` owns, per tenant, a TCP listener and a UDP socket
(RFC 3164 datagrams; RFC 6587 framing over TCP), a bounded ingress
buffer, an append-only **journal**, and one worker process running
:func:`repro.service.worker.tenant_worker_main`.  The data path is:

    sockets → frame decode → bounded buffer → journal → worker → engine

The journal is the frontend/worker queue *and* the durability layer:
everything written to it survives any worker death, and the worker's
state is a pure function of its bytes (see :mod:`repro.service.worker`).
The supervisor therefore never re-sends anything — failover is entirely
the worker's replay.

Degradation is explicit at every stage.  Framing damage is ledgered by
the decoder; when a worker lags more than ``high_water`` journal lines,
journalling pauses and the ingress buffer absorbs the flood, shedding
oldest-first into the tenant's frontend ledger with the typed
``backpressure`` reason once it overflows.  Nothing is ever dropped
without a ledger entry — the chaos flood scenario closes the arithmetic
line by line.

Crash/hang detection is heartbeat-based: each worker bumps a sequence
number in an atomically-replaced heartbeat file; the watchdog kills any
worker whose process died or whose sequence stalls past the timeout,
then restarts it with deterministic seeded exponential backoff
(:func:`repro.util.rand.child_rng` keyed by tenant and restart ordinal)
until the restart budget is exhausted, after which the tenant is marked
``failed`` and left down — a supervisor must degrade one tenant, never
the service.
"""

from __future__ import annotations

import multiprocessing
import selectors
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.faults.ledger import CHANNEL_SERVICE, IngestReport
from repro.service.buffer import REASON_BACKPRESSURE, BoundedLineBuffer
from repro.service.clock import Clock
from repro.service.files import touch_marker
from repro.service.framing import FrameError, TcpFrameDecoder, decode_datagram
from repro.service.profile import validate_tenant_name
from repro.service.worker import (
    DEFAULT_LATENESS,
    HEARTBEAT_FILE,
    REPORT_FILE,
    STOP_FILE,
    read_heartbeat,
    read_report,
    tenant_worker_main,
)
from repro.util.rand import child_rng

#: Tenant lifecycle states the supervisor tracks.
STATE_RUNNING = "running"
STATE_BACKOFF = "backoff"
STATE_FAILED = "failed"
STATE_STOPPED = "stopped"

#: Lines journalled per pump batch (bounds time spent per loop tick).
_PUMP_BATCH = 1000


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's ports, profile, and degradation knobs."""

    name: str
    profile_dir: str
    tcp_port: int = 0  # 0 binds an ephemeral port (tests, bench)
    udp_port: int = 0
    high_water: int = 5000  # journal lag (lines) that pauses journalling
    buffer_capacity: int = 2000  # ingress lines held before shedding
    lateness: float = DEFAULT_LATENESS
    checkpoint_every: int = 2000

    def __post_init__(self) -> None:
        validate_tenant_name(self.name)
        if self.high_water < 1 or self.buffer_capacity < 1:
            raise ValueError("high_water and buffer_capacity must be positive")


@dataclass(frozen=True)
class ServiceConfig:
    """The whole service: tenants plus supervisor policy."""

    tenants: List[TenantConfig]
    state_dir: str
    host: str = "127.0.0.1"
    status_port: Optional[int] = None  # None disables the status server
    seed: int = 2013
    heartbeat_interval: float = 0.2
    poll_interval: float = 0.05
    watchdog_timeout: float = 10.0
    restart_budget: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "ServiceConfig":
        """Build a config from a JSON document (the CLI's input format)."""
        tenants = [TenantConfig(**raw) for raw in document.get("tenants", [])]
        fields = {
            key: value
            for key, value in document.items()
            if key != "tenants"
        }
        return cls(tenants=tenants, **fields)


@dataclass
class _Connection:
    """One accepted TCP connection and its per-connection decoder."""

    sock: socket.socket
    runtime: "_TenantRuntime"
    decoder: TcpFrameDecoder = field(default_factory=TcpFrameDecoder)


class _TenantRuntime:
    """Supervisor-side state of one tenant."""

    def __init__(self, config: TenantConfig, state_dir: Path) -> None:
        self.config = config
        self.state_dir = state_dir
        self.buffer = BoundedLineBuffer(config.buffer_capacity)
        self.ledger = IngestReport()  # frontend: framing + backpressure
        self.received_lines = 0  # decoded lines that reached the buffer
        self.journal_lines = 0
        self.journal_bytes = 0
        self.journal_handle: Optional[Any] = None
        self.process: Optional[multiprocessing.Process] = None
        self.state = STATE_STOPPED
        self.restarts = 0
        self.next_restart = 0.0
        self.last_seq = -1
        self.last_seq_change = 0.0
        self.chaos_knobs: Dict[str, Any] = {}  # one-shot, first spawn only
        self.tcp_socket: Optional[socket.socket] = None
        self.udp_socket: Optional[socket.socket] = None
        self.tcp_port = config.tcp_port
        self.udp_port = config.udp_port
        self.journal_path = state_dir / "journal.log"
        self.cached_lines_seen = 0  # refreshed on each watchdog tick

    def journal_lag(self, lines_seen: int) -> int:
        return max(0, self.journal_lines - lines_seen)


class Service:
    """The supervised multi-tenant ingestion daemon.

    ``start()`` binds the sockets, spawns the workers, and runs the
    event loop in a background thread; ``stop()`` drains everything and
    returns the per-tenant final documents.  All timing flows through
    the injected :class:`~repro.service.clock.Clock`.
    """

    def __init__(
        self, config: ServiceConfig, *, clock: Optional[Clock] = None
    ) -> None:
        self.config = config
        self.clock = clock if clock is not None else Clock()
        state_root = Path(config.state_dir)
        self.tenants: Dict[str, _TenantRuntime] = {
            tenant.name: _TenantRuntime(tenant, state_root / tenant.name)
            for tenant in config.tenants
        }
        self._selector: Optional[selectors.BaseSelector] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_requested = False
        self._started = False
        self._status_server: Optional[Any] = None
        self.status_port: Optional[int] = None
        # Heartbeats are files; reading them every select tick for every
        # tenant would dominate a small machine.  The watchdog (which
        # also refreshes the cached worker progress the pump uses) runs
        # on its own, coarser cadence.
        self._watchdog_interval = min(0.25, self.config.watchdog_timeout / 4)
        self._last_watchdog = -self._watchdog_interval

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._selector = selectors.DefaultSelector()
        for runtime in self.tenants.values():
            self._start_tenant(runtime)
        if self.config.status_port is not None:
            from repro.service.status import start_status_server

            self._status_server, self.status_port = start_status_server(
                self, self.config.host, self.config.status_port
            )
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-loop", daemon=True
        )
        self._thread.start()

    def _start_tenant(self, runtime: _TenantRuntime) -> None:
        runtime.state_dir.mkdir(parents=True, exist_ok=True)
        # A previous run's control files would instantly stop or confuse
        # the new worker; the journal and checkpoint stay — they are the
        # durable state this run resumes from.
        for leftover in (STOP_FILE, HEARTBEAT_FILE, REPORT_FILE):
            path = runtime.state_dir / leftover
            if path.exists():
                path.unlink()
        if runtime.journal_path.exists():
            existing = runtime.journal_path.read_bytes()
            runtime.journal_bytes = len(existing)
            runtime.journal_lines = existing.count(b"\n")
        runtime.journal_handle = open(runtime.journal_path, "ab")

        host = self.config.host
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        tcp.bind((host, runtime.config.tcp_port))
        tcp.listen(64)
        tcp.setblocking(False)
        runtime.tcp_socket = tcp
        runtime.tcp_port = tcp.getsockname()[1]
        self._selector.register(tcp, selectors.EVENT_READ, ("accept", runtime))

        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        udp.bind((host, runtime.config.udp_port))
        udp.setblocking(False)
        runtime.udp_socket = udp
        runtime.udp_port = udp.getsockname()[1]
        self._selector.register(udp, selectors.EVENT_READ, ("udp", runtime))

        self._spawn_worker(runtime)

    def _worker_config(self, runtime: _TenantRuntime) -> Dict[str, Any]:
        config = {
            "tenant": runtime.config.name,
            "profile_dir": runtime.config.profile_dir,
            "state_dir": str(runtime.state_dir),
            "lateness": runtime.config.lateness,
            "checkpoint_every": runtime.config.checkpoint_every,
            "heartbeat_interval": self.config.heartbeat_interval,
            "poll_interval": self.config.poll_interval,
        }
        config.update(runtime.chaos_knobs)
        runtime.chaos_knobs = {}  # knobs fire once; restarts run clean
        return config

    def _spawn_worker(self, runtime: _TenantRuntime) -> None:
        process = multiprocessing.Process(
            target=tenant_worker_main,
            args=(self._worker_config(runtime),),
            daemon=True,
        )
        process.start()
        runtime.process = process
        runtime.state = STATE_RUNNING
        runtime.last_seq = -1
        runtime.last_seq_change = self.clock.now()

    # ------------------------------------------------------------ main loop
    def _loop(self) -> None:
        while not self._stop_requested:
            events = self._selector.select(timeout=self.config.poll_interval)
            for key, _ in events:
                kind, payload = key.data
                if kind == "accept":
                    self._accept(payload)
                elif kind == "udp":
                    self._read_udp(payload)
                else:
                    self._read_conn(key.fileobj, payload)
            self._pump()
            self._watchdog()

    def _accept(self, runtime: _TenantRuntime) -> None:
        try:
            conn, _addr = runtime.tcp_socket.accept()
        except OSError:
            return
        conn.setblocking(False)
        connection = _Connection(sock=conn, runtime=runtime)
        self._selector.register(
            conn, selectors.EVENT_READ, ("conn", connection)
        )

    def _read_udp(self, runtime: _TenantRuntime) -> None:
        while True:
            try:
                data, _addr = runtime.udp_socket.recvfrom(65536)
            except BlockingIOError:
                return
            except OSError:
                return
            self._ingest(runtime, decode_datagram(data))

    def _read_conn(self, sock: socket.socket, connection: _Connection) -> None:
        try:
            data = sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if data:
            items = connection.decoder.feed(data)
        else:
            items = connection.decoder.close()
            self._selector.unregister(sock)
            sock.close()
        for item in items:
            if isinstance(item, FrameError):
                connection.runtime.ledger.record(
                    CHANNEL_SERVICE, item.reason, sample=item.sample
                )
            else:
                self._ingest(connection.runtime, item)

    def _ingest(self, runtime: _TenantRuntime, line: str) -> None:
        if not line:
            return
        runtime.received_lines += 1
        for evicted in runtime.buffer.push(line):
            runtime.ledger.record(
                CHANNEL_SERVICE, REASON_BACKPRESSURE, sample=evicted
            )

    def _pump(self) -> None:
        for runtime in self.tenants.values():
            if not len(runtime.buffer):
                continue
            lag = runtime.journal_lag(runtime.cached_lines_seen)
            room = runtime.config.high_water - lag
            if room <= 0:
                continue  # worker is drowning; let the buffer absorb/shed
            self._journal(runtime, runtime.buffer.drain(min(room, _PUMP_BATCH)))

    def _journal(self, runtime: _TenantRuntime, lines: List[str]) -> None:
        if not lines:
            return
        payload = b"".join(
            line.encode("utf-8", errors="replace") + b"\n" for line in lines
        )
        runtime.journal_handle.write(payload)
        runtime.journal_handle.flush()
        runtime.journal_lines += len(lines)
        runtime.journal_bytes += len(payload)

    # ------------------------------------------------------------- watchdog
    def _watchdog(self) -> None:
        now = self.clock.now()
        if now - self._last_watchdog < self._watchdog_interval:
            return
        self._last_watchdog = now
        for runtime in self.tenants.values():
            if runtime.state == STATE_BACKOFF:
                if now >= runtime.next_restart:
                    self._spawn_worker(runtime)
                continue
            if runtime.state != STATE_RUNNING:
                continue
            heartbeat = read_heartbeat(runtime.state_dir)
            if heartbeat is not None:
                runtime.cached_lines_seen = int(heartbeat.get("lines_seen", 0))
            process = runtime.process
            if process is not None and process.exitcode is not None:
                self._schedule_restart(runtime, f"exited {process.exitcode}")
                continue
            if heartbeat is not None and heartbeat["seq"] != runtime.last_seq:
                runtime.last_seq = heartbeat["seq"]
                runtime.last_seq_change = now
            elif now - runtime.last_seq_change > self.config.watchdog_timeout:
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                self._schedule_restart(runtime, "heartbeat stalled")

    def _schedule_restart(self, runtime: _TenantRuntime, cause: str) -> None:
        runtime.restarts += 1
        if runtime.restarts > self.config.restart_budget:
            runtime.state = STATE_FAILED
            runtime.ledger.record(
                CHANNEL_SERVICE,
                "restart-budget-exhausted",
                sample=f"{cause}; {runtime.restarts - 1} restarts used",
            )
            return
        runtime.state = STATE_BACKOFF
        runtime.next_restart = self.clock.now() + restart_backoff(
            self.config.seed,
            runtime.config.name,
            runtime.restarts,
            base=self.config.backoff_base,
            cap=self.config.backoff_cap,
        )

    # --------------------------------------------------------------- status
    def status(self) -> Dict[str, Any]:
        """Per-tenant health, assembled from live supervisor state and
        each worker's last heartbeat (the status endpoint's document)."""
        tenants: Dict[str, Any] = {}
        for name, runtime in sorted(self.tenants.items()):
            heartbeat = read_heartbeat(runtime.state_dir) or {}
            lines_seen = int(heartbeat.get("lines_seen", 0))
            tenants[name] = {
                "state": runtime.state,
                "tcp_port": runtime.tcp_port,
                "udp_port": runtime.udp_port,
                "received": runtime.received_lines,
                "journal_lines": runtime.journal_lines,
                "journal_bytes": runtime.journal_bytes,
                "queue_depth": len(runtime.buffer)
                + runtime.journal_lag(lines_seen),
                "lag_lines": runtime.journal_lag(lines_seen),
                "buffered": len(runtime.buffer),
                "shed": runtime.buffer.shed,
                "restarts": runtime.restarts,
                "frontend_dropped": runtime.ledger.dropped(),
                "worker": {
                    "lines_seen": lines_seen,
                    "events_consumed": heartbeat.get("events_consumed", 0),
                    "watermark": heartbeat.get("watermark"),
                    "dropped": heartbeat.get("dropped", 0),
                    "replaying": heartbeat.get("replaying", False),
                    "draining": heartbeat.get("draining", False),
                },
            }
        return {"tenants": tenants}

    # ----------------------------------------------------------------- stop
    def stop(self, *, drain_timeout: float = 60.0) -> Dict[str, Any]:
        """Drain and shut down; returns the per-tenant final documents.

        The sequence mirrors what correctness needs: stop accepting,
        flush every buffered line to the journal (backpressure no longer
        applies — the journal is durable and the flood is over), ask
        each worker to drain via its stop marker, and collect the final
        report each worker writes after finishing its engine.
        """
        if not self._started:
            raise RuntimeError("service never started")
        self._stop_requested = True
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout)

        # Close transport: listening sockets, then every open connection
        # (torn in-flight frames are attributed by the decoder's close).
        for key in list(self._selector.get_map().values()):
            kind, payload = key.data
            if kind == "conn":
                for item in payload.decoder.close():
                    if isinstance(item, FrameError):
                        payload.runtime.ledger.record(
                            CHANNEL_SERVICE, item.reason, sample=item.sample
                        )
                    else:
                        self._ingest(payload.runtime, item)
            self._selector.unregister(key.fileobj)
            key.fileobj.close()
        self._selector.close()

        results: Dict[str, Any] = {}
        deadline = self.clock.now() + drain_timeout
        for name, runtime in sorted(self.tenants.items()):
            self._journal(runtime, runtime.buffer.drain(len(runtime.buffer)))
            runtime.journal_handle.close()
            touch_marker(runtime.state_dir / STOP_FILE)
            # A tenant waiting out a backoff still owns journal bytes no
            # worker will otherwise consume — give it one drain worker.
            if runtime.state == STATE_BACKOFF:
                self._spawn_worker(runtime)
            process = runtime.process
            if process is not None and runtime.state == STATE_RUNNING:
                process.join(timeout=max(0.1, deadline - self.clock.now()))
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                    runtime.state = STATE_FAILED
                else:
                    runtime.state = STATE_STOPPED
            results[name] = {
                "state": runtime.state,
                "restarts": runtime.restarts,
                "received": runtime.received_lines,
                "journal_lines": runtime.journal_lines,
                "shed": runtime.buffer.shed,
                "frontend_ledger": runtime.ledger.to_json(),
                "frontend_dropped": runtime.ledger.dropped(),
                "report": read_report(runtime.state_dir),
            }
        if self._status_server is not None:
            self._status_server.shutdown()
            self._status_server.server_close()
        return results


def restart_backoff(
    seed: int, tenant: str, attempt: int, *, base: float, cap: float
) -> float:
    """Deterministic seeded exponential backoff for restart ``attempt``.

    Doubling per attempt, capped, with ±25% seeded jitter so a fleet of
    tenants felled by one cause does not restart in lockstep — yet every
    delay is a pure function of ``(seed, tenant, attempt)``, so a chaos
    run replays its exact restart schedule.

    >>> a = restart_backoff(7, "acme", 1, base=0.25, cap=5.0)
    >>> a == restart_backoff(7, "acme", 1, base=0.25, cap=5.0)
    True
    >>> restart_backoff(7, "acme", 9, base=0.25, cap=5.0) <= 5.0 * 1.25
    True
    """
    if attempt < 1:
        raise ValueError("restart attempts are 1-based")
    rng = child_rng(seed, f"service:{tenant}:restart:{attempt}")
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    return delay * (0.75 + 0.5 * rng.random())
