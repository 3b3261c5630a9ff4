"""Chaos scenarios for the always-on service (``repro chaos``).

These extend the fault-injection harness from artifacts at rest to the
live service: each scenario stands up a real :class:`Service` on
loopback, drives it over real sockets, injures it — a worker killed
mid-stream, a flood past the high-water mark, torn and duplicated TCP
frames, a checkpoint corrupted between restarts — and asserts the same
two invariants the rest of the harness enforces:

* **every loss is attributed** — the arithmetic ``sent = journalled +
  shed`` and ``lines = events + drops`` closes exactly against the
  frontend and worker ledgers;
* **degradation is bounded and recovery is exact** — after the injury
  heals, the tenant's final report is byte-identical to a clean
  in-process run (:func:`~repro.service.worker.replay_lines`) over the
  same delivered lines.

The scenarios use the harness's pristine campaign directory as the
tenant profile and its syslog text as the live corpus, so everything
derives from the chaos seed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injectors import corrupt_segment
from repro.faults.ledger import CHANNEL_CHECKPOINT, CHANNEL_SERVICE
from repro.service.clock import Clock
from repro.service.framing import (
    REASON_BAD_FRAME,
    REASON_TORN_FRAME,
    encode_lf_delimited,
    encode_octet_counted,
)
from repro.service.profile import load_tenant_context
from repro.service.supervisor import Service, ServiceConfig, TenantConfig
from repro.service.worker import (
    CHECKPOINT_FILE,
    REASON_BAD_CHECKPOINT,
    replay_lines,
)
from repro.stream.checkpoint import segment_path

#: Wall-clock ceiling for any single wait (the scenarios poll state, so
#: normal runs finish far sooner; the ceiling only bounds a hung run).
WAIT_CEILING = 120.0


def corpus_lines(syslog_text: str) -> List[str]:
    """The live corpus: the campaign's central log, one line per message."""
    return [line for line in syslog_text.split("\n") if line.strip()]


def _tenant_service(
    chaos: "_Chaos",  # noqa: F821
    name: str,
    *,
    tenant_overrides: Optional[Dict[str, object]] = None,
    service_overrides: Optional[Dict[str, object]] = None,
) -> Service:
    """One-tenant service over the pristine campaign, state under the
    chaos work directory."""
    tenant_kwargs: Dict[str, object] = {
        "name": "tenant0",
        "profile_dir": str(chaos.pristine_dir),
        "checkpoint_every": 50,
    }
    tenant_kwargs.update(tenant_overrides or {})
    service_kwargs: Dict[str, object] = {
        "state_dir": str(Path(chaos.root) / name / "state"),
        "seed": chaos.seed,
        "watchdog_timeout": 10.0,
        "backoff_base": 0.1,
        "backoff_cap": 0.5,
    }
    service_kwargs.update(service_overrides or {})
    return Service(
        ServiceConfig(tenants=[TenantConfig(**tenant_kwargs)], **service_kwargs)
    )


def _wait_for(
    clock: Clock,
    predicate: Callable[[], bool],
    label: str,
    outcome: "ScenarioOutcome",  # noqa: F821
    *,
    ceiling: float = WAIT_CEILING,
) -> bool:
    """Poll until ``predicate`` holds; a ceiling hit fails the scenario."""
    deadline = clock.now() + ceiling
    while clock.now() < deadline:
        if predicate():
            return True
        clock.sleep(0.05)
    outcome.check(False, f"timed out waiting for {label}")
    return False


def _send_lines(
    port: int, lines: List[str], encode: Callable[[str], bytes]
) -> None:
    with socket.create_connection(("127.0.0.1", port)) as sock:
        for line in lines:
            sock.sendall(encode(line))


def _accounting_closes(
    outcome: "ScenarioOutcome",  # noqa: F821
    result: Dict[str, object],
    sent: int,
) -> None:
    """The zero-unattributed-loss arithmetic, checked at both stages."""
    journalled = result["journal_lines"]
    shed = result["shed"]
    outcome.check(
        result["received"] == sent,
        f"transport delivered all {sent} sent lines",
    )
    outcome.check(
        journalled + shed == result["received"],
        f"frontend closes: {journalled} journalled + {shed} shed "
        f"= {result['received']} received",
    )
    report = result.get("report")
    outcome.check(report is not None, "worker produced its final report")
    if report is None:
        return
    outcome.check(
        report["lines_seen"] == journalled,
        f"worker consumed every journalled line ({journalled})",
    )
    parsed_away = report["lines_seen"] - report["events"]
    outcome.check(
        parsed_away <= report["dropped"],
        f"worker closes: {report['lines_seen']} lines = {report['events']} "
        f"events + ≤{report['dropped']} attributed drops",
    )


def _scenario_worker_kill(chaos: "_Chaos") -> "ScenarioOutcome":  # noqa: F821
    """Kill the worker mid-stream; restart must resume byte-identically."""
    from repro.faults.chaos import ScenarioOutcome, stream_signature

    outcome = ScenarioOutcome("service-worker-kill")
    clock = Clock()
    lines = corpus_lines(chaos.pristine.syslog_text)
    half = len(lines) // 2
    service = _tenant_service(chaos, "service-worker-kill")
    service.start()
    try:
        runtime = service.tenants["tenant0"]
        checkpoint_path = runtime.state_dir / CHECKPOINT_FILE
        _send_lines(runtime.tcp_port, lines[:half], encode_lf_delimited)
        if not _wait_for(
            clock,
            lambda: checkpoint_path.exists(),
            "a checkpoint before the kill",
            outcome,
        ):
            return outcome
        os.kill(runtime.process.pid, signal.SIGKILL)
        checkpointed = checkpoint_path.exists()
        _send_lines(runtime.tcp_port, lines[half:], encode_lf_delimited)
        if not _wait_for(
            clock,
            lambda: (
                lambda t: t["state"] == "running"
                and t["worker"]["lines_seen"] >= len(lines)
            )(service.status()["tenants"]["tenant0"]),
            "restarted worker to catch up",
            outcome,
        ):
            return outcome
    finally:
        results = service.stop()
    result = results["tenant0"]
    outcome.check(checkpointed, "a checkpoint existed before the kill")
    outcome.check(
        result["restarts"] == 1, f"exactly one restart ({result['restarts']})"
    )
    _accounting_closes(outcome, result, len(lines))
    clean, _ = replay_lines(
        load_tenant_context("tenant0", chaos.pristine_dir), lines
    )
    if result["report"] is not None:
        outcome.check(
            result["report"]["signature"] == stream_signature(clean),
            "post-restart report byte-identical to a clean run",
        )
        outcome.drops = result["report"]["dropped"] + result["frontend_dropped"]
        outcome.check(outcome.drops == 0, "no message lost to the kill")
    return outcome


def _scenario_flood(chaos: "_Chaos") -> "ScenarioOutcome":  # noqa: F821
    """Flood past high-water: shedding is typed, bounded, and accounted."""
    from repro.faults.chaos import ScenarioOutcome

    outcome = ScenarioOutcome("service-flood")
    clock = Clock()
    base = corpus_lines(chaos.pristine.syslog_text)
    # The flood replays the corpus repeatedly — far faster than the
    # worker's high-water allowance, so the ingress buffer must shed.
    flood = base * 10
    service = _tenant_service(
        chaos,
        "service-flood",
        tenant_overrides={"high_water": 50, "buffer_capacity": 100},
    )
    service.start()
    try:
        runtime = service.tenants["tenant0"]
        _send_lines(runtime.tcp_port, flood, encode_octet_counted)
        _wait_for(
            clock,
            lambda: (
                lambda t: t["queue_depth"] == 0
                and t["worker"]["lines_seen"] >= t["journal_lines"] > 0
            )(service.status()["tenants"]["tenant0"]),
            "flood to drain",
            outcome,
        )
    finally:
        results = service.stop()
    result = results["tenant0"]
    shed = result["shed"]
    outcome.drops = result["frontend_dropped"] + (
        result["report"]["dropped"] if result["report"] else 0
    )
    outcome.check(shed > 0, f"flood forced shedding ({shed} lines)")
    frontend = result["frontend_ledger"].get(CHANNEL_SERVICE, {})
    outcome.check(
        frontend.get("reasons", {}).get("backpressure", 0) == shed,
        "every shed line ledgered with the backpressure reason",
    )
    outcome.check(
        result["state"] == "stopped" and result["restarts"] == 0,
        "worker survived the flood without a restart",
    )
    _accounting_closes(outcome, result, len(flood))
    return outcome


def _scenario_torn_frames(chaos: "_Chaos") -> "ScenarioOutcome":  # noqa: F821
    """Torn, duplicated, and garbage TCP frames: damage attributed,
    valid lines unharmed."""
    from repro.faults.chaos import ScenarioOutcome, stream_signature

    outcome = ScenarioOutcome("service-torn-frames")
    clock = Clock()
    lines = corpus_lines(chaos.pristine.syslog_text)
    half = len(lines) // 2
    service = _tenant_service(chaos, "service-torn-frames")
    service.start()
    try:
        runtime = service.tenants["tenant0"]
        port = runtime.tcp_port
        delivered: List[str] = []

        # Connection 1: octet-counted, dribbled a few bytes at a time
        # (frames torn at arbitrary byte boundaries must reassemble),
        # with a garbage length prefix injected mid-stream and one frame
        # sent twice (duplication is data, not damage).
        with socket.create_connection(("127.0.0.1", port)) as sock:
            payload = bytearray()
            for index, line in enumerate(lines[:half]):
                payload += encode_octet_counted(line)
                delivered.append(line)
                if index == half // 2:
                    payload += b"99x this is not an octet count\n"
                    payload += encode_octet_counted(line)
                    delivered.append(line)
            step = 7  # prime-sized chunks tear every frame eventually
            for start in range(0, len(payload), step):
                sock.sendall(bytes(payload[start : start + step]))

        # The journal must absorb connection 1 before connection 2 opens
        # — the comparator replays `delivered` in order, so the two
        # connections' lines must not interleave in the journal.
        if not _wait_for(
            clock,
            lambda: service.status()["tenants"]["tenant0"]["journal_lines"]
            >= len(delivered),
            "connection 1 to reach the journal",
            outcome,
        ):
            return outcome

        # Connection 2: LF-framed remainder, closed mid-line so the
        # final frame is genuinely torn.
        with socket.create_connection(("127.0.0.1", port)) as sock:
            for line in lines[half:]:
                sock.sendall(encode_lf_delimited(line))
                delivered.append(line)
            sock.sendall(b"<189>Oct 99 torn mid-write")  # no newline, then FIN

        _wait_for(
            clock,
            lambda: (
                lambda t: t["worker"]["lines_seen"] >= len(delivered)
            )(service.status()["tenants"]["tenant0"]),
            "damaged stream to drain",
            outcome,
        )
    finally:
        results = service.stop()
    result = results["tenant0"]
    frontend = result["frontend_ledger"].get(CHANNEL_SERVICE, {})
    reasons = frontend.get("reasons", {})
    outcome.drops = result["frontend_dropped"]
    outcome.check(
        reasons.get(REASON_BAD_FRAME, 0) == 1,
        "garbage octet prefix ledgered as bad-frame",
    )
    outcome.check(
        reasons.get(REASON_TORN_FRAME, 0) == 1,
        "mid-line connection close ledgered as torn-frame",
    )
    outcome.check(
        result["journal_lines"] == len(delivered),
        f"all {len(delivered)} valid lines (including the duplicate) "
        "survived the damage",
    )
    clean, _ = replay_lines(
        load_tenant_context("tenant0", chaos.pristine_dir), delivered
    )
    if result["report"] is not None:
        outcome.check(
            result["report"]["signature"] == stream_signature(clean),
            "report byte-identical to a clean run over the valid lines",
        )
    else:
        outcome.check(False, "worker produced its final report")
    return outcome


def _tear_frontier(state_dir: Path, rng: random.Random) -> None:
    # A torn frontier write: a truncated JSON prefix.
    path = state_dir / CHECKPOINT_FILE
    raw = path.read_bytes()
    path.write_bytes(raw[: max(1, len(raw) // 3)])


#: Damage done to a tenant's state directory between death and restart.
_Damage = Callable[[Path, random.Random], None]


def _segment_damage(mode: str) -> _Damage:
    def damage(state_dir: Path, rng: random.Random) -> None:
        frontier = json.loads((state_dir / CHECKPOINT_FILE).read_bytes())
        segment = Path(segment_path(str(state_dir / CHECKPOINT_FILE)))
        segment.write_bytes(
            corrupt_segment(
                segment.read_bytes(), frontier["segment"]["length"], rng, mode
            )
        )

    return damage


#: Checkpoint damage applied between a worker's death and its restart:
#: (label, damage over the state directory, ledgered as corrupt?).
CHECKPOINT_DAMAGE: Tuple[Tuple[str, _Damage, bool], ...] = (
    ("frontier-torn", _tear_frontier, True),
    ("segment-tail", _segment_damage("tail"), False),
    ("segment-cut", _segment_damage("cut"), True),
    ("segment-bitflip", _segment_damage("bitflip"), True),
)


def _scenario_checkpoint_corrupt(chaos: "_Chaos") -> "ScenarioOutcome":  # noqa: F821
    """Damage the checkpoint between restarts, once per damage mode.

    A torn frontier, or a results segment cut or bit-flipped inside its
    committed region, makes the worker fall back to a full journal
    replay, ledgered exactly once; a torn segment tail past the
    committed length (a kill between append and rename) is absorbed
    silently.  Every run still recovers byte-identically.
    """
    from repro.faults.chaos import ScenarioOutcome, stream_signature

    outcome = ScenarioOutcome("service-checkpoint-corrupt")
    clock = Clock()
    rng = chaos.rng("service-checkpoint-corrupt")
    lines = corpus_lines(chaos.pristine.syslog_text)
    half = len(lines) // 2
    clean, _ = replay_lines(
        load_tenant_context("tenant0", chaos.pristine_dir), lines
    )
    for label, damage, ledgered in CHECKPOINT_DAMAGE:
        service = _tenant_service(chaos, f"service-checkpoint-corrupt-{label}")
        service.start()
        try:
            runtime = service.tenants["tenant0"]
            checkpoint_path = runtime.state_dir / CHECKPOINT_FILE
            _send_lines(runtime.tcp_port, lines[:half], encode_lf_delimited)
            if not _wait_for(
                clock,
                lambda: checkpoint_path.exists(),
                f"{label}: the first checkpoint write",
                outcome,
            ):
                return outcome
            worker = runtime.process
            os.kill(worker.pid, signal.SIGKILL)
            # SIGKILL is asynchronous: damage only a dead worker's files,
            # or a save still in flight could overwrite the damage.
            worker.join(timeout=WAIT_CEILING)
            damage(runtime.state_dir, rng)
            _send_lines(runtime.tcp_port, lines[half:], encode_lf_delimited)
            _wait_for(
                clock,
                lambda: (
                    lambda t: t["state"] == "running"
                    and t["worker"]["lines_seen"] >= len(lines)
                )(service.status()["tenants"]["tenant0"]),
                f"{label}: restarted worker to replay past the damage",
                outcome,
            )
        finally:
            results = service.stop()
        result = results["tenant0"]
        outcome.check(
            result["restarts"] == 1,
            f"{label}: exactly one restart ({result['restarts']})",
        )
        report = result.get("report")
        outcome.check(
            report is not None, f"{label}: worker produced its final report"
        )
        if report is None:
            return outcome
        outcome.drops += report["dropped"]
        checkpoint_ledger = report["ledger"].get(CHANNEL_CHECKPOINT, {})
        expected = 1 if ledgered else 0
        outcome.check(
            checkpoint_ledger.get("reasons", {}).get(REASON_BAD_CHECKPOINT, 0)
            == expected
            and report["dropped"] == expected
            and result["frontend_dropped"] == 0,
            f"{label}: ledger holds {expected} corrupt-checkpoint drop(s), "
            f"nothing else",
        )
        outcome.check(
            report["signature"] == stream_signature(clean),
            f"{label}: recovery byte-identical to a clean run",
        )
    return outcome


def service_scenarios() -> List[Tuple[str, Callable[..., object]]]:
    """The service scenarios, in the harness's (name, callable) shape."""
    return [
        ("service-worker-kill", _scenario_worker_kill),
        ("service-flood", _scenario_flood),
        ("service-torn-frames", _scenario_torn_frames),
        ("service-checkpoint-corrupt", _scenario_checkpoint_corrupt),
    ]
