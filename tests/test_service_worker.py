"""The tenant worker's failover arithmetic (`repro.service.worker`).

The journal is the single source of truth: the pipeline's state is a
pure function of the journal bytes, so a restart that restores the last
checkpoint, re-tails from byte zero, and skips `events_consumed`
released events must finish byte-identical to a never-killed run.
These tests prove that in-process — kill points swept across the
corpus, checkpoints namespaced per tenant, a kill mid-checkpoint-write
(frontier or results segment) leaving the previous checkpoint usable —
plus the ledger typing of every degradation `run_worker` can hit,
damaged results segments included.  One test crosses the real process
boundary: the supervisor's worker arguments, pickled and run in a
freshly spawned interpreter, must produce the in-process report.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
from pathlib import Path

import pytest

from repro.faults.chaos import stream_signature
from repro.faults.ledger import CHANNEL_CHECKPOINT, CHANNEL_SERVICE, CHANNEL_SYSLOG
from repro.service.profile import load_tenant_context
from repro.service.supervisor import Service, ServiceConfig, TenantConfig
from repro.service.worker import (
    CHECKPOINT_FILE,
    JOURNAL_FILE,
    REASON_BAD_CHECKPOINT,
    REASON_LATE_ARRIVAL,
    REASON_TORN_JOURNAL,
    STOP_FILE,
    TenantPipeline,
    read_report,
    replay_lines,
    run_worker,
    tenant_worker_main,
)
from repro.faults.injectors import corrupt_segment
from repro.stream import checkpoint as checkpoint_codec
from repro.stream.checkpoint import load_checkpoint, save_checkpoint, segment_path
from repro.stream.engine import StreamEngine
from repro.syslog.message import SyslogMessage, render_rfc5424
from repro.util.rand import child_rng
from repro.util.timefmt import format_timestamp


@pytest.fixture(scope="module")
def context(service_profile_dir):
    return load_tenant_context("tenant0", service_profile_dir)


@pytest.fixture(scope="module")
def corpus(service_profile_dir):
    text = (Path(service_profile_dir) / "syslog.log").read_text("utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) > 100  # the sweep below needs a real corpus
    return lines


@pytest.fixture(scope="module")
def clean(context, corpus):
    result, report = replay_lines(context, corpus)
    assert report.dropped() == 0
    return stream_signature(result)


def _restore(checkpoint_path, context) -> StreamEngine:
    return StreamEngine.restore(
        load_checkpoint(str(checkpoint_path)),
        context.resolver,
        context.listener_outages,
        context.tickets,
    )


class TestPipelineIdentity:
    def test_replay_is_deterministic(self, context, corpus, clean):
        result, _ = replay_lines(context, corpus)
        assert stream_signature(result) == clean

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_kill_anywhere_resume(self, tmp_path, context, corpus, clean, fraction):
        # Run to the kill point, checkpoint, throw the pipeline away —
        # then restore and replay the whole journal from byte zero.
        kill_at = int(len(corpus) * fraction)
        first = TenantPipeline(context)
        for line in corpus[:kill_at]:
            first.feed_line(line)
        checkpoint = tmp_path / f"ckpt-{kill_at}.json"
        save_checkpoint(str(checkpoint), first.engine)
        del first

        resumed = TenantPipeline(context, engine=_restore(checkpoint, context))
        assert resumed.replaying == (resumed.engine.events_consumed > 0)
        for line in corpus:
            resumed.feed_line(line)
        assert not resumed.replaying
        assert stream_signature(resumed.finish()) == clean
        assert resumed.report.dropped() == 0

    def test_mixed_dialect_feed_is_equivalent(self, context, corpus, clean):
        # Re-encoding part of the feed as RFC 5424 must not change the
        # analysis: both dialects resolve to the same message model.
        from repro.syslog.message import parse_syslog_line

        mixed = [
            render_rfc5424(parse_syslog_line(line)) if index % 3 == 0 else line
            for index, line in enumerate(corpus)
        ]
        result, report = replay_lines(context, mixed)
        assert report.dropped() == 0
        assert stream_signature(result) == clean


class TestPipelineLedger:
    def test_malformed_line_typed(self, context):
        pipeline = TenantPipeline(context)
        pipeline.feed_line("complete garbage")
        assert pipeline.report.reasons(CHANNEL_SYSLOG)["malformed-line"] == 1
        assert pipeline.lines_seen == 1

    def test_blank_lines_ignored(self, context):
        pipeline = TenantPipeline(context)
        pipeline.feed_line("   ")
        assert pipeline.report.dropped() == 0

    def test_late_arrival_shed_and_typed(self, context):
        pipeline = TenantPipeline(context, lateness=10.0)
        host = "lax-core-01"
        early = f"<189>{format_timestamp(100.0)} {host} chatter one"
        late = f"<189>{format_timestamp(50.0)} {host} chatter two"
        pipeline.feed_line(early)
        pipeline.feed_line(late)  # 50 s behind a 100 s watermark
        assert (
            pipeline.report.reasons(CHANNEL_SERVICE)[REASON_LATE_ARRIVAL] == 1
        )
        # The event total still closes: 1 delivered-or-buffered + 1 shed.
        pipeline.finish()
        assert pipeline.engine.events_consumed == 1


class TestConcurrentTenantCheckpoints:
    """Satellite: checkpoint namespacing and atomicity under multi-tenancy."""

    def test_checkpoints_namespaced_per_tenant(
        self, tmp_path, service_profile_dir, corpus
    ):
        # Two tenants over the same profile but different feed subsets:
        # each checkpoint lands in its own state directory, and each
        # resume must reproduce its *own* clean run, not the sibling's.
        alpha_ctx = load_tenant_context("alpha", service_profile_dir)
        beta_ctx = load_tenant_context("beta", service_profile_dir)
        feeds = {"alpha": corpus, "beta": corpus[: len(corpus) // 2]}
        contexts = {"alpha": alpha_ctx, "beta": beta_ctx}
        checkpoints = {}
        for name, ctx in contexts.items():
            pipeline = TenantPipeline(ctx)
            for line in feeds[name][: len(feeds[name]) // 2]:
                pipeline.feed_line(line)
            state_dir = tmp_path / name
            state_dir.mkdir()
            checkpoints[name] = state_dir / CHECKPOINT_FILE
            save_checkpoint(str(checkpoints[name]), pipeline.engine)
        assert checkpoints["alpha"] != checkpoints["beta"]

        signatures = {}
        for name, ctx in contexts.items():
            resumed = TenantPipeline(ctx, engine=_restore(checkpoints[name], ctx))
            for line in feeds[name]:
                resumed.feed_line(line)
            signatures[name] = stream_signature(resumed.finish())
        for name, ctx in contexts.items():
            result, _ = replay_lines(ctx, feeds[name])
            assert signatures[name] == stream_signature(result)
        assert signatures["alpha"] != signatures["beta"]

    def test_kill_during_checkpoint_write_keeps_previous(
        self, tmp_path, context, corpus, clean
    ):
        # A death mid-write leaves `<checkpoint>.tmp` torn but the renamed
        # previous checkpoint untouched — resume must load the old one.
        checkpoint = tmp_path / CHECKPOINT_FILE
        pipeline = TenantPipeline(context)
        for line in corpus[: len(corpus) // 2]:
            pipeline.feed_line(line)
        save_checkpoint(str(checkpoint), pipeline.engine)
        (tmp_path / f"{CHECKPOINT_FILE}.tmp").write_bytes(b'{"torn":')

        resumed = TenantPipeline(context, engine=_restore(checkpoint, context))
        for line in corpus:
            resumed.feed_line(line)
        assert stream_signature(resumed.finish()) == clean

    def test_kill_between_segment_append_and_rename_keeps_previous(
        self, tmp_path, monkeypatch, context, corpus, clean
    ):
        # A death after the results chunk is appended but before the new
        # frontier is renamed in: the old frontier's committed length
        # excludes the tail, so resume is exact and the tail is cut by
        # the next save.
        checkpoint = tmp_path / CHECKPOINT_FILE
        segment = Path(segment_path(str(checkpoint)))
        pipeline = TenantPipeline(context)
        for line in corpus[: len(corpus) // 3]:
            pipeline.feed_line(line)
        save_checkpoint(str(checkpoint), pipeline.engine)
        committed = segment.stat().st_size
        for line in corpus[len(corpus) // 3 : (2 * len(corpus)) // 3]:
            pipeline.feed_line(line)

        def killed(path, document):
            raise KeyboardInterrupt("killed before the rename")

        monkeypatch.setattr(checkpoint_codec, "write_json_atomic", killed)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(str(checkpoint), pipeline.engine)
        monkeypatch.undo()
        assert segment.stat().st_size > committed

        resumed = TenantPipeline(context, engine=_restore(checkpoint, context))
        restored_at = resumed.engine.events_consumed
        saved = False
        for line in corpus:
            resumed.feed_line(line)
            if not saved and resumed.engine.events_consumed >= restored_at + 50:
                save_checkpoint(str(checkpoint), resumed.engine)
                saved = True
        assert saved
        assert stream_signature(resumed.finish()) == clean
        state = load_checkpoint(str(checkpoint))
        assert state["segment"]["length"] == segment.stat().st_size
        assert len(state["results"]) == 2


class TestRunWorker:
    def _state_dir(self, tmp_path, corpus, *, tail=b""):
        state_dir = tmp_path / "tenant0"
        state_dir.mkdir()
        payload = "".join(f"{line}\n" for line in corpus).encode("utf-8")
        (state_dir / JOURNAL_FILE).write_bytes(payload + tail)
        (state_dir / STOP_FILE).touch()  # drain immediately
        return state_dir

    def _config(self, state_dir, profile_dir, **overrides):
        config = {
            "tenant": "tenant0",
            "profile_dir": profile_dir,
            "state_dir": str(state_dir),
            "checkpoint_every": 100,
            "heartbeat_interval": 0.01,
            "poll_interval": 0.01,
        }
        config.update(overrides)
        return config

    def test_clean_drain_writes_identical_report(
        self, tmp_path, service_profile_dir, corpus, clean
    ):
        state_dir = self._state_dir(tmp_path, corpus)
        assert run_worker(self._config(state_dir, service_profile_dir)) == 0
        report = read_report(state_dir)
        assert report["signature"] == clean
        assert report["lines_seen"] == len(corpus)
        assert report["dropped"] == 0
        assert (state_dir / CHECKPOINT_FILE).exists()

    def test_torn_journal_tail_attributed(
        self, tmp_path, service_profile_dir, corpus, clean
    ):
        state_dir = self._state_dir(tmp_path, corpus, tail=b"<189>torn mid-append")
        assert run_worker(self._config(state_dir, service_profile_dir)) == 0
        report = read_report(state_dir)
        assert report["signature"] == clean  # the torn tail never parsed
        assert (
            report["ledger"][CHANNEL_SERVICE]["reasons"][REASON_TORN_JOURNAL]
            == 1
        )

    def test_corrupt_checkpoint_recovers_by_full_replay(
        self, tmp_path, service_profile_dir, corpus, clean
    ):
        state_dir = self._state_dir(tmp_path, corpus)
        (state_dir / CHECKPOINT_FILE).write_bytes(b'{"schema": "torn')
        assert run_worker(self._config(state_dir, service_profile_dir)) == 0
        report = read_report(state_dir)
        assert report["signature"] == clean
        assert (
            report["ledger"][CHANNEL_CHECKPOINT]["reasons"][
                REASON_BAD_CHECKPOINT
            ]
            == 1
        )

    def _half_checkpoint(self, state_dir, context, corpus):
        pipeline = TenantPipeline(context)
        for line in corpus[: len(corpus) // 2]:
            pipeline.feed_line(line)
        save_checkpoint(str(state_dir / CHECKPOINT_FILE), pipeline.engine)
        return Path(segment_path(str(state_dir / CHECKPOINT_FILE)))

    @pytest.mark.parametrize("mode", ["cut", "bitflip"])
    def test_damaged_segment_recovers_by_full_replay(
        self, tmp_path, service_profile_dir, corpus, clean, context, mode
    ):
        state_dir = self._state_dir(tmp_path, corpus)
        segment = self._half_checkpoint(state_dir, context, corpus)
        raw = segment.read_bytes()
        segment.write_bytes(
            corrupt_segment(raw, len(raw), child_rng(11, mode), mode)
        )
        assert run_worker(self._config(state_dir, service_profile_dir)) == 0
        report = read_report(state_dir)
        assert report["signature"] == clean
        assert (
            report["ledger"][CHANNEL_CHECKPOINT]["reasons"][
                REASON_BAD_CHECKPOINT
            ]
            == 1
        )
        assert report["dropped"] == 1

    def test_segment_tail_resumes_without_ledger_entry(
        self, tmp_path, service_profile_dir, corpus, clean, context
    ):
        state_dir = self._state_dir(tmp_path, corpus)
        segment = self._half_checkpoint(state_dir, context, corpus)
        raw = segment.read_bytes()
        segment.write_bytes(
            corrupt_segment(raw, len(raw), child_rng(11, "tail"), "tail")
        )
        assert run_worker(self._config(state_dir, service_profile_dir)) == 0
        report = read_report(state_dir)
        assert report["signature"] == clean
        assert report["dropped"] == 0
        assert CHANNEL_CHECKPOINT not in report["ledger"]

    def test_resume_from_real_checkpoint(
        self, tmp_path, service_profile_dir, corpus, clean, context
    ):
        # First life: half the journal, checkpointed, abandoned.
        state_dir = self._state_dir(tmp_path, corpus[: len(corpus) // 2])
        pipeline = TenantPipeline(context)
        for line in corpus[: len(corpus) // 2]:
            pipeline.feed_line(line)
        save_checkpoint(str(state_dir / CHECKPOINT_FILE), pipeline.engine)
        # Second life: the full journal is present; the worker restores
        # and replays from byte zero.
        payload = "".join(f"{line}\n" for line in corpus).encode("utf-8")
        (state_dir / JOURNAL_FILE).write_bytes(payload)
        assert run_worker(self._config(state_dir, service_profile_dir)) == 0
        report = read_report(state_dir)
        assert report["signature"] == clean
        assert report["dropped"] == 0

    def test_spawned_worker_matches_in_process(
        self, tmp_path, service_profile_dir, corpus, clean
    ):
        """The supervisor's only dispatch, across a real spawn.

        The target and arguments must pickle (no lambdas, handles or
        generators cross the boundary), and a fresh interpreter that
        sees none of the parent's module state must drain the journal
        to exactly the report the in-process worker writes.
        """
        service = Service(
            ServiceConfig(
                tenants=[
                    TenantConfig(
                        "tenant0", service_profile_dir, checkpoint_every=100
                    )
                ],
                state_dir=str(tmp_path / "spawned"),
                heartbeat_interval=0.01,
                poll_interval=0.01,
            )
        )
        runtime = service.tenants["tenant0"]
        dispatch = (tenant_worker_main, (service._worker_config(runtime),))
        target, args = pickle.loads(pickle.dumps(dispatch))
        (tmp_path / "spawned").mkdir()
        spawned_dir = self._state_dir(tmp_path / "spawned", corpus)
        assert spawned_dir == runtime.state_dir

        process = multiprocessing.get_context("spawn").Process(
            target=target, args=args
        )
        process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("spawned worker did not drain within 120 s")
        assert process.exitcode == 0

        (tmp_path / "inproc").mkdir()
        inproc_dir = self._state_dir(tmp_path / "inproc", corpus)
        assert run_worker(dict(args[0], state_dir=str(inproc_dir))) == 0
        spawned = read_report(spawned_dir)
        assert spawned == read_report(inproc_dir)
        assert spawned["signature"] == clean

    def test_worker_dispatch_pickles_for_every_tenant(
        self, tmp_path, service_profile_dir
    ):
        """Each tenant's spawn arguments cross the boundary as plain data.

        The target pickles by reference (a lambda or closure would not),
        and the config is JSON-shaped, so no handle, clock or generator
        rides along; tenants never share a state directory.
        """
        service = Service(
            ServiceConfig(
                tenants=[
                    TenantConfig(name, service_profile_dir)
                    for name in ("tenant0", "tenant1")
                ],
                state_dir=str(tmp_path / "state"),
            )
        )
        state_dirs = set()
        for name, runtime in service.tenants.items():
            config = service._worker_config(runtime)
            target, args = pickle.loads(
                pickle.dumps((tenant_worker_main, (config,)))
            )
            assert target is tenant_worker_main
            assert args == (config,)
            assert json.loads(json.dumps(config)) == config
            assert config["tenant"] == name
            assert Path(config["state_dir"]) == tmp_path / "state" / name
            state_dirs.add(config["state_dir"])
        assert len(state_dirs) == 2

    def test_spawned_worker_failure_exit_code(self, tmp_path):
        """A typed worker failure reaches the supervisor as the spawned
        process's exit code, with the report written before it exits."""
        state_dir = tmp_path / "tenant0"
        state_dir.mkdir()
        config = self._config(state_dir, str(tmp_path / "no-such-profile"))
        process = multiprocessing.get_context("spawn").Process(
            target=tenant_worker_main, args=(config,)
        )
        process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("spawned worker did not exit within 120 s")
        assert process.exitcode == 1
        assert "profile unusable" in read_report(state_dir)["error"]

    def test_unusable_profile_fails_typed(self, tmp_path):
        state_dir = tmp_path / "tenant0"
        state_dir.mkdir()
        config = self._config(state_dir, str(tmp_path / "no-such-profile"))
        assert run_worker(config) == 1
        report = read_report(state_dir)
        assert "profile unusable" in report["error"]
