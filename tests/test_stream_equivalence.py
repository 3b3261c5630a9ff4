"""The streaming engine's load-bearing guarantee: exact batch equivalence.

Every test here reduces to one claim from the :mod:`repro.stream` design:
an online engine fed the event-time-ordered merge of the two channels
produces, at end of stream, *precisely* the results of
:func:`repro.core.pipeline.run_analysis` — same failures (with the same
attached transitions), same sanitisation ledger, same greedy match, same
Table 3 coverage, same flap episodes — and checkpointing the engine at
any cut, through a real frontier file and results segment, and
resuming changes nothing.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro import AnalysisResult, Dataset, ScenarioConfig, run_analysis, run_scenario
from repro.faults.injectors import corrupt_segment
from repro.stream import (
    CheckpointError,
    StreamEngine,
    load_checkpoint,
    save_checkpoint,
    stream_dataset,
)
from repro.stream import checkpoint as codec
from repro.stream.checkpoint import segment_path
from repro.stream.engine import StreamOptions, StreamResult
from repro.util.rand import child_rng

#: Short fresh campaigns on the acceptance seeds (the session-scoped
#: three-week seed-11 campaign from conftest is exercised separately).
SEED_CONFIGS = {
    7: ScenarioConfig(seed=7, duration_days=10.0),
    2013: ScenarioConfig(seed=2013, duration_days=10.0),
}


@pytest.fixture(scope="module", params=sorted(SEED_CONFIGS))
def seeded_pair(request):
    dataset = run_scenario(SEED_CONFIGS[request.param])
    return dataset, run_analysis(dataset)


def assert_equivalent(batch: AnalysisResult, stream: StreamResult) -> None:
    """Field-by-field equality; FailureEvent equality is deep (transitions)."""
    assert stream.horizon_start == batch.horizon_start
    assert stream.horizon_end == batch.horizon_end
    assert stream.syslog_failures_raw == batch.syslog.failures
    assert stream.isis_failures_raw == batch.isis.failures
    for mine, theirs in (
        (stream.syslog_sanitized, batch.syslog_sanitized),
        (stream.isis_sanitized, batch.isis_sanitized),
    ):
        assert mine.kept == theirs.kept
        assert mine.removed_listener_overlap == theirs.removed_listener_overlap
        assert mine.removed_unverified_long == theirs.removed_unverified_long
        assert mine.verified_long == theirs.verified_long
    assert stream.failure_match.pairs == batch.failure_match.pairs
    assert stream.failure_match.only_a == batch.failure_match.only_a
    assert stream.failure_match.only_b == batch.failure_match.only_b
    assert stream.failure_match.partial_a == batch.failure_match.partial_a
    assert stream.failure_match.partial_b == batch.failure_match.partial_b
    assert stream.coverage.counts == batch.coverage.counts
    assert stream.coverage.unmatched == batch.coverage.unmatched
    assert stream.flap_episodes == batch.flap_episodes
    # Consumption accounting agrees with the batch extractors.
    assert stream.counters["syslog_isis_messages"] == len(
        batch.syslog.isis_messages
    )
    assert stream.counters["syslog_physical_messages"] == len(
        batch.syslog.physical_messages
    )
    assert stream.counters["isis_is_messages"] == len(batch.isis.is_messages)
    assert stream.counters["isis_ip_messages"] == len(batch.isis.ip_messages)
    assert stream.counters["rejected_lsps"] == batch.isis.rejected_lsps
    assert stream.counters["syslog_unparsed"] == batch.syslog.unparsed_count
    assert stream.counters["syslog_unresolved"] == batch.syslog.unresolved_count
    assert stream.counters["isis_unresolved"] == batch.isis.unresolved_count
    assert stream.counters["isis_multilink"] == batch.isis.multilink_skipped
    assert (
        stream.counters["syslog-isis-transitions"]
        == len(batch.syslog.isis_transitions)
    )
    assert (
        stream.counters["syslog-physical-transitions"]
        == len(batch.syslog.physical_transitions)
    )
    assert stream.counters["isis-is-transitions"] == len(
        batch.isis.is_transitions
    )
    assert stream.counters["isis-ip-transitions"] == len(
        batch.isis.ip_transitions
    )


class TestBatchEquivalence:
    def test_small_campaign(self, small_dataset, small_analysis):
        assert_equivalent(small_analysis, stream_dataset(small_dataset))

    def test_acceptance_seeds(self, seeded_pair):
        dataset, batch = seeded_pair
        assert_equivalent(batch, stream_dataset(dataset))

    def test_drain_interval_does_not_change_results(self, seeded_pair):
        dataset, batch = seeded_pair
        # A tiny interval drains constantly; a huge one only at the end.
        assert_equivalent(
            batch, stream_dataset(dataset, StreamOptions(drain_interval=17))
        )
        assert_equivalent(
            batch,
            stream_dataset(dataset, StreamOptions(drain_interval=10**9)),
        )

    @pytest.mark.parametrize(
        "strategy",
        ["assume_down", "assume_up", "discard"],
    )
    def test_non_default_ambiguity_strategies(self, small_dataset, strategy):
        # PREVIOUS_STATE (the default) never opens ambiguity windows, so
        # run the window-producing strategies through both pipelines too.
        from repro.core.extract_isis import IsisExtractionConfig
        from repro.core.extract_syslog import SyslogExtractionConfig
        from repro.core.pipeline import AnalysisOptions
        from repro.intervals.timeline import AmbiguityStrategy

        chosen = AmbiguityStrategy(strategy)
        analysis_options = AnalysisOptions(
            syslog=SyslogExtractionConfig(strategy=chosen),
            isis=IsisExtractionConfig(strategy=chosen),
        )
        batch = run_analysis(small_dataset, analysis_options)
        stream = stream_dataset(
            small_dataset, StreamOptions(analysis=analysis_options)
        )
        assert_equivalent(batch, stream)

    def test_streaming_result_properties(self, small_dataset, small_analysis):
        result = stream_dataset(small_dataset)
        assert result.syslog_failures == small_analysis.syslog_failures
        assert result.isis_failures == small_analysis.isis_failures


class TestLenientCleanPathIdentity:
    """Hardened ingestion's acceptance bar: with no injected faults,
    a run given a drop ledger must be byte-identical to one without — the
    quarantine machinery may cost nothing on clean input — and the
    ledger must stay empty (seeds 7 and 2013 via the fixture)."""

    def test_batch_lenient_is_identical_on_clean_input(self, seeded_pair):
        from repro.faults.chaos import analysis_signature
        from repro.faults.ledger import IngestReport

        dataset, batch = seeded_pair
        report = IngestReport()
        lenient = run_analysis(dataset, report=report)
        assert not report
        assert lenient.ingest is report
        assert analysis_signature(lenient) == analysis_signature(batch)

    def test_stream_lenient_is_identical_on_clean_input(self, seeded_pair):
        from repro.faults.ledger import IngestReport

        dataset, batch = seeded_pair
        report = IngestReport()
        stream = stream_dataset(dataset, report=report)
        assert not report
        assert_equivalent(batch, stream)


class TestCheckpointResume:
    def _total_events(self, dataset: Dataset) -> int:
        return stream_dataset(dataset).counters["events"]

    @staticmethod
    def _snapshot(path, into):
        """Copy a saved checkpoint (frontier + results segment) aside."""
        into.mkdir()
        target = into / path.name
        shutil.copy(path, target)
        shutil.copy(segment_path(str(path)), segment_path(str(target)))
        return target

    def test_resume_at_arbitrary_cuts(self, tmp_path, seeded_pair):
        # Every cut saves into the same checkpoint, so the segment grows
        # by appends; each save is snapshotted and resumed from disk.
        dataset, batch = seeded_pair
        total = self._total_events(dataset)
        cuts = sorted(
            {1, total // 4, total // 2, (3 * total) // 4, total - 1, total}
        )
        path = tmp_path / "engine.ckpt"
        snapshots = []

        def on_checkpoint(engine):
            save_checkpoint(str(path), engine)
            snapshots.append(
                self._snapshot(path, tmp_path / f"cut-{engine.events_consumed}")
            )

        stream_dataset(dataset, checkpoint_at=cuts, on_checkpoint=on_checkpoint)
        assert len(snapshots) == len(cuts)
        for cut, snapshot in zip(cuts, snapshots):
            state = load_checkpoint(str(snapshot))
            assert state["events_consumed"] == cut
            assert_equivalent(batch, stream_dataset(dataset, resume_state=state))

    def test_resume_save_resume_chain(self, tmp_path, seeded_pair):
        # A restored engine keeps appending to the segment it was loaded
        # from, and the twice-resumed stream is still exact.
        dataset, batch = seeded_pair
        total = self._total_events(dataset)
        path = tmp_path / "engine.ckpt"
        save = lambda e: save_checkpoint(str(path), e)  # noqa: E731
        stream_dataset(dataset, checkpoint_at=[total // 3], on_checkpoint=save)
        first = load_checkpoint(str(path))
        stream_dataset(
            dataset,
            resume_state=first,
            checkpoint_at=[(2 * total) // 3],
            on_checkpoint=save,
        )
        second = load_checkpoint(str(path))
        assert second["events_consumed"] == (2 * total) // 3
        assert len(second["results"]) == 2
        assert second["segment"]["length"] > first["segment"]["length"]
        assert_equivalent(batch, stream_dataset(dataset, resume_state=second))

    def test_save_and_load_file(self, tmp_path, small_dataset, small_analysis):
        total = self._total_events(small_dataset)
        path = tmp_path / "engine.ckpt"
        stream_dataset(
            small_dataset,
            checkpoint_at=[total // 2],
            on_checkpoint=lambda e: save_checkpoint(str(path), e),
        )
        state = load_checkpoint(str(path))
        assert state["events_consumed"] == total // 2
        assert_equivalent(
            small_analysis, stream_dataset(small_dataset, resume_state=state)
        )

    def test_periodic_checkpoints(self, tmp_path, small_dataset, small_analysis):
        path = tmp_path / "engine.ckpt"
        snapshots = []

        def on_checkpoint(engine):
            save_checkpoint(str(path), engine)
            snapshots.append(
                self._snapshot(path, tmp_path / f"at-{engine.events_consumed}")
            )

        stream_dataset(
            small_dataset, checkpoint_every=1000, on_checkpoint=on_checkpoint
        )
        assert snapshots
        states = [load_checkpoint(str(snapshot)) for snapshot in snapshots]
        counts = [state["events_consumed"] for state in states]
        assert counts == [1000 * (i + 1) for i in range(len(counts))]
        # One chunk appended per save, and the first, a middle and the
        # last periodic checkpoint all resume exactly.
        assert [len(state["results"]) for state in states] == list(
            range(1, len(states) + 1)
        )
        for index in sorted({0, len(states) // 2, len(states) - 1}):
            assert_equivalent(
                small_analysis,
                stream_dataset(small_dataset, resume_state=states[index]),
            )

    def test_fresh_engine_never_extends_a_stale_segment(
        self, tmp_path, small_dataset, small_analysis
    ):
        # A fresh engine saving where another run left a segment (and no
        # frontier) cuts it to zero instead of appending after it.
        path = tmp_path / "engine.ckpt"
        save = lambda e: save_checkpoint(str(path), e)  # noqa: E731
        stream_dataset(small_dataset, checkpoint_at=[2000], on_checkpoint=save)
        stale = Path(segment_path(str(path))).stat().st_size
        path.unlink()
        stream_dataset(small_dataset, checkpoint_at=[500], on_checkpoint=save)
        state = load_checkpoint(str(path))
        segment = Path(segment_path(str(path)))
        assert state["segment"]["length"] == segment.stat().st_size
        assert state["segment"]["length"] < stale
        assert_equivalent(
            small_analysis, stream_dataset(small_dataset, resume_state=state)
        )

    def test_fresh_save_killed_over_a_checkpoint_keeps_it(
        self, tmp_path, small_dataset, small_analysis, monkeypatch
    ):
        # A fresh engine's first save writes the segment name the old
        # frontier does not name.  Killed before its frontier replaces
        # the old one, it has touched neither old file: the previous
        # checkpoint still loads and resumes exactly.
        from repro.stream import checkpoint

        path = tmp_path / "engine.ckpt"
        save = lambda e: save_checkpoint(str(path), e)  # noqa: E731
        stream_dataset(small_dataset, checkpoint_at=[1500], on_checkpoint=save)
        frontier = path.read_bytes()
        segment = Path(segment_path(str(path)))
        committed = segment.read_bytes()

        def killed(target, document):
            raise KeyboardInterrupt("killed before the frontier rename")

        monkeypatch.setattr(checkpoint, "write_json_atomic", killed)
        for cut in (500, 2500):
            with pytest.raises(KeyboardInterrupt):
                stream_dataset(
                    small_dataset, checkpoint_at=[cut], on_checkpoint=save
                )
            assert path.read_bytes() == frontier
            assert segment.read_bytes() == committed
        monkeypatch.undo()
        state = load_checkpoint(str(path))
        assert state["events_consumed"] == 1500
        assert_equivalent(
            small_analysis, stream_dataset(small_dataset, resume_state=state)
        )

    def test_fresh_save_supersedes_the_old_segment_after_its_rename(
        self, tmp_path, small_dataset, small_analysis
    ):
        # Fresh engines alternate between two segment names, and each
        # removes the one it superseded once its own frontier is in.
        path = tmp_path / "engine.ckpt"
        save = lambda e: save_checkpoint(str(path), e)  # noqa: E731
        segments = []
        for cut in (1500, 500, 1000):
            stream_dataset(small_dataset, checkpoint_at=[cut], on_checkpoint=save)
            segments.append(Path(segment_path(str(path))).name)
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                [path.name, segments[-1]]
            )
        assert segments[0] == segments[2] != segments[1]
        state = load_checkpoint(str(path))
        assert state["events_consumed"] == 1000
        assert_equivalent(
            small_analysis, stream_dataset(small_dataset, resume_state=state)
        )

    def test_segment_tail_past_commit_is_ignored(
        self, tmp_path, small_dataset, small_analysis
    ):
        # A save killed between its append and its frontier rename.
        path = tmp_path / "engine.ckpt"
        stream_dataset(
            small_dataset,
            checkpoint_at=[1500],
            on_checkpoint=lambda e: save_checkpoint(str(path), e),
        )
        committed = load_checkpoint(str(path))["segment"]["length"]
        with open(segment_path(str(path)), "ab") as handle:
            handle.write(b'{"raw_failures":{"syslog":[["torn')
        state = load_checkpoint(str(path))
        assert state["segment"]["length"] == committed
        assert_equivalent(
            small_analysis, stream_dataset(small_dataset, resume_state=state)
        )

    @pytest.mark.parametrize("mode", ["cut", "bitflip", "missing"])
    def test_damaged_segment_raises_typed(self, tmp_path, small_dataset, mode):
        path = tmp_path / "engine.ckpt"
        stream_dataset(
            small_dataset,
            checkpoint_at=[1500],
            on_checkpoint=lambda e: save_checkpoint(str(path), e),
        )
        segment = Path(segment_path(str(path)))
        raw = segment.read_bytes()
        if mode == "missing":
            segment.unlink()
        else:
            damaged = corrupt_segment(raw, len(raw), child_rng(7, mode), mode)
            segment.write_bytes(damaged)
        with pytest.raises(CheckpointError, match="results segment"):
            load_checkpoint(str(path))

    def test_whole_history_document_is_refused(self, tmp_path, small_dataset):
        # The pre-segment layout (version 1) is not kept as a fallback.
        path = tmp_path / "engine.ckpt"
        stream_dataset(
            small_dataset,
            checkpoint_at=[500],
            on_checkpoint=lambda e: save_checkpoint(str(path), e),
        )
        document = json.loads(path.read_text())
        document["version"] = 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(str(path))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not json at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_finished_engine_refuses_checkpoint(self, tmp_path, small_dataset):
        from repro.core.links import LinkResolver
        from repro.stream.sources import dataset_event_stream

        resolver = LinkResolver(small_dataset.inventory)
        engine = StreamEngine(
            resolver,
            small_dataset.analysis_start,
            small_dataset.horizon_end,
            small_dataset.listener_outages,
            small_dataset.tickets,
        )
        for event in dataset_event_stream(small_dataset, resolver):
            engine.process(event)
        engine.finish()
        with pytest.raises(CheckpointError):
            save_checkpoint(str(tmp_path / "engine.ckpt"), engine)
        with pytest.raises(RuntimeError):
            engine.process(next(dataset_event_stream(small_dataset, resolver)))

    def test_finish_is_idempotent(self, small_dataset):
        # Calling stream_dataset builds one engine internally; finish()
        # memoises, so an engine driven by hand behaves the same.
        from repro.core.links import LinkResolver
        from repro.stream.sources import dataset_event_stream

        resolver = LinkResolver(small_dataset.inventory)
        engine = StreamEngine(
            resolver,
            small_dataset.analysis_start,
            small_dataset.horizon_end,
            small_dataset.listener_outages,
            small_dataset.tickets,
        )
        for event in dataset_event_stream(small_dataset, resolver):
            engine.process(event)
        assert engine.finish() is engine.finish()


class TestSegmentWrittenOnce:
    """The segment layout's structural promise, checked at every save."""

    @staticmethod
    def _assert_matcher_bounded(engine):
        # A retained failure is undecided, or decided but still able to
        # overlap something undecided or yet to come on the other side.
        for link, state in engine.matcher.links.items():
            bound_b = engine._isis_kept_frontier(link)
            if state.b_pending:
                bound_b = min(bound_b, state.b_all[state.b_pending[0]].start)
            decided_a = state.a_all[: len(state.a_all) - len(state.a_pending)]
            assert all(f.end > bound_b for f in decided_a), link
            bound_a = engine._syslog_kept_frontier(link)
            if state.a_pending:
                bound_a = min(bound_a, state.a_pending[0].start)
            undecided = state.b_pending[0] if state.b_pending else len(state.b_all)
            assert all(f.end > bound_a for f in state.b_all[:undecided]), link

    def test_each_product_written_once_and_matcher_bounded(self, tmp_path):
        dataset = run_scenario(SEED_CONFIGS[7])
        path = tmp_path / "engine.ckpt"
        saves = []
        retained = []

        def on_checkpoint(engine):
            save_checkpoint(str(path), engine)
            frontier = path.read_text(encoding="ascii")
            segment = Path(segment_path(str(path))).read_bytes()
            chunks = [json.loads(line) for line in segment.splitlines()]
            for channel, failures in engine.raw_failures.items():
                encoded = [codec.encode(f) for f in failures]
                stored = [
                    f for chunk in chunks for f in chunk["raw_failures"][channel]
                ]
                # Every raw failure exactly once, in emission order ...
                assert stored == json.loads(json.dumps(encoded))
                # ... and none of them again in the frontier document.
                for failure in encoded:
                    assert json.dumps(failure, separators=(",", ":")) not in frontier
            self._assert_matcher_bounded(engine)
            retained.append(
                sum(
                    len(state.a_all) + len(state.b_all)
                    for state in engine.matcher.links.values()
                )
            )
            saves.append(engine.events_consumed)

        # Drains every 500 events too, so each save sees the frontiers the
        # matcher last pruned against.
        result = stream_dataset(
            dataset,
            StreamOptions(drain_interval=500),
            checkpoint_every=500,
            on_checkpoint=on_checkpoint,
        )
        assert len(saves) >= 5
        kept = len(result.syslog_failures) + len(result.isis_failures)
        assert max(retained) < kept // 4
