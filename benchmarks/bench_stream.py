"""Streaming engine — throughput and working-set size vs the batch pass.

Not a paper table: this bench characterises the :mod:`repro.stream`
engine on a two-month campaign.  Three questions:

* **throughput** — events/second through the full online methodology
  (merge → timelines → sanitise → match → flaps), vs the batch
  pipeline's wall time on the same data;
* **working set** — the batch pass must hold the whole campaign (log
  text, LSP archive, every message list) before emitting anything; the
  engine's *undecided* state (open runs, pending timelines, held
  failures, match candidates, coverage rings) stays bounded by the
  network's size and the methodology's windows, not by campaign length;
* **checkpoint cost** — each save writes the live frontier document
  plus an append of the results finalised since the previous save, so
  the bytes written per save and the save pause track the live state
  and the save interval, not the campaign's length, while the
  resumable state (last frontier + whole segment) stays under the raw
  inputs it lets you discard.  Measured through ``save_checkpoint``
  into a temporary directory.

One run of each pipeline does not repeat on a shared host, so batch and
stream run alternately ``REPEATS`` times; each timed row records the
median, with the min–max in its note.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

import pytest

from _bench_utils import emit
from repro import ScenarioConfig, run_analysis, run_scenario
from repro.core.report import render_table
from repro.stream import save_checkpoint, stream_dataset
from repro.stream.checkpoint import segment_path

BENCH_DAYS = float(os.environ.get("REPRO_BENCH_DAYS", "60"))
#: Events between checkpoint saves.
CHECKPOINT_EVERY = 2500
#: Alternating batch/stream repetitions behind each timed row.
REPEATS = 3


@pytest.fixture(scope="module")
def campaign():
    return run_scenario(ScenarioConfig(seed=2013, duration_days=BENCH_DAYS))


def _dataset_bytes(dataset) -> int:
    return len(dataset.syslog_text.encode("utf-8")) + sum(
        len(raw) for _, raw in dataset.lsp_records
    )


def _run_stream(dataset):
    peak = {"working_set": 0}
    saves = []

    def on_progress(engine) -> None:
        summary = engine.summary()
        working = (
            summary["open_runs"]
            + summary["held_failures"]
            + summary["match_pending"]
            + engine.coverage.message_buffer_size
            + len(engine.coverage.pending)
        )
        peak["working_set"] = max(peak["working_set"], working)

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "engine.ckpt")
        segment = segment_path(path)

        def on_checkpoint(engine) -> None:
            before = os.path.getsize(segment) if os.path.exists(segment) else 0
            began = time.perf_counter()
            save_checkpoint(path, engine)
            pause = time.perf_counter() - began
            appended = os.path.getsize(segment) - before
            saves.append((os.path.getsize(path), appended, pause))

        start = time.perf_counter()
        result = stream_dataset(
            dataset,
            on_progress=on_progress,
            progress_every=500,
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=on_checkpoint,
        )
        elapsed = time.perf_counter() - start
        if saves:
            # What a resume needs: the last frontier plus the whole segment.
            peak["resumable_bytes"] = os.path.getsize(path) + os.path.getsize(segment)
    return result, elapsed, peak, saves


def measure(dataset):
    """``REPEATS`` alternating (batch seconds, stream run) pairs; every
    stream run must reproduce the batch results."""
    pairs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        batch = run_analysis(dataset)
        batch_elapsed = time.perf_counter() - started
        run = _run_stream(dataset)
        result = run[0]
        assert result.syslog_failures == batch.syslog_failures
        assert result.isis_failures == batch.isis_failures
        assert result.failure_match.pairs == batch.failure_match.pairs
        pairs.append((batch_elapsed, run))
    return pairs


def _spread(values, fmt: str) -> str:
    return f"{min(values):{fmt}}–{max(values):{fmt}}"


def build_table(dataset, pairs) -> str:
    batch_times = [batch for batch, _ in pairs]
    stream_times = [run[1] for _, run in pairs]
    result, _elapsed, peak, saves = pairs[0][1]
    events = result.counters["events"]
    input_bytes = _dataset_bytes(dataset)
    stream_rates = [events / elapsed for elapsed in stream_times]
    batch_rates = [events / elapsed for elapsed in batch_times]
    pause_medians = [
        statistics.median(pause for _, _, pause in run[3]) * 1e3
        for _, run in pairs
    ]
    pause_maxima = [
        max(pause for _, _, pause in run[3]) * 1e3 for _, run in pairs
    ]
    runs = f"{REPEATS} runs"

    rows = [
        ["Campaign days", f"{BENCH_DAYS:g}", ""],
        ["Events streamed", f"{events:,}", ""],
        [
            "Throughput",
            f"{statistics.median(stream_rates):,.0f} events/s",
            f"{_spread(stream_rates, ',.0f')} over {runs}; "
            f"{statistics.median(stream_times):.2f}s total",
        ],
        [
            "Batch pipeline",
            f"{statistics.median(batch_rates):,.0f} events/s equiv",
            f"{_spread(batch_rates, ',.0f')} over {runs}; "
            f"{statistics.median(batch_times):.2f}s total",
        ],
        [
            "Raw inputs (batch working set)",
            f"{input_bytes / 1e6:,.2f} MB",
            "held until the end",
        ],
        [
            "Peak undecided state",
            f"{peak['working_set']:,} items",
            "open runs + held + pending + rings",
        ],
        [
            "Checkpoint saves",
            f"{len(saves):,}",
            f"every {CHECKPOINT_EVERY:,} events",
        ],
        [
            "Bytes saved per checkpoint (max)",
            f"{max(f + a for f, a, _ in saves) / 1e3:,.1f} KB",
            f"frontier <= {max(f for f, _, _ in saves) / 1e3:,.1f} KB"
            f" + segment append <= {max(a for _, a, _ in saves) / 1e3:,.1f} KB",
        ],
        [
            "Checkpoint pause (median / max)",
            f"{statistics.median(pause_medians):,.1f} / "
            f"{statistics.median(pause_maxima):,.1f} ms",
            f"max {_spread(pause_maxima, ',.1f')} ms over {runs}; "
            "save_checkpoint incl. both fsyncs",
        ],
        [
            "Resumable state at the end",
            f"{peak['resumable_bytes'] / 1e6:,.2f} MB",
            "last frontier + whole results segment",
        ],
    ]
    return render_table(
        ["Quantity", "Value", "Note"],
        rows,
        title="Streaming engine vs batch pipeline",
    )


def test_stream_throughput(benchmark, campaign):
    pairs = benchmark.pedantic(measure, args=(campaign,), rounds=1, iterations=1)
    for _batch, (_result, _elapsed, _peak, saves) in pairs:
        # The checkpoint rows below need at least one save.
        assert saves, (
            f"no checkpoint save: the BENCH_DAYS = {BENCH_DAYS:g}-day campaign "
            f"streams fewer than CHECKPOINT_EVERY = {CHECKPOINT_EVERY:,} events"
        )
    emit("stream", build_table(campaign, pairs))

    for _batch, (result, _elapsed, peak, saves) in pairs:
        # The undecided working set is bounded by topology and windows —
        # it must not scale with campaign length the way the inputs do.
        assert peak["working_set"] < 10_000
        # The resumable state (frontier + whole segment) stays under the
        # inputs it lets you discard.
        assert peak["resumable_bytes"] < _dataset_bytes(campaign)
        assert result.counters["events"] > 0
