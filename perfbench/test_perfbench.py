"""Self-test of the benchmark at a tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that tracing leaves outputs unchanged, and that trace counts repeat
exactly between two traced runs.
"""

from __future__ import annotations

import gc
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run  # noqa: F401  (puts the checkout's src/ on sys.path)
import workloads
from layers import patches_for
from tracing import ROOT, Tracer, installed, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny_inputs(monkeypatch):
    """Shrink every workload so a full run takes seconds."""
    monkeypatch.setattr(workloads, "CAMPAIGN_RECORDS", 800)
    monkeypatch.setattr(workloads, "SERVICE_LINES", 900)
    monkeypatch.setattr(workloads, "CAMPAIGN_DAYS", 4.0)
    monkeypatch.setattr(workloads, "SERVICE_DAYS", 6.0)
    monkeypatch.setattr(workloads, "FLEET_PODS", 4)
    monkeypatch.setattr(workloads, "FLEET_DAYS", 2.0)


def _run(workload: str, trace: int, capsys, expect: int = 0) -> dict:
    """One benchmark run in-process, through the command's own entry point."""
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    assert code == expect
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    result = _run(workload, trace, capsys)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_wrong_checked_output_fails_every_record(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "reference_problems", lambda prepared, seed, output: ["wrong on purpose"])
    result = _run(workload, 0, capsys, expect=1)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_unchanged_and_counts_repeat(workload, tmp_path):
    prepared = workloads.SETUPS[workload](3, tmp_path)
    untraced = prepared.digest(prepared.run())
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with installed(tracer, patches_for(workload)):
            with tracer.span(ROOT):
                assert prepared.digest(prepared.run()) == untraced
        assert sum(self_times(tracer.spans).values()) > 0
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1] and counts[0]


def test_timed_values_are_divided_by_the_host_factor():
    reference = (hostspeed.REFERENCE_S, hostspeed.CODEC_REFERENCE_S)
    twice = (2 * hostspeed.REFERENCE_S, 2 * hostspeed.CODEC_REFERENCE_S)
    assert hostspeed.factor([reference, reference]) == pytest.approx(1.0)
    assert hostspeed.factor([twice]) == pytest.approx(2.0)
    assert hostspeed.pause_factor([reference, twice]) == pytest.approx(1.5)
    assert run.normalised([0.6, 0.3], [2.0, 1.0]) == pytest.approx([0.3, 0.3])
    assert min(hostspeed.probe()) > 0 and gc.isenabled()


def test_patches_are_removed_after_a_traced_run():
    module = importlib.import_module("repro.core.extract_isis")
    before = module.replay_lsp_records
    with installed(Tracer(), patches_for("campaign-batch")):
        assert module.replay_lsp_records is not before
    assert module.replay_lsp_records is before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0 and done.stdout == ""
