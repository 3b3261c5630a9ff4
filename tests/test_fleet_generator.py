"""The fleet generator's contract: streamed, deterministic, shardable.

Three load-bearing properties (the package docstring's claims):

* **determinism** — a spec regenerates the identical corpus, run to run;
* **slice invariance** — ``slice_seconds`` is a memory knob, never a
  content knob: any valid value yields the same bytes;
* **shard regeneration** — any pod partition's shards, merged on the
  global ``(arrival, line)`` key, equal the unsharded corpus.

Plus the integration edges: the corpus parses identically through both
ingest engines, dataset mode loads and analyses end to end, gzip
artifacts round-trip, and the CLI plumbing (``fleetgen``, manifest
detection in ``analyze``) works.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.columnar import parse_log_columnar
from repro.core.pipeline import run_analysis
from repro.fleet import (
    PRESETS,
    FleetSpec,
    build_network,
    fleet_links,
    iter_lsp_records,
    iter_syslog_lines,
    pod_routers,
    preset,
    write_corpus,
)
from repro.fleet.generate import FleetCounters, _link_schedule, _system_id_of
from repro.isis.mrt import MrtDumpReader
from repro.simulation.dataset import Dataset
from repro.syslog.collector import SyslogCollector

SPEC = preset("tiny")


def test_presets_well_formed():
    assert set(PRESETS) == {"tiny", "small", "fleet", "paper"}
    assert preset("fleet").router_count == 10_000
    assert preset("paper").router_count == 100_000
    with pytest.raises(ValueError, match="unknown preset"):
        preset("galactic")


def test_spec_validation():
    with pytest.raises(ValueError, match="multiple"):
        FleetSpec(preset="x", slice_seconds=5000.0)
    with pytest.raises(ValueError, match="delivery_delay_max"):
        FleetSpec(preset="x", slice_seconds=3600.0, delivery_delay_max=7200.0)
    with pytest.raises(ValueError, match="pods"):
        FleetSpec(preset="x", pods=0)


def test_topology_arithmetic():
    routers = pod_routers(SPEC, 1)
    assert routers[0].name == "p0001-core-01"
    assert [r.name for r in routers[1:]] == ["p0001-cpe-00", "p0001-cpe-01"]
    links = list(fleet_links(SPEC))
    assert len(links) == SPEC.link_count
    assert len({link.link_id for link in links}) == len(links)
    # Incident restriction covers each pod's access links plus its rings.
    pod_links = {link.link_id for link in fleet_links(SPEC, [1])}
    assert pod_links == {"fl-a00000002", "fl-a00000003", "fl-r00000000",
                         "fl-r00000001"}
    network = build_network(SPEC)
    assert len(network.routers) == SPEC.router_count
    assert len(network.links) == SPEC.link_count


def test_system_ids_agree_with_topology_at_scale():
    # Name fields are zero-padded to a *minimum* width: pod 10000 renders as
    # "p10000" (5 digits) and cpe 100 as "cpe-100" (3 digits).  The sweep's
    # name-based system-ID parse must agree with pod_routers() everywhere,
    # not just below the padding width (paper preset has 25000 pods).
    spec = FleetSpec(preset="x", pods=25_000, cpe_per_pod=120)
    ids = set()
    for pod in (0, 999, 1000, 9999, 10000, 24_999):
        for router in pod_routers(spec, pod):
            assert _system_id_of(spec, router.name) == router.system_id, (
                router.name
            )
            ids.add(router.system_id)
    assert len(ids) == 6 * (1 + spec.cpe_per_pod), "system IDs must not collide"


def test_slice_invariance_with_episode_at_horizon():
    # A failure's "up" syslog is jittered up to ~1s past the episode end; an
    # episode ending within that jitter of the horizon used to survive or
    # vanish depending on whether ceil(horizon/slice)*slice overshot the
    # horizon.  This spec (found by seed scan) has exactly such an episode.
    spec = preset(
        "tiny", seed=18, duration_days=0.25, failures_per_link_month=50_000.0,
        repair_max=900.0, chatter_per_router_day=2.0,
    )
    late = [
        m
        for link in fleet_links(spec)
        for m in _link_schedule(spec, link).messages
        if m[0] >= spec.horizon_end
    ]
    assert late, "spec must generate a line past the horizon (else re-scan seeds)"

    counters_by_slice = {}
    corpora = []
    for slice_seconds in (3600.0, 5 * 3600.0):  # exact cover vs overshoot
        counters = FleetCounters()
        corpora.append(
            list(iter_syslog_lines(
                spec.with_overrides(slice_seconds=slice_seconds),
                counters=counters,
            ))
        )
        counters_by_slice[slice_seconds] = counters
    assert corpora[0] == corpora[1]
    first, second = counters_by_slice.values()
    assert first == second
    assert first.syslog_lines == len(corpora[0])
    assert first.syslog_lines == first.chatter_lines + first.failure_lines


def test_syslog_determinism_and_order():
    first = list(iter_syslog_lines(SPEC))
    second = list(iter_syslog_lines(SPEC))
    assert first == second
    assert first, "tiny preset must emit traffic"
    arrivals = [arrival for arrival, _ in first]
    assert arrivals == sorted(arrivals)


def test_syslog_slice_invariance():
    baseline = list(iter_syslog_lines(SPEC))
    for slice_seconds in (3600.0, 7200.0, 43200.0):
        spec = SPEC.with_overrides(slice_seconds=slice_seconds)
        assert list(iter_syslog_lines(spec)) == baseline


def test_syslog_shard_merge():
    baseline = list(iter_syslog_lines(SPEC))
    for partition in ([[0], [1], [2]], [[0, 1], [2]]):
        merged = []
        for pods in partition:
            merged.extend(iter_syslog_lines(SPEC, pods))
        merged.sort()
        assert merged == baseline


def test_lsp_determinism_slice_invariance_and_shards():
    baseline = list(iter_lsp_records(SPEC))
    assert baseline
    assert list(iter_lsp_records(SPEC)) == baseline
    spec = SPEC.with_overrides(slice_seconds=3600.0)
    assert list(iter_lsp_records(spec)) == baseline
    merged = []
    for pods in ([0, 2], [1]):
        merged.extend(iter_lsp_records(SPEC, pods))
    assert sorted(merged) == sorted(baseline)


def test_corpus_parses_identically_on_both_engines():
    text = "\n".join(line for _, line in iter_syslog_lines(SPEC)) + "\n"
    scalar = SyslogCollector.parse_log(text)
    columnar = parse_log_columnar(text)
    assert scalar == columnar
    assert len(scalar) == text.count("\n"), "every line must parse"


def test_dataset_mode_loads_and_analyses(tmp_path):
    out = tmp_path / "corpus"
    counters = write_corpus(SPEC, out, dataset=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["preset"] == "tiny"
    assert manifest["counters"]["syslog_lines"] == counters.syslog_lines
    assert counters.syslog_lines == (
        counters.chatter_lines + counters.failure_lines
    )

    dataset = Dataset.load(out, build_network(SPEC))
    assert len(dataset.ground_truth_failures) == counters.failures
    assert len(dataset.lsp_records) == counters.lsp_records
    result = run_analysis(dataset, ingest="columnar")
    assert result.isis_failures, "fleet failures must be recoverable"


def test_gzip_artifacts_round_trip(tmp_path):
    plain_dir, gz_dir = tmp_path / "plain", tmp_path / "gz"
    write_corpus(SPEC, plain_dir)
    write_corpus(SPEC, gz_dir, gzip_artifacts=True)
    plain = (plain_dir / "syslog.log").read_bytes()
    assert gzip.decompress((gz_dir / "syslog.log.gz").read_bytes()) == plain
    with MrtDumpReader.open(plain_dir / "isis.dump") as reader:
        records = reader.read_all()
    with gzip.open(gz_dir / "isis.dump.gz", "rb") as handle:
        with MrtDumpReader(io.BytesIO(handle.read())) as reader:
            assert reader.read_all() == records


def test_shard_corpus_counts(tmp_path):
    counters = write_corpus(SPEC, tmp_path / "shard", pods=[1])
    assert counters.routers == 3
    manifest = json.loads((tmp_path / "shard" / "manifest.json").read_text())
    assert manifest["pods"] == [1]


def test_dataset_mode_rejects_gzip_and_shards(tmp_path):
    with pytest.raises(ValueError, match="uncompressed"):
        write_corpus(SPEC, tmp_path / "a", dataset=True, gzip_artifacts=True)
    with pytest.raises(ValueError, match="full fleet"):
        write_corpus(SPEC, tmp_path / "b", dataset=True, pods=[0])


def test_cli_fleetgen_and_analyze(tmp_path, capsys):
    out = tmp_path / "cli-corpus"
    assert cli_main(
        ["fleetgen", "--out", str(out), "--preset", "tiny", "--dataset"]
    ) == 0
    assert "syslog lines" in capsys.readouterr().out
    assert cli_main(["analyze", str(out), "--ingest", "columnar"]) == 0
    assert "Channel comparison" in capsys.readouterr().out


def test_cli_analyze_rejects_stream_only_corpus(tmp_path, capsys):
    out = tmp_path / "stream-only"
    assert cli_main(["fleetgen", "--out", str(out), "--preset", "tiny"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="stream-only"):
        cli_main(["analyze", str(out)])


def test_cli_fleetgen_shard(tmp_path, capsys):
    out = tmp_path / "shard"
    assert cli_main(
        ["fleetgen", "--out", str(out), "--preset", "tiny", "--shard", "0:2"]
    ) == 0
    assert "6 routers" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="out of range"):
        cli_main(
            ["fleetgen", "--out", str(out), "--preset", "tiny", "--shard",
             "0:9"]
        )
