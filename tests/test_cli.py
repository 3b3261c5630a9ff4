"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "campaign"
    code = main(["simulate", "--seed", "11", "--days", "10", "--out", str(path)])
    assert code == 0
    return path


class TestSimulate:
    def test_creates_layout(self, campaign_dir, capsys):
        for name in ("syslog.log", "isis.dump", "ground_truth.json", "meta.json"):
            assert (campaign_dir / name).exists()
        assert (campaign_dir / "configs").is_dir()


class TestAnalyze:
    def test_from_saved_dataset(self, campaign_dir, capsys):
        code = main(["analyze", str(campaign_dir), "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Channel comparison" in out
        assert "Matched failures" in out

    def test_fresh_simulation(self, capsys):
        code = main(["analyze", "--seed", "11", "--days", "7"])
        assert code == 0
        assert "Channel comparison" in capsys.readouterr().out


class TestReport:
    def test_table5(self, campaign_dir, capsys):
        code = main(["report", str(campaign_dir), "--seed", "11", "--table", "table5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "CPE" in out

    def test_flaps(self, campaign_dir, capsys):
        code = main(["report", str(campaign_dir), "--seed", "11", "--table", "flaps"])
        assert code == 0
        assert "flapping" in capsys.readouterr().out

    def test_default_is_table4(self, campaign_dir, capsys):
        code = main(["report", str(campaign_dir), "--seed", "11"])
        assert code == 0
        assert "Channel comparison" in capsys.readouterr().out


class TestReportNewTables:
    def test_table2(self, campaign_dir, capsys):
        code = main(["report", str(campaign_dir), "--seed", "11", "--table", "table2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "IS reach" in out

    def test_table3(self, campaign_dir, capsys):
        code = main(["report", str(campaign_dir), "--seed", "11", "--table", "table3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "flap attribution" in out


class TestStream:
    def test_matches_analyze_output(self, campaign_dir, capsys):
        code = main(["analyze", str(campaign_dir), "--seed", "11"])
        assert code == 0
        analyze_out = capsys.readouterr().out
        code = main(
            ["stream", str(campaign_dir), "--seed", "11", "--progress-every", "0"]
        )
        assert code == 0
        stream_out = capsys.readouterr().out
        assert "Stream consumption" in stream_out
        # The end-of-stream tables are byte-identical to analyze's.
        start = stream_out.index("Channel comparison")
        assert stream_out[start:] == analyze_out[analyze_out.index("Channel comparison"):]

    def test_checkpoint_and_resume(self, campaign_dir, tmp_path, capsys):
        ckpt = tmp_path / "engine.ckpt"
        code = main(
            [
                "stream", str(campaign_dir), "--seed", "11",
                "--progress-every", "0",
                "--checkpoint", str(ckpt), "--checkpoint-every", "500",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out
        assert ckpt.exists()
        code = main(
            [
                "stream", str(campaign_dir), "--seed", "11",
                "--progress-every", "0",
                "--checkpoint", str(ckpt), "--resume",
            ]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        start = first.index("Channel comparison")
        assert first[start:] == resumed[resumed.index("Channel comparison"):]

    def test_checkpoint_every_requires_checkpoint(self, campaign_dir, capsys):
        code = main(
            ["stream", str(campaign_dir), "--seed", "11", "--checkpoint-every", "10"]
        )
        assert code == 2

    def test_resume_requires_checkpoint(self, campaign_dir):
        code = main(["stream", str(campaign_dir), "--seed", "11", "--resume"])
        assert code == 2


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_simulate_requires_out(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--seed", "1"])

    def test_analyze_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["analyze", "campaign/"])
        assert args.ingest == "scalar"
        assert not hasattr(args, "jobs")
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["analyze", "campaign/", "--jobs", "2"])

    def test_spine_subcommand_is_rejected(self):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["spine"])


class TestServe:
    def test_requires_config_or_status(self):
        with pytest.raises(SystemExit, match="--config or --status"):
            main(["serve"])

    def test_bad_config_path_fails_typed(self, tmp_path):
        with pytest.raises(SystemExit, match="bad --config"):
            main(["serve", "--config", str(tmp_path / "absent.json")])

    def test_bad_config_document_fails_typed(self, tmp_path):
        path = tmp_path / "service.json"
        path.write_text('{"tenants": [{"name": "../bad", "profile_dir": "x"}], "state_dir": "s"}')
        with pytest.raises(SystemExit, match="bad --config"):
            main(["serve", "--config", str(path)])

    def test_status_query_renders_table(self, service_profile_dir, tmp_path, capsys):
        from repro.service import Service, ServiceConfig, TenantConfig

        config = ServiceConfig(
            tenants=[TenantConfig(name="acme", profile_dir=service_profile_dir)],
            state_dir=str(tmp_path / "state"),
            status_port=0,
        )
        service = Service(config)
        service.start()
        try:
            url = f"http://127.0.0.1:{service.status_port}/status"
            assert main(["serve", "--status", url]) == 0
            out = capsys.readouterr().out
            assert "acme" in out and "Service status" in out
        finally:
            service.stop(drain_timeout=60.0)


class TestChaosOnly:
    def test_unknown_prefix_exits_nonzero(self, capsys, monkeypatch, tmp_path):
        # The scenario list is filtered before any scenario runs; an
        # unmatched prefix is an error, not a silent no-op "all ok".
        from repro.faults import chaos as chaos_module

        class _FakeChaos:
            baseline_entries = 0
            baseline_records = 0

            def __init__(self, *args):
                pass

        monkeypatch.setattr(chaos_module, "_Chaos", _FakeChaos)
        import io

        code = chaos_module.run_chaos(
            7, 1.0, only="no-such-scenario-", work_dir=tmp_path,
            out=io.StringIO(),
        )
        assert code == 1

    def test_prefix_selects_subset(self, monkeypatch, tmp_path, capsys):
        from repro.faults import chaos as chaos_module
        from repro.faults.chaos import ScenarioOutcome

        class _FakeChaos:
            baseline_entries = 0
            baseline_records = 0

            def __init__(self, *args):
                pass

        ran = []

        def fake_scenario(name):
            def run(chaos):
                ran.append(name)
                return ScenarioOutcome(name)

            return run

        monkeypatch.setattr(chaos_module, "_Chaos", _FakeChaos)
        monkeypatch.setattr(
            chaos_module,
            "_scenario_clean_identity",
            fake_scenario("clean-identity"),
        )
        import io

        code = chaos_module.run_chaos(
            7, 1.0, only="clean-", work_dir=tmp_path, out=io.StringIO()
        )
        assert code == 0
        assert ran == ["clean-identity"]
