"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _spec_from_args, build_root_parser, main


def parse(*argv):
    return build_root_parser().parse_args(list(argv))


def run_config(*flags):
    """The SimConfig `repro run <flags>` simulates."""
    args = parse("run", *flags)
    return _spec_from_args(args, args.scheduler).to_config()


class TestParser:
    def test_defaults(self):
        args = parse("run")
        assert args.scheduler == "outran"
        assert args.rat == "lte"

    def test_nr_options(self):
        cfg = run_config("--rat", "nr", "--mu", "3", "--mec")
        assert cfg.tti_us == 125
        assert cfg.server_delay_us == 5_000

    def test_lte_config(self):
        cfg = run_config("--ues", "7", "--load", "0.5")
        assert cfg.num_ues == 7
        assert cfg.traffic.load == 0.5

    def test_distribution_override(self):
        cfg = run_config("--distribution", "websearch")
        assert cfg.traffic.distribution == "websearch"

    def test_invalid_rlc_mode_rejected(self):
        with pytest.raises(SystemExit):
            parse("run", "--rlc-mode", "tm")

    def test_bbr_is_not_a_cc_choice(self):
        with pytest.raises(SystemExit) as exit_info:
            parse("run", "--cc", "bbr")
        assert exit_info.value.code == 2


class TestMain:
    def test_single_run_prints_summary(self, capsys):
        rc = main(["run", "--ues", "3", "--load", "0.4", "--duration", "1",
                   "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg FCT" in out

    def test_compare_mode_prints_table(self, capsys):
        rc = main(
            ["run", "--compare", "pf", "outran", "--ues", "3", "--load", "0.4",
             "--duration", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pf" in out and "outran" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        main(["run", "--ues", "3", "--load", "0.4", "--duration", "1",
              "--json", str(path)])
        data = json.loads(path.read_text())
        assert data["completed_flows"] > 0
        assert "avg_fct_ms" in data

    def test_json_output_compare(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        main(
            ["run", "--compare", "pf", "outran", "--ues", "3", "--load", "0.4",
             "--duration", "1", "--json", str(path)]
        )
        data = json.loads(path.read_text())
        assert isinstance(data, list) and len(data) == 2


COMPARE_ARGS = ["run", "--compare", "pf", "outran", "--ues", "3",
                "--load", "0.4", "--duration", "1"]


class TestJobs:
    def test_jobs_one_output_identical_to_serial(self, capsys):
        assert main(COMPARE_ARGS) == 0
        baseline = capsys.readouterr().out
        assert main(COMPARE_ARGS + ["--jobs", "1"]) == 0
        assert capsys.readouterr().out == baseline

    def test_jobs_parallel_output_identical_to_serial(self, tmp_path, capsys):
        base_json = tmp_path / "base.json"
        par_json = tmp_path / "par.json"
        assert main(COMPARE_ARGS + ["--json", str(base_json)]) == 0
        baseline = capsys.readouterr().out
        assert main(COMPARE_ARGS + ["--jobs", "2", "--json", str(par_json)]) == 0
        assert capsys.readouterr().out == baseline
        assert json.loads(par_json.read_text()) == json.loads(base_json.read_text())

    def test_jobs_requires_compare(self):
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "2", "--ues", "3"])

    def test_jobs_incompatible_with_observability(self):
        with pytest.raises(SystemExit):
            main(COMPARE_ARGS + ["--jobs", "2", "--heartbeat", "1"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            parse("run", "--jobs", "0")


class TestSweepCommand:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "rat": "lte",
            "schedulers": ["pf", "outran"],
            "loads": [0.5],
            "seeds": [1],
            "num_ues": 2,
            "duration_s": 0.4,
        }))
        return path

    def test_sweep_runs_and_writes_summaries(self, spec_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["sweep", str(spec_path), "--jobs", "2", "--quiet",
                   "--store", str(tmp_path / "store"), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 runs" in text and "pf" in text and "outran" in text
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 2
        assert payload["stats"]["executed"] == 2
        assert all("metrics" in run for run in payload["runs"])

    def test_sweep_resumes_from_store(self, spec_path, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["sweep", str(spec_path), "--quiet", "--store", str(store)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 from store, 0 executed" in second
        # The rendered metric rows are identical either way.
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_sweep_no_store(self, spec_path, capsys):
        assert main(["sweep", str(spec_path), "--quiet", "--no-store"]) == 0

    def test_sweep_rejects_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schedulrs": ["pf"]}))
        with pytest.raises(SystemExit):
            main(["sweep", str(bad), "--quiet"])

    def test_sweep_parser_defaults(self):
        args = parse("sweep", "spec.json")
        assert args.jobs == 1
        assert args.store == ".repro-store"
        assert args.max_attempts == 3


class TestSubcommandTree:
    """The `repro run|sweep|explain|serve` surface and its help text."""

    def test_root_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("run", "sweep", "explain", "serve"):
            assert command in out

    @pytest.mark.parametrize("command", ["run", "sweep", "explain", "serve"])
    def test_subcommand_help_renders(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_root_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_run_help_snapshot(self, capsys):
        """Flags the docs promise on `repro run` stay present."""
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        for flag in ("--scheduler", "--compare", "--telemetry",
                     "--ric", "--jobs", "--flow-trace"):
            assert flag in out

    def test_serve_help_snapshot(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        for needle in ("--host", "--port", "--chunk-ttis", "/metrics"):
            assert needle in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_serve_parser_defaults(self):
        args = parse("serve")
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.chunk_ttis is None

    def test_bare_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--ues", "2", "--load", "0.3", "--duration", "0.3"])
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_backend_flag_rejected(self, capsys):
        # One execution path: the flag that chose between two is gone.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--backend", "vectorized"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_run_subcommand_does_not_warn(self, recwarn):
        main(["run", "--ues", "2", "--load", "0.3", "--duration", "0.3"])
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]
