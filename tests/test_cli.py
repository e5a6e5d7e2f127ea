"""Tests for the command-line interface."""

import pytest

from repro.aiger import write_aag
from repro.benchgen import modular_counter, token_ring
from repro.cli import build_parser, main


@pytest.fixture()
def safe_model(tmp_path):
    path = tmp_path / "safe.aag"
    write_aag(token_ring(3).aig, path)
    return str(path)


@pytest.fixture()
def unsafe_model(tmp_path):
    path = tmp_path / "unsafe.aag"
    write_aag(modular_counter(3, modulus=8, bad_value=2).aig, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "model.aag"])
        assert args.engine == "ic3-pl"
        assert args.timeout is None

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.timeout == 5.0
        assert not args.quick

    # Every engine runs the one production SAT kernel; the kernel flag
    # was retired with it and must not be silently accepted.
    @pytest.mark.parametrize("argv", [["check", "model.aag"], ["evaluate"]])
    def test_retired_sat_backend_flag_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--sat-backend", "arena"])

    @pytest.mark.parametrize("command", ["serve", "submit", "metrics"])
    def test_removed_daemon_subcommands_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "ring.aag", "--seed", "-3"],
            ["evaluate", "--seed", "-2"],
            ["check", "ring.aag", "--engine", "kind", "--max-k", "-2"],
        ],
    )
    def test_bad_numeric_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


SEED_COMMANDS = [["check", "model.aag"], ["evaluate"]]
TIMEOUT_FLAGS = [
    ["check", "model.aag", "--timeout"],
    ["check", "model.aag", "--property-timeout"],
    ["evaluate", "--timeout"],
]


class TestNumericFlagTypes:
    @pytest.mark.parametrize("text", ["0", "1", "4096"])
    @pytest.mark.parametrize("command", SEED_COMMANDS, ids=lambda argv: argv[0])
    def test_seed_accepts_non_negative_integers(self, command, text):
        args = build_parser().parse_args(command + ["--seed", text])
        assert args.seed == int(text)

    @pytest.mark.parametrize("text", ["1.5", "abc", ""])
    @pytest.mark.parametrize("command", SEED_COMMANDS, ids=lambda argv: argv[0])
    def test_seed_rejects_non_integers(self, command, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--seed", text])
        assert exit_info.value.code == 2
        assert "invalid integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SEED_COMMANDS, ids=lambda argv: argv[0])
    def test_negative_seed_error_names_the_bound(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--seed", "-1"])
        assert "must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1", "3", "20"])
    def test_max_k_accepts_positive_integers(self, text):
        args = build_parser().parse_args(["check", "model.aag", "--max-k", text])
        assert args.max_k == int(text)

    @pytest.mark.parametrize("text", ["0", "-1", "two", "2.0"])
    def test_max_k_rejects_everything_else(self, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["check", "model.aag", "--max-k", text])
        assert exit_info.value.code == 2
        assert "--max-k" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0.5", "1", "30"])
    @pytest.mark.parametrize("flag", TIMEOUT_FLAGS, ids=" ".join)
    def test_timeouts_accept_positive_seconds(self, flag, text):
        args = build_parser().parse_args(flag + [text])
        assert getattr(args, flag[-1][2:].replace("-", "_")) == float(text)

    @pytest.mark.parametrize("text", ["0", "-5", "-1", "nan", "inf", "-inf", "soon"])
    @pytest.mark.parametrize("flag", TIMEOUT_FLAGS, ids=" ".join)
    def test_timeouts_reject_everything_else(self, flag, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(flag + [text])
        assert exit_info.value.code == 2
        assert flag[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0", "1", "50"])
    def test_max_depth_accepts_non_negative_integers(self, text):
        args = build_parser().parse_args(["check", "model.aag", "--max-depth", text])
        assert args.max_depth == int(text)

    @pytest.mark.parametrize("text", ["-3", "-1", "deep", "1.5"])
    def test_max_depth_rejects_everything_else(self, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["check", "model.aag", "--max-depth", text])
        assert exit_info.value.code == 2
        assert "--max-depth" in capsys.readouterr().err


class TestReduceCommand:
    @pytest.mark.parametrize("index", ["-1", "1", "5"])
    def test_out_of_range_property_is_an_error(self, safe_model, index, capsys):
        assert main(["reduce", safe_model, "--property", index]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: property index {index} out of range")
        assert "valid: 0..0" in out

    def test_in_range_property_reduces(self, safe_model, capsys):
        assert main(["reduce", safe_model, "--property", "0"]) == 0
        assert "total" in capsys.readouterr().out


class TestVersionCommand:
    def test_version_lists_registries(self, capsys):
        from repro.harness.manifest import MANIFEST_SCHEMA

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert MANIFEST_SCHEMA in out
        for line in ("engines:", "frame backends:", "reduction passes:"):
            assert line in out
        assert "ic3-pl" in out and "monolithic" in out
        assert "sat backends" not in out


class TestCheckCommand:
    def test_safe_model_exit_code(self, safe_model, capsys):
        assert main(["check", safe_model]) == 0
        assert "safe" in capsys.readouterr().out

    def test_unsafe_model_exit_code(self, unsafe_model, capsys):
        assert main(["check", unsafe_model]) == 1
        assert "unsafe" in capsys.readouterr().out

    def test_plain_ic3_engine(self, safe_model):
        assert main(["check", safe_model, "--engine", "ic3"]) == 0

    def test_bmc_engine_on_unsafe(self, unsafe_model, capsys):
        assert main(["check", unsafe_model, "--engine", "bmc", "--max-depth", "5"]) == 1
        assert "bmc" in capsys.readouterr().out

    def test_bmc_engine_inconclusive_on_safe(self, safe_model):
        assert main(["check", safe_model, "--engine", "bmc", "--max-depth", "3"]) == 2

    def test_kinduction_engine(self, safe_model, capsys):
        assert main(["check", safe_model, "--engine", "kind"]) == 0
        assert "k-induction" in capsys.readouterr().out

    def test_kinduction_alias(self, safe_model):
        assert main(["check", safe_model, "--engine", "k-induction"]) == 0

    def test_kinduction_max_k_flag(self, safe_model):
        args = build_parser().parse_args(["check", safe_model, "--max-k", "5"])
        assert args.max_k == 5

    def test_portfolio_engine_on_unsafe(self, unsafe_model, capsys):
        assert main(["check", unsafe_model, "--engine", "portfolio"]) == 1
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "won by" in out

    def test_portfolio_engine_on_safe(self, safe_model, capsys):
        assert main(["check", safe_model, "--engine", "portfolio", "--jobs", "2"]) == 0
        assert "won by" in capsys.readouterr().out


class TestSuiteCommand:
    def test_suite_listing(self, capsys):
        assert main(["suite", "--list", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "cases" in output
        assert "ring" in output

    def test_suite_count_only(self, capsys):
        assert main(["suite", "--quick"]) == 0
        assert "cases" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_quick_evaluation_smoke(self, capsys, monkeypatch):
        # Shrink the suite to keep the CLI test fast.
        from repro import cli
        from repro.benchgen import token_ring as ring

        monkeypatch.setattr(cli, "quick_suite", lambda: [ring(3), ring(3, safe=False)])
        exit_code = main(["evaluate", "--quick", "--timeout", "20"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in output
        assert "RIC3-pl" in output

    @pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
    def test_parallel_evaluation_with_manifest(self, live, capsys, monkeypatch, tmp_path):
        import json

        from repro import cli
        from repro.benchgen import token_ring as ring

        monkeypatch.setattr(cli, "quick_suite", lambda: [ring(3), ring(3, safe=False)])
        manifest_path = tmp_path / "run.json"
        exit_code = main(
            [
                "evaluate",
                "--quick",
                "--timeout",
                "20",
                "--jobs",
                "2",
                "--output",
                str(manifest_path),
            ]
            + (["--live"] if live else [])
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Run manifest written" in output
        manifest = json.loads(manifest_path.read_text())
        assert manifest["jobs"] == 2
        assert manifest["suite"] == "quick"
        assert manifest["num_cases"] == 2
        assert {r["config"] for r in manifest["results"]} == {
            "RIC3", "RIC3-pl", "IC3ref", "IC3ref-pl", "IC3ref-CAV23", "ABC-PDR"
        }
        # The engines' counts travel per result, never in a telemetry block.
        assert manifest["schema"] == "repro-check/manifest/v15"
        assert "telemetry" not in manifest
        assert all(r["error"] is None for r in manifest["results"])
        assert all(r["stats"]["sat_calls"] > 0 for r in manifest["results"])

    def test_evaluate_jobs_default(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.jobs == 1
        assert args.output is None
