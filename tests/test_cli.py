"""Tests for the command-line interface."""

import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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

    # IC3 runs on one frame substrate; its flag was retired with the option.
    @pytest.mark.parametrize("argv", [["check", "model.aag"], ["evaluate"]])
    def test_retired_frame_backend_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--frame-backend", "monolithic"])
        assert exit_info.value.code == 2
        assert "--frame-backend" in capsys.readouterr().err

    def test_retired_property_timeout_flag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "model.aag", "--property-timeout", "5"])

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


    @pytest.mark.parametrize("text", ["0", "2"])
    @pytest.mark.parametrize("command", SEED_COMMANDS, ids=lambda argv: argv[0])
    def test_jobs_accepts_non_negative_integers(self, command, text):
        args = build_parser().parse_args(command + ["--jobs", text])
        assert args.jobs == int(text)

    @pytest.mark.parametrize("text", ["-1", "-3"])
    @pytest.mark.parametrize("command", SEED_COMMANDS, ids=lambda argv: argv[0])
    def test_negative_jobs_are_usage_errors(self, command, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--jobs", text])
        assert exit_info.value.code == 2
        assert f"must be at least 0, got {text}" in capsys.readouterr().err


OUTPUT_FLAGS = [
    ["check", "MODEL", "--trace-out"],
    ["evaluate", "--quick", "--trace-out"],
    ["evaluate", "--quick", "--output"],
    ["reduce", "MODEL", "--output"],
]


class TestOutputPaths:
    """An unwritable output path is rejected before any work runs."""

    @staticmethod
    def _argv(flag, model, path):
        return [model if word == "MODEL" else word for word in flag] + [str(path)]

    @pytest.mark.parametrize("where", ["missing directory", "a directory", "under a file"])
    @pytest.mark.parametrize("flag", OUTPUT_FLAGS, ids=" ".join)
    def test_unwritable_path_is_a_usage_error(self, flag, where, safe_model, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        path = {
            "missing directory": tmp_path / "nonexistent" / "out.json",
            "a directory": tmp_path,
            "under a file": blocker / "out.json",
        }[where]
        with pytest.raises(SystemExit) as exit_info:
            main(self._argv(flag, safe_model, path))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag[-1]}: " in captured.err
        assert captured.out == ""  # nothing ran

    @pytest.mark.parametrize("flag", OUTPUT_FLAGS, ids=" ".join)
    def test_writable_paths_are_accepted(self, flag, safe_model, tmp_path):
        existing = tmp_path / "existing.json"
        existing.write_text("old")
        for path in (tmp_path / "new.json", existing):
            args = build_parser().parse_args(self._argv(flag, safe_model, path))
            assert getattr(args, flag[-1][2:].replace("-", "_")) == str(path)


class TestPassesFlag:
    @pytest.mark.parametrize("command", ["check", "reduce"])
    def test_unknown_pass_is_a_usage_error(self, safe_model, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, safe_model, "--passes", "coi,bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unknown reduction pass 'bogus'" in err

    @pytest.mark.parametrize("command", ["check", "reduce"])
    def test_known_passes_parse_to_a_list(self, command):
        args = build_parser().parse_args([command, "m.aag", "--passes", "coi, merge,"])
        assert args.passes == ["coi", "merge"]

    def test_known_passes_run(self, safe_model, capsys):
        assert main(["check", safe_model, "--engine", "ic3", "--passes", "coi"]) == 0
        assert main(["reduce", safe_model, "--passes", "coi"]) == 0
        assert "error" not in capsys.readouterr().out


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


UNREADABLE_MODELS = [
    "missing",
    "directory",
    "malformed",
    "not aiger",
    "truncated binary",
    "empty",
    "input and latch share a variable",
    "two ANDs define one variable",
    "AND reads an undefined variable",
]


# Variable 1 is both an input and a latch; without the check, ic3-pl
# reported a depth-1 counterexample for it.
INPUT_AND_LATCH = "aag 1 1 1 1 0\n2\n2 3\n2\n"
# Two AND gates define variable 3 (bad = 6 = x & y, and again ¬x & ¬y).
TWO_ANDS = "aag 3 2 0 0 2 1\n2\n4\n6\n6 2 4\n6 3 5\n"
# Gate 6 reads variable 2, which nothing defines.
UNDEFINED_OPERAND = "aag 3 1 0 0 1 1\n2\n6\n6 5 2\n"
# bad = ¬x ∧ x, with the gate that reads the other listed first: SAFE.
AND_LINES_OUT_OF_ORDER = "aag 3 1 0 0 2 1\n2\n6\n6 5 2\n4 2 2\n"


def _unreadable_model(problem, tmp_path):
    (tmp_path / "malformed.aag").write_text("aag 3 1 1\n")
    (tmp_path / "text.aag").write_bytes(b"\xff\xfe not a model")
    (tmp_path / "truncated.aig").write_bytes(b"aig 5 1 1 0 1\n")
    (tmp_path / "empty.aag").write_bytes(b"")
    (tmp_path / "input-latch.aag").write_text(INPUT_AND_LATCH)
    (tmp_path / "two-ands.aag").write_text(TWO_ANDS)
    (tmp_path / "undefined.aag").write_text(UNDEFINED_OPERAND)
    return str(
        {
            "missing": tmp_path / "missing.aag",
            "directory": tmp_path,
            "malformed": tmp_path / "malformed.aag",
            "not aiger": tmp_path / "text.aag",
            "truncated binary": tmp_path / "truncated.aig",
            "empty": tmp_path / "empty.aag",
            "input and latch share a variable": tmp_path / "input-latch.aag",
            "two ANDs define one variable": tmp_path / "two-ands.aag",
            "AND reads an undefined variable": tmp_path / "undefined.aag",
        }[problem]
    )


class TestModelReadErrors:
    """A model that cannot be read is a usage error, not a traceback."""

    @pytest.mark.parametrize("command", ["check", "reduce"])
    @pytest.mark.parametrize("problem", UNREADABLE_MODELS)
    def test_unreadable_model_is_a_usage_error(self, command, problem, tmp_path, capsys):
        path = _unreadable_model(problem, tmp_path)
        assert main([command, path]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: cannot read model {path!r}: ")
        assert out.count("\n") == 1

    @pytest.mark.parametrize(
        "flags", [["--all-properties"], ["--property", "0"]], ids=" ".join
    )
    @pytest.mark.parametrize("problem", UNREADABLE_MODELS)
    def test_property_loop_reports_the_same_error(self, flags, problem, tmp_path, capsys):
        path = _unreadable_model(problem, tmp_path)
        assert main(["check", path]) == 2
        single = capsys.readouterr().out
        assert main(["check", path] + flags) == 2
        assert capsys.readouterr().out == single

    @pytest.mark.parametrize(
        "text, literal",
        [(INPUT_AND_LATCH, "latch literal 2"), (TWO_ANDS, "AND output literal 6")],
        ids=["input and latch", "two ANDs"],
    )
    @pytest.mark.parametrize("engine", ["ic3", "ic3-pl", "bmc"])
    def test_variable_defined_twice_names_the_literal(
        self, text, literal, engine, tmp_path, capsys
    ):
        path = tmp_path / "twice.aag"
        path.write_text(text)
        assert main(["check", str(path), "--engine", engine]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: cannot read model {str(path)!r}: {literal} ")
        assert "a second time" in out

    @pytest.mark.parametrize(
        "engine, exit_code, verdict",
        [
            ("ic3", 0, "safe"),
            ("ic3-pl", 0, "safe"),
            ("kind", 0, "safe"),
            ("portfolio", 0, "safe"),
            ("bmc", 2, "unknown"),
        ],
    )
    def test_and_lines_out_of_order_are_read_in_order(
        self, engine, exit_code, verdict, tmp_path, capsys
    ):
        path = tmp_path / "order.aag"
        path.write_text(AND_LINES_OUT_OF_ORDER)
        assert main(["check", str(path), "--engine", engine]) == exit_code
        assert f": {verdict}, " in capsys.readouterr().out


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestBrokenPipe:
    def test_closed_stdout_ends_without_traceback(self, tmp_path):
        # Enough output to overfill the pipe, so the writer is still
        # writing when the reader goes away after the first line.
        script = textwrap.dedent(
            """
            import sys
            from repro import cli
            from repro.benchgen import token_ring

            case = token_ring(3)
            cli.default_suite = lambda: [case] * 20000
            sys.exit(cli.main(["suite", "--list"]))
            """
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        assert process.stdout.readline().startswith(b"20000 cases")
        process.stdout.close()
        _, stderr = process.communicate(timeout=120)
        assert process.returncode not in (0, 1)
        assert b"Traceback" not in stderr
        assert b"BrokenPipeError" not in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["version"],
            ["suite", "--quick"],
            ["reduce", "MODEL"],
            ["check", "MODEL"],
            ["check", "MODEL", "--all-properties"],
        ],
        ids=" ".join,
    )
    def test_reader_gone_before_the_first_line(self, argv, unsafe_model):
        # The read end is closed before the command starts, so its very
        # first (buffered) output fails when main flushes stdout.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli"]
                + [unsafe_model if arg == "MODEL" else arg for arg in argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_child_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 141
        assert completed.stderr == b""


class TestVersionCommand:
    def test_version_lists_registries(self, capsys):
        from repro.harness.manifest import MANIFEST_SCHEMA

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert MANIFEST_SCHEMA in out
        for line in ("engines:", "reduction passes:"):
            assert line in out
        assert "ic3-pl" in out
        assert "sat backends" not in out

    def test_version_lists_no_frame_backends(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "frame backends" not in out and "per-frame" not in out


    def test_version_matches_pyproject(self):
        # Parsed by hand: tomllib is not in every supported Python.
        import repro

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        (line,) = [
            line for line in pyproject.read_text().splitlines()
            if line.startswith("version = ")
        ]
        assert line.split("=", 1)[1].strip().strip('"') == repro.__version__


class TestCheckCommand:
    def test_safe_model_exit_code(self, safe_model, capsys):
        assert main(["check", safe_model]) == 0
        assert "safe" in capsys.readouterr().out

    def test_verbose_prints_each_frame_once_under_a_configured_root(
        self, safe_model, capsys
    ):
        # pytest has configured the root logger, so logging.basicConfig
        # would do nothing here.
        assert logging.getLogger().handlers
        runs = []
        for _ in range(2):
            assert main(["check", safe_model, "--engine", "ic3", "--verbose"]) == 0
            lines = capsys.readouterr().err.splitlines()
            runs.append([int(line.split()[1][2:]) for line in lines if line.startswith("[ic3] k=")])
        frames = runs[0]
        assert frames and frames == list(range(frames[0], frames[0] + len(frames)))
        assert runs[1] == frames  # the first run's handler is gone
        assert logging.getLogger("repro").handlers == []

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

    def test_validate_passes_checked_witnesses(self, capsys, monkeypatch):
        from repro import cli
        from repro.benchgen import token_ring as ring

        monkeypatch.setattr(cli, "quick_suite", lambda: [ring(3), ring(3, safe=False)])
        exit_code = main(["evaluate", "--quick", "--timeout", "20", "--validate"])
        assert exit_code == 0
        assert "WARNING" not in capsys.readouterr().out

    def test_validate_fails_on_rejected_witnesses(self, capsys, monkeypatch, tmp_path):
        import json

        from repro import cli
        from repro.benchgen import token_ring as ring
        from repro.harness import runner

        monkeypatch.setattr(cli, "quick_suite", lambda: [ring(3), ring(3, safe=False)])
        monkeypatch.setattr(runner, "check_certificate", lambda *args, **kwargs: False)
        monkeypatch.setattr(runner, "check_counterexample", lambda *args, **kwargs: False)
        manifest_path = tmp_path / "run.json"
        exit_code = main(
            ["evaluate", "--quick", "--timeout", "20", "--validate",
             "--output", str(manifest_path)]
        )
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "WARNING: 12 witness(es) failed validation:" in output
        assert "RIC3 / ring_n3_safe: safe" in output
        assert "IC3ref-pl / ring_n3_unsafe: unsafe" in output
        results = json.loads(manifest_path.read_text())["results"]
        assert [r["validated"] for r in results] == [False] * 12

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
        assert manifest["schema"] == "repro-check/manifest/v17"
        assert "telemetry" not in manifest
        assert all(r["error"] is None for r in manifest["results"])
        assert all(r["stats"]["sat_calls"] > 0 for r in manifest["results"])

    def test_evaluate_jobs_default(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.jobs == 1
        assert args.output is None
