"""Command-line interface.

``repro-check`` exposes what a user typically wants from the command
line:

* ``repro-check check model.aag`` — model-check one AIGER file with any
  registered engine (``--engine ic3|ic3-pl|bmc|kind|portfolio``; the
  portfolio races engines across ``--jobs`` worker processes and
  reports which member won).  ``--all-properties`` checks every safety
  property of the model (its bads, or its outputs when it declares no
  bads) with one engine run each, re-checks every witness against the
  model and prints one verdict per property plus an aggregate;
  ``--property N`` does the same for property N alone.  Justice and
  fairness sections are parsed but not checked.  Models are shrunk
  through the default reduction pipeline first; ``--no-reduce``
  disables that and ``--passes`` picks the passes;
* ``repro-check reduce model.aag`` — run only the reduction pipeline and
  report per-pass shrinkage (optionally writing the reduced model with
  ``--output``);
* ``repro-check evaluate`` — run the paper's evaluation harness on the
  synthetic suite and print Tables 1/2 and the figure summaries.
  ``--jobs N`` parallelizes the configurations × cases cross product over
  worker processes with hard per-case timeouts, and ``--output run.json``
  records a machine-readable manifest of the run;
* ``repro-check suite --list`` — show the benchmark suite;
* ``repro-check trace-report trace.json`` — summarize a recorded trace
  into a per-phase hotspot table.

Exit codes: 0 SAFE, 1 UNSAFE, 2 UNKNOWN or a usage error (printed as
``error: ...``, with no traceback), 141 when the reader of stdout closed
the pipe early.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import List, Optional

from repro.aiger.aig import AigerError
from repro.aiger.parser import read_aiger
from repro.aiger.writer import write_aag
from repro.benchgen.suite import (
    bench_suite,
    default_suite,
    extended_suite,
    quick_suite,
    reduction_suite,
)
from repro.core.frames import available_frame_backends
from repro.core.options import IC3Options
from repro.core.result import CheckResult
from repro.engines import available_engines, create_engine
from repro.harness.configs import (
    apply_frame_backend,
    apply_seed,
    paper_configurations,
)
from repro.harness.manifest import build_manifest, write_manifest
from repro.harness.report import run_paper_evaluation
from repro.harness.runner import validate_witness
from repro.obs import format_report, read_trace, session, validate_trace_file
from repro.obs.heartbeat import (
    Heartbeat,
    LiveStatus,
    format_progress,
    install_heartbeat,
    uninstall_heartbeat,
)
from repro.reduce import available_passes, reduce_aig
from repro.reduce.base import no_properties_message, selected_bads


# Suite name -> module-level factory attribute; the single source for
# both the argparse choices and the dispatch in _select_suite.
_SUITES = {
    "default": "default_suite",
    "extended": "extended_suite",
    "quick": "quick_suite",
    "bench": "bench_suite",
    "reduction": "reduction_suite",
}


def _select_suite(args: argparse.Namespace):
    """Resolve the ``--suite``/``--quick`` flags to (cases, suite name).

    The factory is looked up on this module at call time so tests can
    monkeypatch the suite functions.
    """
    name = "quick" if args.quick else args.suite
    return globals()[_SUITES[name]](), name


def _int_at_least(minimum: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(0, text)


def _positive_int(text: str) -> int:
    return _int_at_least(1, text)


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _output_path(text: str) -> str:
    """An output file path that can be written: checked before the run."""
    directory = os.path.dirname(os.path.abspath(text))
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK) or (
        os.path.exists(text) and not os.access(text, os.W_OK)
    ):
        raise argparse.ArgumentTypeError(f"cannot write to {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="IC3 with CTP-based lemma prediction (DAC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="model-check an AIGER file")
    check.add_argument("model", help="path to an .aag or .aig file")
    check.add_argument(
        "--engine",
        choices=available_engines(include_aliases=True),
        default="ic3-pl",
        help="engine to use (default: ic3-pl)",
    )
    check.add_argument(
        "--timeout", type=_positive_seconds, default=None, help="time limit in seconds"
    )
    check.add_argument("--max-depth", type=_non_negative_int, default=50, help="BMC depth bound")
    check.add_argument(
        "--max-k", type=_positive_int, default=20, help="k-induction bound"
    )
    properties = check.add_mutually_exclusive_group()
    properties.add_argument(
        "--all-properties",
        action="store_true",
        help="check every safety property of the model (bads, or outputs when "
        "it declares no bads) with one engine run each, re-check every "
        "witness and print one verdict per property",
    )
    properties.add_argument(
        "--property",
        type=int,
        default=None,
        metavar="N",
        help="check only safety property N (same numbering as "
        "'reduce --property'), re-checking its witness",
    )
    check.add_argument(
        "--frame-backend",
        choices=available_frame_backends(),
        default=IC3Options.frame_backend,
        help="IC3 frame-management substrate (default: %(default)s)",
    )
    check.add_argument(
        "--jobs",
        type=_non_negative_int,
        default=None,
        help="portfolio worker processes (default: one per member engine)",
    )
    check.add_argument(
        "--seed",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="RNG seed for the SAT kernels' randomized branching "
        "(0 = deterministic unseeded order; the portfolio derives "
        "distinct per-member seeds from it)",
    )
    _add_reduction_arguments(check)
    check.add_argument("--verbose", action="store_true", help="per-frame progress")
    check.add_argument(
        "--live",
        action="store_true",
        help="paint a self-erasing live status line (IC3 frame, lemma and "
        "obligation totals, …) while the engine runs; automatically "
        "suppressed when stdout is not a terminal",
    )
    check.add_argument(
        "--trace-out",
        metavar="PATH",
        type=_output_path,
        default=None,
        help="record a full-stack trace of the run and write it as a "
        "Chrome trace-event (Perfetto-loadable) JSON file to PATH",
    )

    reduce_cmd = sub.add_parser(
        "reduce", help="shrink an AIGER file and report per-pass sizes"
    )
    reduce_cmd.add_argument("model", help="path to an .aag or .aig file")
    reduce_cmd.add_argument(
        "--passes",
        type=_pass_list,
        metavar="LIST",
        default=None,
        help="comma-separated pass list (default pipeline otherwise); "
        f"available: {', '.join(available_passes())}",
    )
    reduce_cmd.add_argument(
        "--property", type=int, default=0, help="bad-property index (default: 0)"
    )
    reduce_cmd.add_argument(
        "--output",
        metavar="PATH",
        type=_output_path,
        default=None,
        help="write the reduced model as ASCII AIGER to PATH",
    )

    evaluate = sub.add_parser("evaluate", help="run the paper evaluation harness")
    evaluate.add_argument("--timeout", type=_positive_seconds, default=5.0, help="per-case timeout")
    evaluate.add_argument(
        "--quick", action="store_true", help="use the small smoke-test suite"
    )
    evaluate.add_argument(
        "--suite",
        choices=sorted(_SUITES),
        default="default",
        help="benchmark suite to run (--quick is shorthand for --suite quick)",
    )
    evaluate.add_argument(
        "--jobs",
        type=_non_negative_int,
        default=1,
        help="parallel worker processes (0 = one per CPU; default: 1)",
    )
    evaluate.add_argument(
        "--output",
        metavar="PATH",
        type=_output_path,
        default=None,
        help="write a machine-readable JSON run manifest to PATH",
    )
    evaluate.add_argument(
        "--validate", action="store_true", help="validate certificates and traces"
    )
    evaluate.add_argument(
        "--no-reduce",
        action="store_true",
        help="solve the original models without reduction preprocessing",
    )
    evaluate.add_argument(
        "--frame-backend",
        choices=available_frame_backends(),
        default=None,
        help="frame-management substrate for every IC3 configuration",
    )
    evaluate.add_argument(
        "--seed",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="RNG seed for the SAT kernels of every configuration "
        "(default: deterministic unseeded order)",
    )
    evaluate.add_argument("--verbose", action="store_true", help="per-case progress")
    evaluate.add_argument(
        "--live",
        action="store_true",
        help="paint a live status line aggregating the worker processes' "
        "heartbeats; suppressed when stdout is not a terminal",
    )
    evaluate.add_argument(
        "--trace-out",
        metavar="PATH",
        type=_output_path,
        default=None,
        help="record a pid/tid-tagged timeline of the whole evaluation "
        "(parent + every worker process) to PATH as Chrome trace JSON",
    )

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize a recorded trace into a per-phase hotspot table",
    )
    trace_report.add_argument(
        "trace", help="path to a Chrome trace JSON or JSONL event file"
    )
    trace_report.add_argument(
        "--validate",
        action="store_true",
        help="check the Chrome trace-event schema first; nonzero exit on problems",
    )

    sub.add_parser(
        "version",
        help="print version and registry diagnostics (engines, backends, passes)",
    )

    suite = sub.add_parser("suite", help="inspect the benchmark suite")
    suite.add_argument("--list", action="store_true", help="list the cases")
    suite.add_argument("--quick", action="store_true", help="use the smoke-test suite")
    suite.add_argument(
        "--suite",
        choices=sorted(_SUITES),
        default="default",
        help="benchmark suite to inspect",
    )
    return parser


class UsageError(Exception):
    """A problem with the user's input: printed as ``error: ...``, exit 2."""


# 128 + SIGPIPE: the shell's code for a writer whose reader went away.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        exit_code = _run_command(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except UsageError as error:
        print(f"error: {error}")
        return 2
    except BrokenPipeError:
        # The reader of stdout closed early (``| head``).  Point stdout at
        # /dev/null so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return exit_code


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "check":
        return _command_check(args)
    if args.command == "reduce":
        return _command_reduce(args)
    if args.command == "evaluate":
        return _command_evaluate(args)
    if args.command == "suite":
        return _command_suite(args)
    if args.command == "trace-report":
        return _command_trace_report(args)
    if args.command == "version":
        return _command_version(args)
    return 2  # pragma: no cover - argparse enforces the choices


@contextmanager
def _live_check_session(active: bool):
    """``check --live``: an in-process heartbeat feeding a status line.

    The engine runs in this process, so no publisher file is needed —
    the status line reads the heartbeat object directly.  LiveStatus
    suppresses itself when stdout is not a terminal.
    """
    if not active:
        yield
        return
    heartbeat = install_heartbeat(Heartbeat(role="check"))
    try:
        with LiveStatus(lambda: format_progress(heartbeat.snapshot())):
            yield
    finally:
        uninstall_heartbeat()
        heartbeat.close()


def _live_workers_line(monitor):
    """``evaluate --live``: aggregate the worker heartbeats on one line.

    Paints the freshest worker's progress, prefixed with the live worker
    count; a no-op outside a live session (``monitor`` is None).
    """
    if monitor is None:
        return nullcontext()

    def _line() -> Optional[str]:
        records = [r for r in monitor.read_all() if monitor.age(r) < 5.0]
        if not records:
            return None
        records.sort(key=lambda r: r.get("time_mono", 0.0), reverse=True)
        head = format_progress(records[0])
        if len(records) > 1:
            return f"[{len(records)} workers] {head}"
        return head

    return LiveStatus(_line)


@contextmanager
def _verbose_logging(verbose: bool):
    """Route the engines' INFO-level ``logging`` progress (IC3's
    per-frame line) to stderr while one command runs.

    The handler sits on the ``repro`` logger, so it works whether or not
    the embedding process configured the root logger, and it is removed
    afterwards, so repeated :func:`main` calls do not stack handlers.
    """
    if not verbose:
        yield
        return
    logger = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _command_version(args: argparse.Namespace) -> int:
    """Print the version plus every extension registry's contents.

    The registries are the supported customization points (engines,
    frame substrates, reduction passes); listing them in
    one place is the quickest way to see what a given checkout or
    third-party plugin actually provides.
    """
    import repro
    from repro.harness.manifest import MANIFEST_SCHEMA

    print(f"repro-check {repro.__version__}")
    print(f"manifest schema:  {MANIFEST_SCHEMA}")
    print(f"engines:          {', '.join(available_engines(include_aliases=True))}")
    print(f"frame backends:   {', '.join(available_frame_backends())}")
    print(f"reduction passes: {', '.join(available_passes())}")
    return 0


def _add_reduction_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-reduce",
        action="store_true",
        help="solve the original model without reduction preprocessing",
    )
    parser.add_argument(
        "--passes",
        type=_pass_list,
        metavar="LIST",
        default=None,
        help="comma-separated reduction pass list; "
        f"available: {', '.join(available_passes())}",
    )


def _pass_list(text: str) -> List[str]:
    """A ``--passes`` value: comma-separated names from the pass registry."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    known = set(available_passes())
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown reduction pass {name!r} (available: {', '.join(sorted(known))})"
            )
    return names


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Per-kind construction keywords for the ``check`` subcommand."""
    kwargs: dict = {
        "reduce": not args.no_reduce,
        "passes": args.passes,
    }
    if args.engine == "bmc":
        kwargs["max_depth"] = args.max_depth
    elif args.engine in ("kind", "k-induction"):
        kwargs["max_k"] = args.max_k
    elif args.engine == "portfolio":
        from repro.engines.portfolio import PortfolioOptions

        kwargs["jobs"] = args.jobs
        kwargs["member_kwargs"] = {
            "bmc": {"max_depth": args.max_depth},
            "kind": {"max_k": args.max_k},
        }
        kwargs["portfolio_options"] = PortfolioOptions(
            base_seed=args.seed if args.seed else 1
        )
    return kwargs


def _command_check(args: argparse.Namespace) -> int:
    with _verbose_logging(args.verbose), session(trace_out=args.trace_out, label="check"):
        with _live_check_session(args.live):
            exit_code = _check_body(args)
    if args.trace_out:
        print(f"Trace written to {args.trace_out}")
    return exit_code


def _read_model(path: str):
    """Read an AIGER model; an unreadable or malformed file is a usage error."""
    try:
        aig = read_aiger(path)
        aig.validate()
        return aig
    except (OSError, AigerError, UnicodeDecodeError) as error:
        raise UsageError(f"cannot read model {path!r}: {error}") from None


def _property_indices(aig, index: Optional[int] = None) -> List[int]:
    """The safety properties to check: every one, or only ``index``.

    ``check`` and ``reduce`` share this, so a property number means the
    same thing (and is rejected with the same text) on both.
    """
    count = len(selected_bads(aig))
    if not count:
        raise UsageError(no_properties_message(aig))
    if index is None:
        return list(range(count))
    if not 0 <= index < count:
        raise UsageError(f"property index {index} out of range (valid: 0..{count - 1})")
    return [index]


def _check_body(args: argparse.Namespace) -> int:
    aig = _read_model(args.model)
    options = IC3Options(seed=args.seed, frame_backend=args.frame_backend)
    if args.all_properties:
        return _check_properties(args, aig, options, _property_indices(aig))
    if args.property is not None:
        return _check_properties(args, aig, options, _property_indices(aig, args.property))
    _property_indices(aig, 0)  # a model with nothing to check is a usage error
    engine = create_engine(args.engine, aig, options=options, **_engine_kwargs(args))
    outcome = engine.check(time_limit=args.timeout)
    if args.verbose and outcome.reduction:
        original = outcome.reduction["original"]
        reduced = outcome.reduction["reduced"]
        print(
            f"[reduce] latches {original['latches']} -> {reduced['latches']}, "
            f"ands {original['ands']} -> {reduced['ands']} "
            f"(passes: {', '.join(outcome.reduction['passes'])})"
        )
    print(outcome.summary())
    return _exit_code(outcome.result)


def _exit_code(result: CheckResult) -> int:
    return {CheckResult.SAFE: 0, CheckResult.UNSAFE: 1}.get(result, 2)


def _check_properties(args: argparse.Namespace, aig, options, indices: List[int]) -> int:
    """``check --all-properties`` / ``--property N``: a checked loop.

    Each property gets its own engine run (``--timeout`` each) and its
    witness is re-checked against the original model before the verdict
    counts.  Exit 2 if a witness is rejected, or if a verdict is UNKNOWN
    and none is UNSAFE; else 1 if any is UNSAFE; else 0.
    """
    prefix = "b" if aig.bads else "o"
    start = time.perf_counter()
    results = []
    rejected = []
    for index in indices:
        engine = create_engine(
            args.engine, aig, options=options, property_index=index, **_engine_kwargs(args)
        )
        outcome = engine.check(time_limit=args.timeout)
        label = f"{prefix}{index}"
        line = f"{label}: {outcome.summary()}"
        if validate_witness(aig, outcome, property_index=index) is False:
            rejected.append(label)
            line += " [witness rejected]"
        print(line)
        results.append(outcome.result)
    if CheckResult.UNSAFE in results:
        aggregate = CheckResult.UNSAFE
    elif CheckResult.UNKNOWN in results:
        aggregate = CheckResult.UNKNOWN
    else:
        aggregate = CheckResult.SAFE
    print(f"aggregate: {aggregate.value} ({time.perf_counter() - start:.2f}s)")
    if rejected:
        print(f"WARNING: witness validation failed for: {', '.join(rejected)}")
        return 2
    return _exit_code(aggregate)


def _command_reduce(args: argparse.Namespace) -> int:
    aig = _read_model(args.model)
    _property_indices(aig, args.property)
    result = reduce_aig(
        aig, property_index=args.property, passes=args.passes
    )
    header = f"{'pass':<10s} {'inputs':>14s} {'latches':>14s} {'ands':>14s}"
    print(header)
    print("-" * len(header))
    for info in result.infos:
        print(
            f"{info.pass_name:<10s} "
            f"{info.inputs_before:>6d} -> {info.inputs_after:<5d}"
            f"{info.latches_before:>6d} -> {info.latches_after:<5d}"
            f"{info.ands_before:>6d} -> {info.ands_after:<5d}"
        )
    print("-" * len(header))
    print(
        f"{'total':<10s} "
        f"{aig.num_inputs:>6d} -> {result.aig.num_inputs:<5d}"
        f"{aig.num_latches:>6d} -> {result.aig.num_latches:<5d}"
        f"{aig.num_ands:>6d} -> {result.aig.num_ands:<5d}"
    )
    if args.output:
        write_aag(result.aig, args.output)
        print(f"\nReduced model written to {args.output}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    with session(trace_out=args.trace_out, live=args.live, label="evaluate") as monitor:
        with _live_workers_line(monitor):
            exit_code = _evaluate_body(args)
    if args.trace_out:
        print(f"Trace written to {args.trace_out}")
    return exit_code


def _evaluate_body(args: argparse.Namespace) -> int:
    cases, suite_name = _select_suite(args)
    start = time.perf_counter()
    report = run_paper_evaluation(
        cases=cases,
        timeout=args.timeout,
        validate=args.validate,
        verbose=args.verbose,
        jobs=args.jobs,
        reduce=not args.no_reduce,
        frame_backend=args.frame_backend,
        seed=args.seed,
    )
    wall_clock = time.perf_counter() - start
    print(report.to_text())
    if args.output:
        configs = apply_seed(
            apply_frame_backend(paper_configurations(), args.frame_backend),
            args.seed,
        )
        manifest = build_manifest(
            report.suite_result,
            suite=suite_name,
            jobs=args.jobs,
            validate=args.validate,
            reduce=not args.no_reduce,
            configs=configs,
            wall_clock=wall_clock,
        )
        write_manifest(args.output, manifest)
        print(f"\nRun manifest written to {args.output}")
    exit_code = 0
    crashed = [r for r in report.suite_result.results if r.error]
    if crashed:
        print(f"\nWARNING: {len(crashed)} worker(s) crashed instead of reporting:")
        for result in crashed[:10]:
            print(f"  {result.config_name} / {result.case_name}: {result.error}")
        exit_code = 1
    wrong = report.suite_result.incorrect_results()
    if wrong:
        print(f"\nWARNING: {len(wrong)} results contradict the ground truth")
        exit_code = 1
    return exit_code


def _command_trace_report(args: argparse.Namespace) -> int:
    """Print the per-phase hotspot table of a recorded trace."""
    try:
        events = read_trace(args.trace)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read trace {args.trace!r}: {error}") from None
    if args.validate:
        problems = validate_trace_file(args.trace)
        if problems:
            print(f"{len(problems)} trace schema problem(s):")
            for problem in problems[:20]:
                print(f"  {problem}")
            return 1
        print(f"trace schema OK ({len(events)} events)")
    if not events:
        print("trace is empty")
        return 0
    print(format_report(events))
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    cases, suite_name = _select_suite(args)
    print(f"{len(cases)} cases ({suite_name} suite)")
    if args.list:
        for case in cases:
            print("  " + case.describe())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
