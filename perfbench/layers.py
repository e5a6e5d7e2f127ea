"""Per-layer self-times measured from outside the program.

:class:`LayerProfiler` wraps public entry points of the ``repro`` modules
with an exclusive-time stack: each call's elapsed time is charged to its
layer bucket minus the time spent in nested wrapped calls, so the
buckets are disjoint and add up to the traced wall time (the remainder
is reported as ``unattributed``).  ``opaque`` entries — the witness
checkers — are charged their full inclusive time; calls nested inside
them are not attributed separately, so SAT work done by a checker never
counts as engine SAT time.

Module-level functions are replaced in every loaded module that holds a
reference to them (``from x import f`` copies the binding); methods are
replaced on the class that defines them.  :meth:`LayerProfiler.restore`
puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (module, attribute path, bucket, opaque).  An attribute path with a dot
# is ``Class.method``.
ENTRY_POINTS: List[Tuple[str, str, str, bool]] = [
    ("repro.aiger.parser", "parse_aiger", "aiger.parse_s", False),
    ("repro.reduce.pipeline", "reduce_aig", "reduce.s", False),
    ("repro.reduce.pipeline", "ReductionResult.lift_outcome", "reduce.lift_s", False),
    ("repro.ts.system", "TransitionSystem.__init__", "ts.encode_s", False),
    ("repro.engines.registry", "create_engine", "engines.create_s", False),
    ("repro.sat.solver", "Solver.solve", "sat.solve_s", False),
    ("repro.sat.solver", "Solver.solve_limited", "sat.solve_s", False),
    ("repro.sat.arena", "ArenaSolver.solve", "sat.solve_s", False),
    ("repro.sat.arena", "ArenaSolver.solve_limited", "sat.solve_s", False),
    ("repro.core.frames", "MonolithicFrameManager.consecution", "frames.consecution_s", False),
    ("repro.core.frames", "PerFrameFrameManager.consecution", "frames.consecution_s", False),
    ("repro.core.frames", "MonolithicFrameManager.get_bad_state", "frames.bad_state_s", False),
    ("repro.core.frames", "PerFrameFrameManager.get_bad_state", "frames.bad_state_s", False),
    ("repro.core.frames", "MonolithicFrameManager.lift_predecessor", "frames.lift_s", False),
    ("repro.core.frames", "PerFrameFrameManager.lift_predecessor", "frames.lift_s", False),
    ("repro.core.frames", "FrameManagerBase.add_frame", "frames.other_s", False),
    ("repro.core.frames", "FrameManagerBase.add_blocked_cube", "frames.other_s", False),
    ("repro.core.frames", "FrameManagerBase.promote_cube", "frames.other_s", False),
    ("repro.core.ic3", "IC3.check", "ic3.self_s", False),
    ("repro.core.generalize", "Generalizer.generalize", "generalize.s", False),
    ("repro.core.predict", "LemmaPredictor.predict", "predict.s", False),
    ("repro.core.predict", "LemmaPredictor.record_push_failure", "predict.s", False),
    ("repro.core.invariant", "check_certificate", "invariant.certificate_s", True),
    ("repro.core.invariant", "check_counterexample", "invariant.trace_s", True),
    ("repro.harness.runner", "BenchmarkRunner.run_one", "harness.self_s", False),
]


def buckets() -> List[str]:
    """Every self-time bucket, in a stable order."""
    return list(dict.fromkeys(bucket for _m, _a, bucket, _o in ENTRY_POINTS))


class LayerProfiler:
    """Exclusive-time accounting over the wrapped entry points."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._opaque_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, bucket: str, opaque: bool) -> Callable:
        profiler = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if profiler._opaque_depth:
                return fn(*args, **kwargs)
            child = [0.0]
            profiler._stack.append(child)
            profiler._opaque_depth += opaque
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                profiler._opaque_depth -= opaque
                profiler._stack.pop()
                profiler.self_time[bucket] += elapsed - child[0]
                if profiler._stack:
                    profiler._stack[-1][0] += elapsed

        wrapper.layer_bucket = bucket
        return wrapper

    def install(self) -> None:
        """Wrap every entry point; :meth:`restore` undoes it."""
        if self._patches:
            raise RuntimeError("profiler already installed")
        for module_name, path, bucket, opaque in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attr, self._wrap(owner.__dict__[attr], bucket, opaque))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, bucket, opaque)
            for holder in list(sys.modules.values()):
                for attr, value in list(getattr(holder, "__dict__", {}).items()):
                    if value is original:
                        self._patch(holder, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original function and method back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerProfiler":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
