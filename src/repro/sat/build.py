"""Compile and load the C SAT kernel (``kernel.c``).

The kernel is built with cffi in API mode the first time it is imported
and cached in the user cache directory (``$XDG_CACHE_HOME/repro``,
default ``~/.cache/repro``), one directory per SHA-256 of the C source,
the cdef, the compiler flags and the interpreter's extension suffix.  A build compiles into a
temporary directory next to its entry and renames it into place, so
concurrent first imports never see a partial entry: the first rename
wins and every process loads that module.

Loading a cached kernel imports only the built extension module; cffi's
builder (and the setuptools it drives) is imported only to compile.
Compiling needs ``cffi``, ``setuptools`` and a C99 compiler (``$CC``,
else the one Python was built with); when one is missing,
:class:`KernelBuildError` names it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sysconfig
from pathlib import Path

MODULE = "_repro_sat_kernel"
SOURCE = Path(__file__).with_name("kernel.c")

# The part of kernel.c the wrapper calls; ``...`` lets cffi take the rest
# of the kernel struct's layout from the C source.
CDEF = """
typedef struct {
    int64_t decisions, propagations, conflicts, restarts;
    int64_t learnt_clauses, removed_clauses, solve_calls, max_decision_level;
    int64_t activation_vars_allocated, activation_vars_recycled;
    int64_t activation_vars_retired, guarded_clauses_added;
    int64_t guarded_clauses_freed, learnts_purged, assumption_levels_reused;
    int64_t watch_traversals, blocker_hits, literal_pool_bytes;
    int64_t arena_compactions;
} k_stats;

typedef struct {
    int32_t *data;
    int32_t size;
    int32_t cap;
} k_ivec;

typedef struct {
    k_stats stats;
    int32_t num_vars;
    int32_t num_problem;
    int32_t ok;
    int8_t *values;
    k_ivec core;
    k_ivec learnts;
    ...;
} kernel;

kernel *k_new(double var_decay, double clause_decay, int64_t restart_base,
              double max_learnt_factor, double learnt_growth);
void k_free(kernel *k);
void k_set_seed(kernel *k, int enabled, uint64_t seed);
int32_t k_new_var(kernel *k);
int k_ensure_var(kernel *k, int32_t var);
int k_add_clause(kernel *k, const int32_t *lits, int32_t n);
int32_t k_new_activation(kernel *k);
int64_t k_add_guarded(kernel *k, int32_t act, const int32_t *lits, int32_t n);
int k_remove_guarded(kernel *k, int32_t handle);
int k_release(kernel *k, int32_t act, const int32_t *handles, int32_t n);
int k_solve(kernel *k, const int32_t *assumptions, int32_t n, int64_t budget);
"""

# IEEE doubles exactly as written: no fast-math, no fused multiply-adds.
COMPILE_ARGS = ["-std=c99", "-O2", "-fno-fast-math", "-ffp-contract=off"]


class KernelBuildError(RuntimeError):
    """The C SAT kernel could not be compiled."""


def cache_root() -> Path:
    """The user cache directory of this package."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(base) / "repro"


def entry_dir(source: str) -> Path:
    """Cache entry of one kernel build."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256()
    for part in (source, CDEF, " ".join(COMPILE_ARGS), suffix):
        digest.update(part.encode())
        digest.update(b"\0")
    return cache_root() / f"sat-kernel-{digest.hexdigest()}"


def load():
    """Return ``(ffi, lib)`` of the kernel, building it on first use."""
    source = SOURCE.read_text()
    entry = entry_dir(source)
    path = entry / (MODULE + sysconfig.get_config_var("EXT_SUFFIX"))
    if not path.exists():
        _build(source, entry)
    spec = importlib.util.spec_from_file_location(MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _compiler() -> str:
    import shlex

    command = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shlex.split(command)[0]


def _build(source: str, entry: Path) -> None:
    # Imported here: a warm load needs none of the build machinery.
    import shutil
    import tempfile

    try:
        import cffi
    except ImportError as exc:
        raise KernelBuildError(
            "the SAT kernel is compiled from C on first import and needs cffi "
            "(pip install cffi)"
        ) from exc
    compiler = _compiler()
    if shutil.which(compiler) is None:
        raise KernelBuildError(
            f"C compiler {compiler!r} not found: the SAT kernel is compiled from C "
            "on first import (set CC to a C99 compiler)"
        )
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=entry.name + ".tmp-", dir=entry.parent)
    except OSError as exc:
        raise KernelBuildError(f"cannot write the SAT kernel cache: {exc}") from exc
    try:
        builder = cffi.FFI()
        builder.cdef(CDEF)
        builder.set_source(MODULE, source, extra_compile_args=COMPILE_ARGS)
        try:
            built = builder.compile(tmpdir=staging)
        except Exception as exc:
            raise KernelBuildError(
                f"compiling the SAT kernel with {compiler!r} failed: {exc}"
            ) from exc
        for item in Path(staging).iterdir():
            if item.is_dir():
                shutil.rmtree(item)
            elif item.name != Path(built).name:
                item.unlink()
        try:
            os.rename(staging, entry)
        except OSError:
            if not entry.exists():  # not a lost race with another build
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
