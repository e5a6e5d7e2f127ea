"""Building, caching and loading the C SAT kernel.

The cold-build tests compile ``kernel.c`` into an empty cache directory
in a fresh interpreter, exactly as a first import does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sat import build

SRC = str(Path(build.__file__).resolve().parents[2])

# Build (or load) the kernel through the normal import, solve, and print
# the cache entry the module was loaded from.
PROBE = """
from repro.sat.arena import ArenaSolver
solver = ArenaSolver()
solver.add_clause([1, 2])
solver.add_clause([-1])
assert solver.solve() is True and solver.get_model() == {1: False, 2: True}
assert solver.solve([-2]) is False and solver.unsat_core() == [-2]
import sys
print(sys.modules["_repro_sat_kernel"].__file__)
"""


def _probe(cache, **env):
    return subprocess.Popen(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(cache), **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _entries(cache):
    root = cache / "repro"
    return sorted(p.name for p in root.iterdir()) if root.exists() else []


def test_cold_build_loads_and_solves(tmp_path):
    proc = _probe(tmp_path)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    (entry,) = _entries(tmp_path)
    assert entry.startswith("sat-kernel-")
    module = Path(out.strip().splitlines()[-1])
    assert module.parent == tmp_path / "repro" / entry
    # Only the built module is kept in the entry.
    assert [p.name for p in module.parent.iterdir()] == [module.name]


def test_concurrent_cold_builds_load_the_same_module(tmp_path):
    procs = [_probe(tmp_path), _probe(tmp_path)]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out.strip().splitlines()[-1])
    assert outputs[0] == outputs[1]
    # One entry, no staging directory left behind by the losing build.
    assert len(_entries(tmp_path)) == 1


def test_missing_compiler_names_it_and_leaves_no_entry(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    with pytest.raises(build.KernelBuildError, match="no-such-cc.*not found"):
        build.load()
    assert _entries(tmp_path) == []


def test_missing_cffi_names_it(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setitem(sys.modules, "cffi", None)  # makes ``import cffi`` fail
    with pytest.raises(build.KernelBuildError, match="needs cffi"):
        build.load()
    assert _entries(tmp_path) == []


def test_failed_compile_leaves_no_entry(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    broken = tmp_path / "kernel.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(build, "SOURCE", broken)
    with pytest.raises(build.KernelBuildError, match="compiling the SAT kernel"):
        build.load()
    assert _entries(tmp_path) == []


def test_warm_import_does_not_load_the_builder():
    code = (
        "import sys, repro.sat.arena; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('cffi', 'setuptools', 'distutils')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_cache_key_covers_source_cdef_flags_and_suffix(monkeypatch):
    base = build.entry_dir("int x;")
    assert build.entry_dir("int y;") != base
    monkeypatch.setattr(build.sysconfig, "get_config_var", lambda name: ".other.so")
    assert build.entry_dir("int x;") != base
    monkeypatch.undo()
    monkeypatch.setattr(build, "CDEF", build.CDEF + "\n")
    assert build.entry_dir("int x;") != base
    monkeypatch.undo()
    monkeypatch.setattr(build, "COMPILE_ARGS", build.COMPILE_ARGS + ["-O3"])
    assert build.entry_dir("int x;") != base
