"""The package runs on numpy and the standard library alone, loads
OpenBLAS on one thread without leaving its variable behind unless the
user set a thread count, and exports only names that exist."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import clipshift

SRC = Path(__file__).resolve().parents[1] / "src"

# the variables OpenBLAS reads its thread count from, as numpy loads it
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# imports clipshift.cli, numpy first when asked, and reports the modules it
# added, the keys written to os.environ, OPENBLAS_NUM_THREADS afterwards and
# the process's OS threads
_PROBE = """
import json, os, sys
writes = []
class Watched(type(os.environ)):
    def __setitem__(self, key, value):
        writes.append(key)
        super().__setitem__(key, value)
os.environ.__class__ = Watched
if sys.argv[1:] == ["numpy-first"]:
    import numpy
before = set(sys.modules)
import clipshift.cli
tasks = "/proc/self/task"
print(json.dumps({
    "added": sorted(set(sys.modules) - before),
    "writes": writes,
    "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""

_COUNTS_THREADS = pytest.mark.skipif(
    sys.platform != "linux" or not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task"
)


def _probe(*args, **threads):
    """Run _PROBE in a fresh interpreter, so modules pytest already loaded
    cannot hide one, with the thread-count variables given in threads set
    and every other one of _THREAD_VARIABLES unset."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = path
    env.update(threads)
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(probe.stdout)


def test_cli_imports_nothing_but_numpy_and_the_standard_library():
    added = _probe()["added"]
    assert "clipshift.cli" in added
    foreign = [
        name
        for name in added
        if name.partition(".")[0] not in ("clipshift", "numpy")
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


@_COUNTS_THREADS
def test_import_loads_blas_on_one_thread_and_unsets_its_variable():
    probe = _probe()
    assert probe["threads"] == 1
    assert probe["writes"] == ["OPENBLAS_NUM_THREADS"]
    assert probe["blas_threads_env"] is None


@_COUNTS_THREADS
def test_import_keeps_a_blas_thread_count_the_user_set():
    probe = _probe(OPENBLAS_NUM_THREADS="2")
    assert probe["writes"] == []
    assert probe["blas_threads_env"] == "2"
    # OpenBLAS caps its threads at the CPUs the process may run on
    if len(os.sched_getaffinity(0)) >= 2:
        assert probe["threads"] == 2


@_COUNTS_THREADS
@pytest.mark.parametrize("variable", ["OMP_NUM_THREADS", "GOTO_NUM_THREADS"])
def test_import_keeps_a_thread_count_openblas_reads_in_its_place(variable):
    # OpenBLAS falls back to these when OPENBLAS_NUM_THREADS is unset
    probe = _probe(**{variable: "2"})
    assert probe["writes"] == []
    assert probe["blas_threads_env"] is None
    if len(os.sched_getaffinity(0)) >= 2:
        assert probe["threads"] == 2


@_COUNTS_THREADS
def test_import_after_numpy_leaves_the_environment_untouched():
    probe = _probe("numpy-first")
    assert probe["writes"] == []
    assert probe["blas_threads_env"] is None


def test_every_exported_name_resolves():
    assert len(clipshift.__all__) == len(set(clipshift.__all__))
    modules = [clipshift] + [
        importlib.import_module(f"clipshift.{info.name}") for info in pkgutil.iter_modules(clipshift.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
