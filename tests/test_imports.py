"""The package runs on numpy and the standard library alone, and exports
only names that exist."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import clipshift

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import clipshift.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_nothing_but_numpy_and_the_standard_library():
    # a fresh interpreter, so modules pytest already loaded cannot hide one
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    added = json.loads(probe.stdout)
    assert "clipshift.cli" in added
    foreign = [
        name
        for name in added
        if name.partition(".")[0] not in ("clipshift", "numpy")
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_every_exported_name_resolves():
    assert len(clipshift.__all__) == len(set(clipshift.__all__))
    modules = [clipshift] + [
        importlib.import_module(f"clipshift.{info.name}") for info in pkgutil.iter_modules(clipshift.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
