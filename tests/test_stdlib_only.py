"""The package imports nothing outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import monotiles

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import monotiles
for info in pkgutil.iter_modules(monotiles.__path__):
    importlib.import_module("monotiles." + info.name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"monotiles"})))
"""


def test_every_submodule_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(Path(monotiles.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert json.loads(proc.stdout) == []
