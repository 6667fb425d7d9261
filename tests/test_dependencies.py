"""The package needs nothing outside the standard library; networkx is only
an oracle for the tests."""

import subprocess
import sys
from pathlib import Path

import dyncolor

IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any import of it now raises ImportError
sys.path.insert(0, sys.argv[1])
import dyncolor
for m in pkgutil.iter_modules(dyncolor.__path__, "dyncolor."):
    importlib.import_module(m.name)
    print(m.name)
"""


def test_every_module_imports_without_networkx():
    package = Path(dyncolor.__file__).parent
    run = subprocess.run([sys.executable, "-c", IMPORT_ALL, str(package.parent)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    modules = {f"dyncolor.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert set(run.stdout.split()) == modules
