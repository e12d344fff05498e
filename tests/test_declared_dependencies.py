"""The package runs on exactly the dependencies ``pyproject.toml`` declares.

A fresh interpreter installs a ``sys.meta_path`` finder that refuses every
top-level package installed outside the standard library (found in a
site-packages directory) other than ``repro`` and the declared
``[project] dependencies``, then imports every ``repro`` module and trains
the default offline suite.  An undeclared import anywhere on
those paths fails here instead of in a clean ``pip install``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_GUARDED_RUN = r"""
import importlib
import importlib.machinery
import pkgutil
import site
import sys
import sysconfig

ALLOWED = set(sys.argv[1].split(",")) | {"repro"}
#: Where installed (non-stdlib) packages live.
INSTALLED = tuple({*site.getsitepackages(), site.getusersitepackages(),
                   sysconfig.get_paths()["purelib"],
                   sysconfig.get_paths()["platlib"]})


class UndeclaredDependencyFinder:
    def find_spec(self, name, path=None, target=None):
        if path is not None or name in ALLOWED:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name)
        places = ([spec.origin or ""] + list(spec.submodule_search_locations or [])
                  if spec is not None else [])
        if any(place.startswith(INSTALLED) for place in places):
            raise ImportError(f"undeclared dependency {name!r}")
        return None


sys.meta_path.insert(0, UndeclaredDependencyFinder())

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name.rpartition(".")[2] != "__main__":
        importlib.import_module(module.name)

from repro.api import SchedulerSuite

assert SchedulerSuite().moe is not None
print("ok")
"""


def declared_dependencies() -> list[str]:
    """Import names of the ``[project] dependencies`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    names = re.findall(r'"([A-Za-z0-9_.-]+)', block)
    return [name.lower().replace("-", "_") for name in names]


def test_modules_and_suite_training_need_only_declared_dependencies():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _GUARDED_RUN, ",".join(declared_dependencies())],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip().endswith("ok")
