"""Every exported name resolves, and every module imports on its own.

Tools that walk the public API (the benchmark's tracer wraps each
``__all__`` entry through ``getattr``) break on a name that was removed
from a module but left in its ``__all__``.  The package itself exports
only ``__version__``; names are imported from their modules, so each
module must import in a fresh interpreter without its siblings loaded.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import runslab

SUBMODULES = [info.name for info in pkgutil.iter_modules(runslab.__path__)]
MODULES = ["runslab"] + [f"runslab.{name}" for name in SUBMODULES]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_only_the_version():
    assert runslab.__all__ == ["__version__"]


def _fresh_python(code: str) -> None:
    src = str(Path(runslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_imports_alone(name):
    _fresh_python(f"import runslab.{name}")


def test_covariance_grid_from_stats_alone():
    # stats imports evolve inside the call; nothing else has loaded it.
    _fresh_python(
        "import sys, runslab.stats as s\n"
        "assert 'runslab.evolve' not in sys.modules\n"
        "r = s.empirical_covariance_grid('runs-linear', n=20, reps=50, grid=[0.5], seed=1)\n"
        "assert r.covariance.shape == (1, 1)\n"
    )


def test_cli_import_leaves_out_the_pool_modules():
    # ordered_map imports them only when it starts worker processes
    _fresh_python(
        "import sys, runslab.cli\n"
        "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
