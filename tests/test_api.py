"""Every exported name resolves.

Tools that walk the public API (the benchmark's tracer wraps each
``__all__`` entry through ``getattr``) break on a name that was removed
from a module but left in its ``__all__``.
"""

import importlib
import pkgutil

import pytest

import runslab

MODULES = ["runslab"] + [
    f"runslab.{info.name}" for info in pkgutil.iter_modules(runslab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
