"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale string in ``__all__`` survives ``import`` and fails only at
``from module import *`` or when a reader follows it, so deleting a
function without its export goes unnoticed elsewhere.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


@pytest.mark.parametrize("name", sorted(_modules()))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
