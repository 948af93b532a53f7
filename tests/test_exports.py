"""Every exported name resolves: a deletion may not leave a dangling export."""

import importlib
import inspect

import pytest

import nvcalc

MODULES = [
    "cli",
    "dyadic_core",
    "element_algebra",
    "ends_cocycle",
    "reporting",
    "words_generators",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(f"nvcalc.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_package_reexport_resolves():
    """Each public object of ``nvcalc`` is the same object its defining
    module lists in ``__all__``."""
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"nvcalc.{name}")
        exported.update({attr: getattr(module, attr, None) for attr in module.__all__})
    public = {
        attr: obj
        for attr, obj in vars(nvcalc).items()
        if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert public
    for attr, obj in public.items():
        assert exported.get(attr) is obj, attr
