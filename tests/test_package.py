"""The package's public names."""

import importlib
import pkgutil

import pytest

import liecert

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(liecert.__path__))


@pytest.mark.parametrize("name", ["liecert"] + [f"liecert.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), exported
    assert [n for n in exported if not hasattr(module, n)] == []
