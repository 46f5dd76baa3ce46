import importlib
import pkgutil

import pytest

import sfma

MODULES = [info.name for info in pkgutil.iter_modules(sfma.__path__) if not info.ispkg]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    # a stale __all__ entry fails only at `from module import *`, not at import
    module = importlib.import_module(f"sfma.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
