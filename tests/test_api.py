import importlib
import pkgutil

import pytest

import cvarbounds

MODULES = [info.name for info in pkgutil.iter_modules(cvarbounds.__path__) if not info.name.startswith("_")]


def test_every_module_is_listed():
    assert "sim" in MODULES and "experiments" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry does not break `import`, only `from ... import *`
    module = importlib.import_module(f"cvarbounds.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
