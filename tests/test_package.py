import importlib
import pkgutil

import guidedflow


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from guidedflow.<module> import *`; catch it here instead.
    checked = []
    for info in pkgutil.iter_modules(guidedflow.__path__):
        module = importlib.import_module(f"guidedflow.{info.name}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"guidedflow.{info.name}.__all__ lists undefined {missing}"
        checked.append(info.name)
    assert len(checked) >= 7
