import importlib
import pkgutil

import unigraph as ug


def test_package_exports_every_module_name():
    # each library module's __all__ is the one list of its public names
    modules = [m.name for m in pkgutil.iter_modules(ug.__path__) if m.name != "cli"]
    assert {"digraphs", "errors", "groups", "membership"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"unigraph.{name}")
        missing = [x for x in module.__all__ if getattr(ug, x, None) is not getattr(module, x)]
        assert not missing, (name, missing)
