"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import dgcentral


def test_every_exported_name_resolves():
    modules = [dgcentral] + [importlib.import_module(f"dgcentral.{m.name}") for m in pkgutil.iter_modules(dgcentral.__path__)]
    assert len(modules) > 1  # the submodules were found
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []
