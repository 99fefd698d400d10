"""Every name the package and its modules list in ``__all__`` exists."""

import importlib
import pkgutil

import groupgraphs


def test_every_all_entry_resolves():
    modules = [groupgraphs] + [
        importlib.import_module(f"groupgraphs.{info.name}")
        for info in pkgutil.iter_modules(groupgraphs.__path__)
    ]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert groupgraphs in listed and len(listed) > 1
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing {missing}"
    namespace = {}
    exec("from groupgraphs import *", namespace)
    assert set(groupgraphs.__all__) <= set(namespace)
