"""Importing regkit afresh must not keep an earlier import alive.

A benchmark or a long-lived host that re-imports the package (drops it from
``sys.modules`` and imports it again) would otherwise grow by one copy of
every module dict, function and class per import.
"""
import gc
import importlib
import sys
import types


def _regkit_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "regkit" or name.startswith("regkit.")}


def test_reimport_leaves_no_stale_module_alive():
    original = _regkit_modules()
    try:
        for _ in range(3):
            for name in _regkit_modules():
                del sys.modules[name]
            importlib.import_module("regkit.cli")  # imports every module
        gc.collect()
        live = {id(mod.__dict__)
                for mod in (*original.values(), *_regkit_modules().values())}
        stale = [f.__qualname__ for f in gc.get_objects()
                 if isinstance(f, types.FunctionType)
                 and str(f.__globals__.get("__name__")).startswith("regkit")
                 and id(f.__globals__) not in live]
        assert stale == []
    finally:
        for name in _regkit_modules():
            del sys.modules[name]
        sys.modules.update(original)
