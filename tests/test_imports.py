"""What importing regkit brings along.

Importing regkit afresh must not keep an earlier import alive: a benchmark
or a long-lived host that re-imports the package (drops it from
``sys.modules`` and imports it again) would otherwise grow by one copy of
every module dict, function and class per import.  And regkit runs on the
standard library alone, although the test extra installs numpy.
"""
import gc
import importlib
import os
import pathlib
import subprocess
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


# Run in a fresh interpreter: the top-level modules that importing the CLI
# and running every suite loads, beyond those loaded at startup (site hooks
# may preload third-party modules), that are not in the standard library.
_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
from regkit import cli, suites
with contextlib.redirect_stdout(io.StringIO()):
    codes = {cli.main(["verify", "--suite", suite, "--trials", "2"])
             for suite in suites.registered_suites()}
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(codes), sorted(loaded - set(sys.stdlib_module_names)))
"""


def test_regkit_needs_only_the_standard_library():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.stdout == "[0] ['regkit']\n"
