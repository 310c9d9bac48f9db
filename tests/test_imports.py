"""What importing regkit brings along, and what it defines.

Importing regkit afresh must not keep an earlier import alive: a benchmark
or a long-lived host that re-imports the package (drops it from
``sys.modules`` and imports it again) would otherwise grow by one copy of
every module dict, function and class per import.  And regkit runs on the
standard library alone, although the test extra installs numpy.  Every
public function, class and method is reached from the package or the
benchmark, apart from a pinned few, every helper of the tests from the
tests, and every script from a test or the CI workflow.
"""
import ast
import gc
import importlib
import os
import pathlib
import subprocess
import sys
import types
from collections import Counter


ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    src = ROOT / "src"
    run = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.stdout == "[0] ['regkit']\n"


# Run isolated (-I) in a fresh interpreter: import every regkit module and
# report whether each named module came along.  -I ignores
# PYTHONDONTWRITEBYTECODE, so -B keeps the probe from writing a bytecode
# cache into the source tree.
_IMPORT_PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import regkit
names = sorted(m.name for m in pkgutil.iter_modules(regkit.__path__))
for name in names:
    importlib.import_module("regkit." + name)
print(len(names), *(name in sys.modules for name in sys.argv[2:]))
"""


def _import_probe(*watched: str) -> str:
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _IMPORT_PROBE, str(ROOT / "src"),
         *watched], check=True, capture_output=True, text=True)
    return run.stdout


_MODULES = len(list((ROOT / "src" / "regkit").glob("[!_]*.py")))


def test_importing_regkit_loads_no_dataclasses():
    # Each frozen dataclass costs about a millisecond of generated code at
    # import, most of regkit's own import time, so regkit's value types
    # are NamedTuples and plain classes.
    assert _import_probe("dataclasses") == f"{_MODULES} False\n"


def test_importing_regkit_loads_no_hashlib():
    # ``hashlib`` brings OpenSSL's ``_hashlib``, once the largest single
    # cost of importing regkit; only ``suites._digest`` hashes, and it
    # imports ``hashlib`` when it runs.
    assert _import_probe("hashlib", "_hashlib") == f"{_MODULES} False False\n"


# Public names that no code of regkit or the benchmark uses outside their
# own definition, each kept for a reason.
UNREFERENCED = {
    "save_partition": "public file API, the writer twin of load_partition",
    "save_triad": "public file API, the writer twin of load_triad",
    "save_twopartition": "public file API, the writer twin of "
                         "load_twopartition",
    "check_fr_partition": "the paper's Frankl-Rodl partition check",
    "check_quasirandom_partition": "the paper's Gowers partition check",
    "refinement_union_extract": "the paper's refinement-union extraction; "
                                "the claim-3.2 suite calls its body with "
                                "the hosts it has already found",
}


def _public_definitions(tree):
    """Public module-level functions and classes, and their public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (sub.name for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_"))


def _used_names(tree):
    """The names the code reads, attributes and imports included, and its
    string constants (the benchmark's tracer names what it wraps as
    strings).  A ``def`` or ``class`` uses nothing by defining its name,
    and comments and prose inside strings use nothing.  The syntax tree,
    not the token stream, so that an f-string reads the same before and
    after Python 3.12."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_is_reached():
    package = sorted((ROOT / "src" / "regkit").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in (*package, *(ROOT / "perfbench").glob("*.py"))}
    used = {name for tree in trees.values() for name in _used_names(tree)}
    names = {name for path in package
             for name in _public_definitions(trees[path])}
    assert names - used == set(UNREFERENCED)


def _names_read(node):
    """The names and attributes ``node`` reads, and its parameter names, so
    that a fixture counts as read by the tests that ask for it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.arg):
            yield sub.arg


def test_every_test_helper_is_read():
    """Each module-level function and class of the tests that is not a
    test is read outside its own definition, in some test file, so the
    helpers of a retired oracle go with it.  An import is not a read."""
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "tests").glob("*.py"))]
    reads = Counter(name for tree in trees for name in _names_read(tree))
    unread = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("test_")
              and reads[node.name] == Counter(_names_read(node))[node.name]]
    assert unread == []


def test_every_script_is_run():
    """Each ``scripts/*.py`` is imported by a test, named as a file in a
    test (to be run), or named in the CI workflow, so a tool that nothing
    runs does not stay behind after the choice it measured is made."""
    used = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                used.add(node.name + ".py")
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                used.add(pathlib.PurePath(node.value).name)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    unrun = [path.name for path in sorted((ROOT / "scripts").glob("*.py"))
             if path.name not in used
             and f"scripts/{path.name}" not in workflow]
    assert unrun == []
