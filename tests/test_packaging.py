"""The distribution metadata names the package and takes its version from
``regkit.__version__``, so the two cannot disagree, and its ``regkit``
script is the CLI's entry point."""
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_name_and_version_source():
    pyproject = tomllib.loads(PYPROJECT.read_text())
    project = pyproject["project"]
    assert project["name"] == "regkit"
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "regkit.__version__"}


def test_regkit_script_is_the_cli_entry_point():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts["regkit"] == "regkit.cli:main"
    module, _, attr = scripts["regkit"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
