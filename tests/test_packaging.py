"""The distribution metadata names the package and takes its version from
``regkit.__version__``, so the two cannot disagree."""
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
