"""The parser of ``scripts/bench_record.py`` on real benchmark output.

The output is captured from ``perfbench/run.py``'s ``main`` in-process, on
the tiny inputs of each workload, as ``--workload all`` prints it.
"""
import contextlib
import functools
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))

import bench_record  # noqa: E402
import run  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def stdout():
    """What ``--workload all`` prints, one tiny workload after another.

    The benchmark imports regkit afresh for every pass; the modules the
    other tests hold are put back afterwards, so their classes stay the
    ones ``sys.modules`` hands out.
    """
    out = io.StringIO()
    held = {name: mod for name, mod in sys.modules.items()
            if name == "regkit" or name.startswith("regkit.")}
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "path", list(sys.path))
            mp.setattr(run, "WORKLOADS", {
                name: functools.partial(cls, scale="tiny")
                for name, cls in run.WORKLOADS.items()})
            with contextlib.redirect_stdout(out):
                for name in WORKLOADS:
                    assert run.main(["--workload", name, "--seed", "11",
                                     "--seconds", "0"]) == 0
    finally:
        for name in [name for name in sys.modules
                     if name == "regkit" or name.startswith("regkit.")]:
            del sys.modules[name]
        sys.modules.update(held)
    return out.getvalue()


def test_parse_keeps_each_workloads_results(stdout):
    parsed = bench_record.parse(stdout, WORKLOADS)
    assert list(parsed) == WORKLOADS
    blocks = stdout.split("environment ")[1:]
    for name, block in zip(WORKLOADS, blocks):
        lines = block.splitlines()
        result = json.loads(lines[-1])
        assert parsed[name] == {
            "environment": json.loads(lines[0]),
            "correct": True,
            "attempted": result["attempted"],
            "failed": 0,
            "metrics": result["metrics"],
            "answers": json.loads(lines[1].partition(" ")[2])["answers"]}
        assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]


def test_parse_refuses_a_failed_or_missing_workload(stdout):
    lines = stdout.splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("{"))
    failed = dict(json.loads(lines[last]), correct=False, failed=1)
    lines[last] = json.dumps(failed)
    with pytest.raises(ValueError, match=f"^{WORKLOADS[-1]}: 1 of "):
        bench_record.parse("\n".join(lines), WORKLOADS)
    head = stdout[:stdout.rindex("environment ")]
    with pytest.raises(ValueError, match=f"^no result for {WORKLOADS[-1]}$"):
        bench_record.parse(head, WORKLOADS)


def test_tree_names_the_commit_and_whether_it_is_dirty(tmp_path):
    """A fresh repository: no tree before the first commit, then the
    commit, clean; dirty once a tracked file changes, and not for an
    untracked file alone."""
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
             "-c", "commit.gpgsign=false", *args], cwd=tmp_path,
            capture_output=True, text=True, check=True).stdout.strip()

    assert bench_record.tree(tmp_path) is None
    git("init", "-q")
    assert bench_record.tree(tmp_path) is None
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "HEAD")
    assert bench_record.tree(tmp_path) == {"head": head, "dirty": False}
    (tmp_path / "new.txt").write_text("untracked\n")
    assert bench_record.tree(tmp_path) == {"head": head, "dirty": False}
    (tmp_path / "a.txt").write_text("two\n")
    assert bench_record.tree(tmp_path) == {"head": head, "dirty": True}


def test_bytecode_says_whether_the_run_writes_and_finds_a_cache(
        tmp_path, monkeypatch):
    """Cached only with a ``.pyc`` of this interpreter in regkit's
    ``__pycache__``; ``dont_write`` follows ``PYTHONDONTWRITEBYTECODE``."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_record.bytecode(tmp_path) == {"dont_write": False,
                                               "cached": False}
    cache = tmp_path / "src" / "regkit" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "kernels.cpython-00.pyc").write_bytes(b"")
    (tmp_path / "src" / "regkit" / "kernels.py").write_text("")
    assert not bench_record.bytecode(tmp_path)["cached"]
    tag = sys.implementation.cache_tag
    (cache / f"kernels.{tag}.pyc").write_bytes(b"")
    assert bench_record.bytecode(tmp_path)["cached"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_record.bytecode(tmp_path) == {"dont_write": True,
                                               "cached": True}
