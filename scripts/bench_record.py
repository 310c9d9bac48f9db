"""Record the benchmark's end-to-end results as ``BENCH_<PR>.json``.

Run from anywhere, with the change's number:

    python3 scripts/bench_record.py 11

It runs ``python3 perfbench/run.py --workload all --seed 0`` in the
repository root and writes ``BENCH_<PR>.json`` there.  Per workload, the
file holds the run's environment line, ``correct``, ``attempted``,
``failed``, the end-to-end metrics from the workload's last JSON line and
the answer digests of its descriptor line.  Comparing two such files shows
a speed-up only together with unchanged answers.  The file also names the
tree it measured: ``"tree": {"head": <commit>, "dirty": <bool>}``, where
dirty means that tracked files differ from that commit, or null outside a
git checkout.  Beside it, ``"bytecode": {"dont_write": <bool>, "cached":
<bool>}`` says whether ``PYTHONDONTWRITEBYTECODE`` was set and whether
``src/regkit/__pycache__`` held a ``.pyc`` for this interpreter before the
run: importing regkit without a cache compiles it, which ``setup_s`` counts,
so only runs in the same bytecode state compare.

If any workload fails, or one of those in ``BENCHMARK.json`` is missing
from the output, it prints why, exits 1 and writes nothing.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", "0"]


def parse(stdout: str, workloads: list[str]) -> dict:
    """Per workload, what ``perfbench/run.py`` printed about it.

    Each workload prints an ``environment`` line, a ``descriptor`` line,
    maybe ``FAILED`` lines, metric lines that start with its name, and a
    JSON result as its last line.  Raises ``ValueError`` when a workload
    is missing, repeated or failed.
    """
    out: dict = {}
    block: dict = {}
    for line in stdout.splitlines():
        head, _, rest = line.partition(" ")
        if head == "environment":
            block = {"environment": json.loads(rest)}
        elif head == "descriptor":
            block["answers"] = json.loads(rest)["answers"]
        elif head in workloads and "name" not in block:
            block["name"] = head
        elif line.startswith("{"):
            result = json.loads(line)
            name = block.pop("name", None)
            if name is None or name in out:
                raise ValueError(f"result line without one workload: {line}")
            if not result["correct"] or result["failed"]:
                raise ValueError(f"{name}: {result['failed']} of "
                                 f"{result['attempted']} checks failed")
            out[name] = {"environment": block["environment"],
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": result["metrics"],
                         "answers": block["answers"]}
    missing = [name for name in workloads if name not in out]
    if missing:
        raise ValueError(f"no result for {', '.join(missing)}")
    return {name: out[name] for name in workloads}


def tree(root: Path) -> Optional[dict]:
    """The commit checked out at ``root`` and whether tracked files differ
    from it; None when ``root`` is not in a git checkout with a commit."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"head": head.strip(), "dirty": bool(status.strip())}


def bytecode(root: Path) -> dict:
    """Whether ``PYTHONDONTWRITEBYTECODE`` is set, and whether
    ``src/regkit/__pycache__`` under ``root`` holds a ``.pyc`` compiled by
    this interpreter."""
    tag = sys.implementation.cache_tag
    cache = root / "src" / "regkit" / "__pycache__"
    return {"dont_write": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "cached": any(cache.glob(f"*.{tag}.pyc"))}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: bench_record.py PR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    state = bytecode(ROOT)
    run = subprocess.run([sys.executable, *COMMAND], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    try:
        if run.returncode:
            raise ValueError(f"perfbench/run.py exited {run.returncode}")
        results = parse(run.stdout, workloads)
    except ValueError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{argv[0]}.json"
    record = {"command": " ".join(["python3", *COMMAND]), "tree": tree(ROOT),
              "bytecode": state, "workloads": results}
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
