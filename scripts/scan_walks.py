"""Time the exhaustive bipartite scans' prefix walk against Gosper's walk.

Run from anywhere, with the test dependencies installed:

    python3 scripts/scan_walks.py

``regcheck._prefix_masks`` walks the left masks of the floor size ka by
blocks of masks that share their high rows.  It replaced a walk that
stepped through every mask with Gosper's hack, kept in the tests as
``test_regcheck._gosper_masks``.  This script replays two sets of scans
with each walk:

* every exhaustive scan of the 15 suites at seeds 0-8 (default trials);
* the scans of seeded random graphs with sides 8-16, half of them with an
  empty block planted on random rows and columns, checked for eps- and
  delta-regularity at eps, delta in {1/4, 1/3, 1/2}; some certify and some
  refute, at every depth of the scan.

Each scan is timed as ``_scan`` runs it, up to its first witness, with
either walk; a time is the best of ``REPEATS`` runs, the two walks
alternating.  The script prints, per set and per bucket of C(|A|, ka)
(powers of two), the number of scans, each walk's total time and their
ratio.  Timings depend on the host; run on an idle one.

It exits 1 if, on any scan, the two walks yield different sequences of
(mask, sorted hits), each walked to its end.
"""
from __future__ import annotations

import random
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from regkit import regcheck, suites  # noqa: E402
from regkit.graphs import BipartiteGraph, VertexClass  # noqa: E402
from test_regcheck import _gosper_masks  # noqa: E402

REPEATS = 3
RANDOM_GRAPHS = 400
PARAMS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
WALKS = {"prefix": regcheck._prefix_masks, "Gosper": _gosper_masks}


def capture(run) -> list[tuple]:
    """The (g, thr, band) of every ``_scan`` that ``run()`` makes."""
    scans = []
    real = regcheck._scan

    def recording(g, thr, band):
        scans.append((g, thr, band))
        return real(g, thr, band)

    regcheck._scan = recording
    try:
        run()
    finally:
        regcheck._scan = real
    return scans


def suite_scans() -> list[tuple]:
    def run():
        for seed in range(9):
            for name in suites.registered_suites():
                suites.run_suite(suites.SuiteSpec(name, seed))
    return capture(run)


def random_graph(rng: random.Random) -> BipartiteGraph:
    na, nb = rng.randint(8, 16), rng.randint(8, 16)
    p = rng.choice((0.5, 0.75, 0.9, 0.97))
    rows = set(rng.sample(range(na), rng.randint(1, na // 2)))
    cols = set(rng.sample(range(nb), rng.randint(1, nb // 2)))
    plant = rng.random() < 0.5
    return BipartiteGraph.from_rows(
        VertexClass(0, na), VertexClass(1, nb),
        [sum(1 << b for b in range(nb)
             if rng.random() < p and not (plant and a in rows and b in cols))
         for a in range(na)])


def random_scans(seed: int = 0) -> list[tuple]:
    rng = random.Random(seed)
    params = regcheck.CheckParams(mode="exhaustive", max_exhaustive_side=16)

    def run():
        for _ in range(RANDOM_GRAPHS):
            g = random_graph(rng)
            regcheck.check_eps_regular(g, rng.choice(PARAMS), params)
            regcheck.check_delta_regular(g, rng.choice(PARAMS), params)
    return capture(run)


def timed_scan(scan: tuple, walk) -> float:
    regcheck._prefix_masks = walk
    start = time.perf_counter()
    regcheck._scan(*scan)
    return time.perf_counter() - start


def measure(scans: list[tuple]) -> tuple[dict, int]:
    """Per bucket: [scans, prefix seconds, Gosper seconds]; and the number
    of scans whose two walks yield different sequences."""
    table: dict = defaultdict(lambda: [0, 0.0, 0.0])
    mismatches = 0
    try:
        for g, thr, band in scans:
            ka, k0 = thr.least(g.left.size), thr.least(g.right.size)
            args = (g, ka, k0) + band.limits(ka * k0)
            mismatches += (list(WALKS["prefix"](*args))
                           != list(WALKS["Gosper"](*args)))
            best = [float("inf")] * 2
            for _ in range(REPEATS):
                for i, walk in enumerate(WALKS.values()):
                    best[i] = min(best[i], timed_scan((g, thr, band), walk))
            row = table[1 << (comb(g.left.size, ka) - 1).bit_length()]
            row[0] += 1
            row[1] += best[0]
            row[2] += best[1]
    finally:
        regcheck._prefix_masks = WALKS["prefix"]
    return table, mismatches


def report(name: str, table: dict) -> None:
    print(f"{name}: C(|A|, ka)   scans   prefix ms   Gosper ms   ratio")
    for top in sorted(table):
        count, prefix, gosper = table[top]
        low = top // 2 + 1 if top > 1 else 1
        print(f"{name}: {low:>5}-{top:<6} {count:7d} {prefix * 1e3:11.2f}"
              f" {gosper * 1e3:11.2f} {prefix / gosper:7.2f}")


def main() -> int:
    failed = 0
    for name, scans in (("suites", suite_scans()),
                        ("random", random_scans())):
        table, mismatches = measure(scans)
        report(name, table)
        if mismatches:
            print(f"{name}: the walks differ on {mismatches} of {len(scans)}"
                  " scans", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
