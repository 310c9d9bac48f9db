"""Seeded input generation for the benchmark workloads.

Everything here is independent of regkit: instances are written directly in
regkit's canonical text formats (see ``regkit.fileio``), so a change to the
program cannot change the inputs it is measured on.  The program only ever
sees these texts, through ``fileio.loads_*``.

Each instance is a dict with a ``check`` naming the entry point, its
parameters as strings, the input texts, the instance ``sizes``, and
``expect``: the outcome the construction guarantees whatever the seed
("refute" for a planted empty block, "certify" for a 3-graph holding every
triangle of its triad, the edit outcome for a partition instance), or None.
"""
from __future__ import annotations

import hashlib
import random

# Suites: a pass runs all suites at one seed.  Suite cost varies up to
# 2.5-fold from seed to seed (claim-4.8 retries random candidates), and the
# median check sits where the latency distribution is steep, so every run
# also covers seven seeds of this fixed panel (the first seven that differ
# from its own).  That holds the one seed that changes from run to run to an
# eighth of the pooled figures, and gates the panel's committed report
# digests on every run.  Seed 3 is held out of the panel: it is the
# reference seed a change is checked on after development.
SUITE_PANEL = (0, 1, 2, 4, 5, 6, 7, 8)
SUITE_PANEL_SEEDS = 7


def _rng(workload: str, seed: int, group: str) -> random.Random:
    key = f"{workload}/{seed}/{group}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8],
                                        "big"))


def _bg_text(na: int, nb: int, edges) -> str:
    edges = sorted(edges)
    lines = [f"bg {na} {nb} {len(edges)}"]
    lines.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(lines) + "\n"


def _vp_text(labels) -> str:
    return (f"vp {len(labels)} {max(labels) + 1}\n"
            + " ".join(str(x) for x in labels) + "\n")


def _h3_text(sizes, triples) -> str:
    triples = sorted(triples)
    lines = ["h3 {} {} {} {}".format(*sizes, len(triples))]
    lines.extend(f"{a} {b} {c}" for a, b, c in triples)
    return "\n".join(lines) + "\n"


def _tr_text(sizes, ab, ac, bc) -> str:
    na, nb, nc = sizes
    return (f"tr {na} {nb} {nc}\n" + _bg_text(na, nb, ab)
            + _bg_text(na, nc, ac) + _bg_text(nb, nc, bc))


# ---------------------------------------------------------------------------
# bipartite


def _near_complete(rng: random.Random, na: int, nb: int, missing: float):
    return [(a, b) for a in range(na) for b in range(nb)
            if rng.random() >= missing]


def _planted(rng: random.Random, na: int, nb: int, rows, cols,
             density: float = 0.9):
    """Graph of the given density with no edges between left ``rows`` and
    right ``cols``."""
    rows, cols = set(rows), set(cols)
    return [(a, b) for a in range(na) for b in range(nb)
            if not (a in rows and b in cols) and rng.random() < density]


def bipartite(seed: int, scale: str = "full") -> list[dict]:
    """Instances for ``check_delta_regular``/``check_eps_regular`` and the
    edit-budgeted partition check: exhaustive, partition and auto-mode
    groups."""
    tiny = scale == "tiny"
    out: list[dict] = []

    # Exhaustive certification: near-complete graphs at sides 10-12 scan
    # every left mask.  At 1-3% of edges missing none has a witness, so the
    # work is the same for every seed.
    rng = _rng("bipartite", seed, "certify")
    for i in range(2 if tiny else 24):
        n = 8 if tiny else 10 + i % 3
        edges = _near_complete(rng, n, n, (0.01, 0.02, 0.03)[i // 2 % 3])
        check, param = (("delta", "1/3") if i % 2 == 0 else ("eps", "1/3"))
        out.append({"group": "certify", "check": check, "param": param,
                    "mode": "exhaustive", "sizes": [n, n],
                    "graph": _bg_text(n, n, edges), "expect": None})

    # Exhaustive refutation: a planted empty block in an otherwise complete
    # graph.  Left masks are scanned in ascending order, so a block on the
    # lowest left vertices is found at once; on the highest vertices, a fifth
    # to a third of the way in; and on the highest half of the vertices,
    # with the size floor at one half, past the middle of the scan.  With no
    # other missing edge the first witness, and so the work, is the same for
    # every seed; the seed only picks the block's right vertices.
    rng = _rng("bipartite", seed, "refute")
    for i in range(3 if tiny else 60):
        n = 8 if tiny else 10 + i % 3
        depth = ("early", "middle", "late")[i % 3]
        param = "1/2" if depth == "late" else "1/3"
        k = n // 2 if depth == "late" else n // 3 + 1
        rows = range(k) if depth == "early" else range(n - k, n)
        cols = rng.sample(range(n), k)
        out.append({"group": "refute-" + depth,
                    "check": ("delta", "eps")[i // 3 % 2], "param": param,
                    "mode": "exhaustive", "sizes": [n, n],
                    "graph": _bg_text(n, n, _planted(rng, n, n, rows, cols,
                                                     1.0)),
                    "expect": "refute"})

    # Partition with edits: a 2x2 cluster grid of complete cluster pairs.
    # One pair is replaced by two random edges, which the edit budget
    # deletes (RegularAfterEdits); or by a half-empty block too dense to
    # delete (NotCertified); or left complete (PerfectlyRegular).
    rng = _rng("bipartite", seed, "partition")
    for i in range(1 if tiny else 8):
        half = 4 if tiny else 8 + i % 3
        n = 2 * half
        labels = [0] * half + [1] * half
        kind = ("edits", "edits", "perfect", "not-certified")[i % 4]
        pair = (i % 2, i // 2 % 2)
        block = [(a, b) for a in range(n) for b in range(n)
                 if (labels[a], labels[b]) == pair]
        if kind == "edits":
            drop = set(block) - set(rng.sample(block, 2))
        elif kind == "not-certified":
            drop = {(a, b) for a, b in block if a % half >= half // 2}
        else:
            drop = set()
        edges = [(a, b) for a in range(n) for b in range(n)
                 if (a, b) not in drop]
        out.append({"group": "partition-" + kind,
                    "check": "partition_edits", "param": "1/4",
                    "mode": "auto", "sizes": [n, n],
                    "graph": _bg_text(n, n, edges),
                    "left": _vp_text(labels), "right": _vp_text(labels),
                    "expect": kind})

    # Auto mode beyond the exhaustive limit falls to the randomized
    # searches: greedy peeling for delta, sampling plus pushes for eps.
    # Near-complete graphs have no witness, so the search ends unknown after
    # all its trials; planted blocks are found in the first few trials.
    rng = _rng("bipartite", seed, "randomized")
    unknown = [("delta", n) for n in (24, 32, 40, 48, 24, 32)]
    unknown += [("eps", n) for n in (24, 32, 40)]
    planted = [(("delta", "eps")[i % 2], (24, 32, 40, 48)[i % 4])
               for i in range(15)]
    if tiny:
        unknown, planted = [("eps", 16)], [("delta", 16)]
    for (check, n), plant in ([(u, False) for u in unknown]
                              + [(p, True) for p in planted]):
        if plant:
            k = n // 3 + 1
            edges = _planted(rng, n, n, rng.sample(range(n), k),
                             rng.sample(range(n), k))
        else:
            edges = _near_complete(rng, n, n, 0.05)
        out.append({"group": "randomized", "check": check, "param": "1/3",
                    "mode": "auto", "sizes": [n, n],
                    "graph": _bg_text(n, n, edges), "expect": None})
    return out


# ---------------------------------------------------------------------------
# hypergraph


def _pairs(rng: random.Random, n1: int, n2: int, m: int):
    return rng.sample([(a, b) for a in range(n1) for b in range(n2)], m)


def _random_pairs(rng: random.Random, n1: int, n2: int, p: float):
    return [(a, b) for a in range(n1) for b in range(n2) if rng.random() < p]


def _triangles(n: int, ab, ac, bc):
    ab, ac, bc = set(ab), set(ac), set(bc)
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if (a, b) in ab and (a, c) in ac and (b, c) in bc]


def _subtriad_instance(rng: random.Random, m: int, kind: str):
    """A 4x4x4 triad with ``m`` edges and a 3-graph on its triangles.

    ``certify``: the 3-graph holds every triangle, so no subtriad deviates.
    Otherwise it misses exactly the triangles on a set S of AB edges that
    carries between a third and two thirds of them; the subtriad on S then
    has density 0, which violates both subtriad predicates (parameters up
    to 1/3).  S is the first AB edges in scan order (``early``), the last
    (``late``) or a random half (``middle``).
    """
    n = 4
    sizes = (n, n, n)
    counts = (m // 3 + (m % 3 > 0), m // 3 + (m % 3 > 1), m // 3)
    while True:
        ab = sorted(_pairs(rng, n, n, counts[0]))
        ac = _pairs(rng, n, n, counts[1])
        bc = _pairs(rng, n, n, counts[2])
        tri = _triangles(n, ab, ac, bc)
        if kind == "certify":
            return _h3_text(sizes, tri), _tr_text(sizes, ab, ac, bc)
        half = len(ab) // 2
        s = {"early": ab[:half], "late": ab[-half:],
             "middle": rng.sample(ab, half)}[kind]
        on_s = [t for t in tri if t[:2] in s]
        if tri and len(tri) <= 3 * len(on_s) < 2 * len(tri):
            kept = [t for t in tri if t[:2] not in s]
            return _h3_text(sizes, kept), _tr_text(sizes, ab, ac, bc)


def _two_partition_text(n: int) -> str:
    """Each class of a 3n frame split into two clusters, complete blocks."""
    labels = []
    for i in range(3):
        labels.extend([2 * i] * (n // 2) + [2 * i + 1] * (n - n // 2))
    clusters = [[v for v, x in enumerate(labels) if x == k] for k in range(6)]
    lines = _vp_text(labels).splitlines()
    for i in range(6):
        for j in range(i + 1, 6):
            lines.append(f"pair {i} {j}")
            lines.append(_bg_text(len(clusters[i]), len(clusters[j]), [
                (a, b) for a in range(len(clusters[i]))
                for b in range(len(clusters[j]))]).rstrip("\n"))
    return "\n".join(lines) + "\n"


def hypergraph(seed: int, scale: str = "full") -> list[dict]:
    """Instances for the subtriad, octahedron, counting-band and reduction
    checks."""
    tiny = scale == "tiny"
    out: list[dict] = []

    # Subtriad scans over 2^m states: half certify after the full scan,
    # half refute with the witness placed early, midway or late.
    rng = _rng("hypergraph", seed, "subtriad")
    certify_sizes = (16, 17, 16, 18, 16, 17, 16, 17, 16, 18, 16, 19)
    for i in range(2 if tiny else 24):
        kind = ("certify", "early", "certify", "middle", "certify",
                "late")[i % 6]
        if tiny:
            m = 10
        elif kind == "certify":
            m = certify_sizes[i // 2]
        else:
            m = 17 if kind == "late" else 16
        h, t = _subtriad_instance(rng, m, kind)
        check, param = (("hypothesis", "1/4") if i // 6 % 2 == 0
                        else ("fr", "1/3"))
        out.append({"group": "subtriad-" + kind, "check": check,
                    "param": param, "sizes": [m], "h": h, "triad": t,
                    "expect": "certify" if kind == "certify" else "refute"})

    # Octahedron sums, O(n^5) in the kernel.  For seeds 0-7 every sum lay
    # between 2e-4 and 0.3 of d^12 n^6, so alpha = 1 passes them and
    # alpha = 10^-6 fails them: the verdict mix does not move with the seed.
    rng = _rng("hypergraph", seed, "octahedron")
    # Sizes weigh n = 14 so that the 90th percentile of check latency falls
    # inside one group of similar checks, not on the edge between two.
    octahedron_sizes = (8, 10, 12, 14, 16, 14, 8, 10, 14, 12, 14, 16) * 2
    for i in range(2 if tiny else 24):
        n = 6 if tiny else octahedron_sizes[i]
        p = (0.5, 0.8, 1.0)[i % 3]
        sizes = (n, n, n)
        ab = _random_pairs(rng, n, n, p)
        ac = _random_pairs(rng, n, n, p)
        bc = _random_pairs(rng, n, n, p)
        density = (0.2, 0.5, 0.8)[i // 3 % 3]
        triples = [t for t in _triangles(n, ab, ac, bc)
                   if rng.random() < density]
        out.append({"group": "octahedron", "check": "quasirandom",
                    "param": ("1", "1/1000000")[i % 2], "sizes": [n],
                    "h": _h3_text(sizes, triples),
                    "triad": _tr_text(sizes, ab, ac, bc)})

    # Triangle counts against the product-density band: a band of +-0.7
    # that holds every count, or one too narrow to hold any but an exact
    # match.
    rng = _rng("hypergraph", seed, "triangles")
    # Most checks are these cheap ones, so the median check latency falls
    # well inside this group.
    for i in range(2 if tiny else 90):
        n = 12 if tiny else (32, 40, 48, 56, 64)[i % 5]
        p = (0.3, 0.5, 0.7, 0.9)[i % 4]
        sizes = (n, n, n)
        out.append({"group": "triangles", "check": "triangle_band",
                    "param": ("1/10", "1/1000000000")[i % 2], "sizes": [n],
                    "triad": _tr_text(sizes, _random_pairs(rng, n, n, p),
                                      _random_pairs(rng, n, n, p),
                                      _random_pairs(rng, n, n, p))})

    # The reduction pipeline on a 2x2x2-cluster frame of 4+4+4 vertices.
    rng = _rng("hypergraph", seed, "reduction")
    tp = _two_partition_text(4)
    for i in range(1 if tiny else 8):
        density = (1.0, 0.6)[i % 2]
        triples = [(a, b, c) for a in range(4) for b in range(4)
                   for c in range(4) if rng.random() < density]
        out.append({"group": "reduction", "check": "reduction",
                    "param": "1/16", "sizes": [12],
                    "h": _h3_text((4, 4, 4), triples), "tp": tp})
    return out
