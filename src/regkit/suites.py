"""Seeded property suites and machine-readable reports.

Each suite generates random instances and checks one verified property.
Determinism: per-trial seeds are derived from the master seed by a
splitmix64 step over ``(seed xor crc32(suite_id) << 32) + trial``, so a
fixed (suite, seed, trials) always reproduces the same instances
and byte-identical canonical reports.  Wall time is tracked on the
report object but deliberately excluded from the canonical JSON.

Random graphs are drawn straight into row masks: ``_rg`` and
``_random_threegraph`` set one bit per ``rng.random()`` draw that passes,
pair by pair (triple by triple) in lexicographic order, with the draws,
in their order, of the edge lists and triple sets they replaced, so the
instances are unchanged.  ``run_suite`` canonicalizes each record once
(see ``_canon``), so ``Report.to_json`` dumps the report as it stands.
"""
from __future__ import annotations

import json
import random
import time
import zlib
from fractions import Fraction
from typing import Callable

from . import constructions as cn
from . import fileio, hyperreg, partitions
from .errors import ParameterOutOfContract, UnknownSuite
from .graphs import (BipartiteGraph, ThreeGraph, Triad, Value, VertexClass,
                     density, edge_disjoint_union, induced_subgraph)
from .partitions import (ThreePartiteFrame, VertexPartition,
                         approx_refines, complete_two_partition,
                         restrict_two_partition)
from .regcheck import (CERTIFIED, NOT_CERTIFIED, CheckParams, Threshold,
                       check_delta_partition_with_edits,
                       check_delta_regular, check_eps_regular,
                       degree_profile)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(suite_id: str, seed: int, trial: int) -> int:
    """The documented splittable per-trial seed derivation.

    The master seed and the suite id are mixed through one splitmix64
    step before the trial index is added, so (seed, trial) pairs like
    (1, 0) and (0, 1) land in unrelated streams.
    """
    base = _splitmix64((seed ^ (zlib.crc32(suite_id.encode()) << 32))
                       & _MASK64)
    return _splitmix64((base + trial) & _MASK64)


class Report(Value):
    """A suite's outcome.  ``wall_time`` is set after the run; it enters
    equality but not the canonical JSON.  Unhashable, as it changes."""

    __slots__ = _fields = ("suite", "seed", "trials", "records", "passed",
                           "caveats", "wall_time")
    __hash__ = None

    def __init__(self, suite: str, seed: int, trials: int, records: list,
                 passed: bool, caveats: list, wall_time: float = 0.0):
        self.suite = suite
        self.seed = seed
        self.trials = trials
        self.records = records
        self.passed = passed
        self.caveats = caveats
        self.wall_time = wall_time

    def canonical_dict(self) -> dict:
        # Wall time is intentionally left out: reports must be
        # byte-identical across runs for fixed inputs.
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "records": self.records,
            "passed": self.passed,
            "caveats": self.caveats,
        }

    def to_json(self) -> str:
        # The records are canonical already (run_suite applies _canon).
        return _dumps(self.canonical_dict())


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _canon(obj):
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def canonical_json(obj) -> str:
    return _dumps(_canon(obj))


def _digest(text: str) -> str:
    # Imported on use: at module level ``hashlib`` (with OpenSSL) was the
    # largest single cost of importing regkit, paid by every command.
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _random_rows(rng: random.Random, count: int, width: int,
                 p: Callable[[], float]) -> list[int]:
    """``count`` masks of ``width`` bits: a bit is set when
    ``rng.random() < p()``, with ``p()`` called after that draw, row by
    row and bit by bit upward."""
    random = rng.random
    bits = [1 << b for b in range(width)]
    rows = []
    for _ in range(count):
        row = 0
        for bit in bits:
            if random() < p():
                row |= bit
        rows.append(row)
    return rows


def _rg(rng: random.Random, left: VertexClass, right: VertexClass,
        p: float) -> BipartiteGraph:
    """Complete when p >= 1, with no draw; else edge (a, b) is drawn in
    lexicographic order, kept when ``rng.random() < p``."""
    if p >= 1.0:
        return BipartiteGraph.complete(left, right)
    return BipartiteGraph.from_rows(
        left, right, _random_rows(rng, left.size, right.size, lambda: p))


def _random_threegraph(rng: random.Random,
                       classes: tuple[VertexClass, VertexClass, VertexClass],
                       p: Callable[[], float]) -> ThreeGraph:
    """Triple (a, b, c) is drawn in lexicographic order, a hyperedge when
    ``rng.random() < p()``."""
    n1, n2, n3 = (c.size for c in classes)
    return ThreeGraph.from_rows(classes,
                                _random_rows(rng, n1 * n2, n3, p))


_EXH = CheckParams(mode="exhaustive")


# ---------------------------------------------------------------------------
# Suite bodies.  Each returns (record_dict, ok, caveats).


def _suite_claim_3_1(rng: random.Random):
    """Union of edge-disjoint certified pairs stays certified."""
    delta = Fraction(1, 4)
    na = rng.randint(6, 10)
    nb = rng.randint(6, 10)
    left, right = VertexClass(0, na), VertexClass(1, nb)
    members: list[BipartiteGraph] = []

    def certified(g: BipartiteGraph) -> bool:
        return check_delta_regular(g, delta, _EXH).status == CERTIFIED

    kind = rng.choice(["complete", "minus-matching", "dense", "empty-pair"])
    if kind == "complete":
        members.append(BipartiteGraph.complete(left, right))
    elif kind == "minus-matching":
        k = min(na, nb)
        cols = rng.sample(range(nb), k)
        removed = {(a, cols[a]) for a in range(k)}
        g = BipartiteGraph(left, right,
                           [(a, b) for a in range(na) for b in range(nb)
                            if (a, b) not in removed])
        members.append(g if certified(g)
                       else BipartiteGraph.complete(left, right))
    elif kind == "dense":
        g = None
        for _ in range(40):
            cand = _rg(rng, left, right, rng.choice([0.85, 0.9, 0.95]))
            if certified(cand):
                g = cand
                break
        members.append(g or BipartiteGraph.complete(left, right))
    members.append(BipartiteGraph.empty(left, right))
    rng.shuffle(members)

    all_certified = all(certified(g) for g in members)
    union = edge_disjoint_union(members)
    union_certified = certified(union)
    ok = (not all_certified) or union_certified
    rec = {
        "sides": [na, nb],
        "members": len(members),
        "digest": _digest("|".join(fileio.dumps_graph(g) for g in members)),
        "members_certified": all_certified,
        "union_certified": union_certified,
    }
    return rec, ok and all_certified, []


def _random_equitable(rng: random.Random, n: int, k: int) -> VertexPartition:
    verts = list(range(n))
    rng.shuffle(verts)
    size = n // k
    blocks = tuple(frozenset(verts[i * size:(i + 1) * size])
                   for i in range(k))
    return VertexPartition(VertexClass(0, n), blocks)


def _noisy_refinement(rng: random.Random, p: VertexPartition,
                      pieces: int, moves: int) -> VertexPartition:
    """Refine each block into pieces, then move a few vertices across."""
    labels = [0] * p.ground.size
    nxt = 0
    for block in p.blocks:
        block = sorted(block)
        rng.shuffle(block)
        cut = max(1, len(block) // pieces)
        for i, v in enumerate(block):
            labels[v] = nxt + min(i // cut, pieces - 1)
        nxt += pieces
    for _ in range(moves):
        v = rng.randrange(p.ground.size)
        labels[v] = rng.randrange(nxt)
    return VertexPartition.from_labels(p.ground, labels)


def _suite_claim_3_2(rng: random.Random):
    """refinement_union_extract meets |P symdiff Q| <= 3 delta |P|."""
    delta = rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
    for _ in range(60):
        k = rng.randint(2, 5)
        n = k * rng.randint(4, 8)
        p = _random_equitable(rng, n, k)
        q = _noisy_refinement(rng, p, rng.randint(1, 3), rng.randint(0, 2))
        hosts = partitions._refinement_hosts(q, p, delta)
        if hosts is not None:  # q approx-refines p
            break
    else:
        q = p  # p refines itself; always admissible
        hosts = partitions._refinement_hosts(q, p, delta)
    pb, union = partitions._union_extract(q, p, delta, hosts)
    sym = len(pb ^ union)
    ok = Fraction(sym) <= 3 * delta * len(pb)
    rec = {
        "n": p.ground.size,
        "delta": delta,
        "digest": _digest(fileio.dumps_partition(q)
                          + fileio.dumps_partition(p)),
        "symdiff": sym,
        "block": len(pb),
    }
    return rec, ok, []


def _suite_claim_3_5(rng: random.Random):
    """Q approx-refining an equitable P at 1/2 has |Q| >= |P| / 4."""
    half = Fraction(1, 2)
    for _ in range(80):
        k = rng.randint(2, 16)
        n = k * rng.randint(2, 5)
        p = _random_equitable(rng, n, k)
        style = rng.choice(["refine", "coarsen", "noise"])
        if style == "refine":
            q = _noisy_refinement(rng, p, rng.randint(1, 2),
                                  rng.randint(0, 3))
        elif style == "coarsen":
            merge = rng.randint(1, max(1, k // 2))
            labels = p.labels()
            mapping = {i: min(i, k - merge - 1) if i >= k - merge else i
                       for i in range(k)}
            q = VertexPartition.from_labels(
                p.ground, [max(0, mapping[lab]) for lab in labels])
        else:
            q = _noisy_refinement(rng, p, 1, rng.randint(1, 4))
        if approx_refines(q, p, half):
            break
    else:
        q = p
    ok = 4 * q.order >= p.order
    rec = {
        "n": p.ground.size,
        "p_order": p.order,
        "q_order": q.order,
        "digest": _digest(fileio.dumps_partition(q)
                          + fileio.dumps_partition(p)),
    }
    return rec, ok, []


def _suite_claim_3_3(rng: random.Random):
    """A good 2-partition plus a coarsening of its axis-3 family yields
    some member on which Z1 u Z2 is a 3*delta-regular partition."""
    delta = rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)])
    sizes = rng.choice([(2, 2, 2), (2, 4, 2), (4, 4, 2)])
    classes = tuple(VertexClass(i, s) for i, s in enumerate(sizes))
    frame = ThreePartiteFrame(classes)
    labels = []
    nxt = 0
    for i, s in enumerate(sizes):
        split = rng.choice([1, 2]) if s > 2 else 1
        for v in range(s):
            labels.append(nxt + (v % split))
        nxt += split
    z = VertexPartition.from_labels(frame.combined_class(), labels)
    tp = complete_two_partition(z)
    good = hyperreg.is_delta_good(tp, delta, _EXH)
    zs, es = partitions.sub_partitions(tp, frame)
    e3 = es[2].blocks
    # Coarsen E3 into random groups; exact refinement implies E3 <_d G.
    groups = max(1, len(e3) - rng.randint(0, len(e3) - 1))
    relabel = [rng.randrange(groups) for _ in range(len(e3))]
    used = sorted(set(relabel))
    found = False
    n2 = classes[1].size
    for group in used:
        g = BipartiteGraph(classes[0], classes[1], [
            divmod(p, n2) for m, lab in zip(e3, relabel) if lab == group
            for p in m])
        res = check_delta_partition_with_edits(g, zs[0], zs[1], 3 * delta,
                                               _EXH)
        if res.status != NOT_CERTIFIED:
            found = True
            break
    ok = good.status == CERTIFIED and found
    rec = {
        "sizes": list(sizes),
        "delta": delta,
        "groups": len(used),
        "digest": _digest(fileio.dumps_twopartition(tp)),
        "good": good.status == CERTIFIED,
        "found_member": found,
    }
    return rec, ok, []


def _suite_claim_3_4(rng: random.Random):
    """Restricting a certified regular 3-partition to an alpha-fraction of
    the edges passes the delta/alpha check."""
    delta = Fraction(1, 2)
    n = rng.choice([2, 3])
    classes = tuple(VertexClass(i, 2 * n) for i in range(3))
    frame = ThreePartiteFrame(classes)
    # V_i' = low half of each class; Z splits each class accordingly.
    labels = []
    for i in range(3):
        labels.extend([2 * i] * n + [2 * i + 1] * n)
    z = VertexPartition.from_labels(frame.combined_class(), labels)
    tp = complete_two_partition(z)
    style = rng.choice(["complete", "random"])
    if style == "complete":
        h = ThreeGraph.complete(classes)
    else:
        h = _random_threegraph(rng, classes, lambda: 0.5)
    base = hyperreg.check_delta_regular_3partition(h, tp, delta, _EXH)
    sub = [frame.to_combined(i, v) for i in range(3) for v in range(n)]
    # The triples inside the low half of every class: the rows of the
    # pairs (a, b) with a, b < n, cut to their low n bits.
    low = (1 << n) - 1
    sub_rows = [h.graph.rows[2 * n * a + b] & low
                for a in range(n) for b in range(n)]
    sub_count = sum(map(int.bit_count, sub_rows))
    if not sub_count:
        return {"skipped": "no edges"}, True, []
    alpha = Fraction(sub_count, h.edge_count)
    h_sub = ThreeGraph.from_rows(tuple(VertexClass(i, n) for i in range(3)),
                                 sub_rows)
    tp_sub = restrict_two_partition(tp, sub)
    restricted = hyperreg.check_delta_regular_3partition(
        h_sub, tp_sub, min(Fraction(1), delta / alpha), _EXH)
    ok = (not base.passed) or restricted.passed
    rec = {
        "n": n,
        "style": style,
        "alpha": alpha,
        "digest": _digest(fileio.dumps_threegraph(h)),
        "base_passed": base.passed,
        "restricted_passed": restricted.passed,
    }
    return rec, ok, []


def _suite_eq_red_d(rng: random.Random):
    """t(E, AxC, BxC) = |E| |C| and aux-graph density equals triad density."""
    na = rng.randint(2, 6)
    nb = rng.randint(2, 6)
    nc = rng.randint(2, 6)
    classes = (VertexClass(0, na), VertexClass(1, nb), VertexClass(2, nc))
    h = _random_threegraph(rng, classes,
                           lambda: rng.choice((0.2, 0.5, 0.8)))
    e = _rg(rng, classes[0], classes[1], 0.6)
    if not e.edge_count:
        e = BipartiteGraph.from_rows(classes[0], classes[1],
                                     [1] + [0] * (na - 1))
    c_sub = sorted(rng.sample(range(nc), rng.randint(1, nc)))
    t_ok, d_ok = hyperreg._reduction_identity(
        h, e, tuple(range(na)), tuple(range(nb)), tuple(c_sub))
    rec = {
        "sizes": [na, nb, nc],
        "E": e.edge_count,
        "C": len(c_sub),
        "digest": _digest(fileio.dumps_threegraph(h)),
        "t_identity": t_ok,
        "d_identity": d_ok,
    }
    return rec, t_ok and d_ok, []


def _random_equal_triad(rng: random.Random, n: int
                        ) -> tuple[ThreeGraph, Triad]:
    classes = tuple(VertexClass(i, n) for i in range(3))
    h = _random_threegraph(rng, classes,
                           lambda: rng.choice((0.2, 0.5, 0.8)))
    p = rng.choice([0.5, 0.8, 1.0])
    t = Triad(_rg(rng, classes[0], classes[1], p),
              _rg(rng, classes[0], classes[2], p),
              _rg(rng, classes[1], classes[2], p))
    return h, t


def _scaled_sum_f(h: ThreeGraph, t: Triad) -> int:
    n, tau, ecount, hm, tm = hyperreg._scaled_f(h, t)
    hi, lo = tau - ecount, -ecount
    total = 0
    for xy in range(n * n):
        total += hm[xy].bit_count() * hi
        total += (tm[xy] & ~hm[xy]).bit_count() * lo
    return total


def _suite_oct_equiv(rng: random.Random):
    """Naive and fast octahedron sums agree exactly; sum >= 0; sum f = 0."""
    n = rng.choice([2, 3, 3, 4, 4, 5, 5, 6])
    h, t = _random_equal_triad(rng, n)
    naive = hyperreg.octahedron_sum_naive(h, t)
    fast = hyperreg.octahedron_sum_fast(h, t)
    sum_f = _scaled_sum_f(h, t)
    ok = naive == fast and fast >= 0 and sum_f == 0
    rec = {
        "n": n,
        "digest": _digest(fileio.dumps_threegraph(h) + fileio.dumps_triad(t)),
        "equal": naive == fast,
        "nonnegative": fast >= 0,
        "sum_f_zero": sum_f == 0,
        "value": fast,
    }
    return rec, ok, []


def _suite_def_4_3_nonneg(rng: random.Random):
    """Octahedron sum is nonnegative, also off the equal-density domain."""
    n = rng.choice([2, 3, 4, 5, 6, 8])
    classes = tuple(VertexClass(i, n) for i in range(3))
    h = _random_threegraph(rng, classes, rng.random)
    t = Triad(_rg(rng, classes[0], classes[1], rng.random()),
              _rg(rng, classes[0], classes[2], rng.random()),
              _rg(rng, classes[1], classes[2], rng.random()))
    report = hyperreg.check_quasirandom_triad(h, t, Fraction(1, 2))
    sum_f = _scaled_sum_f(h, t)
    ok = report.octahedron_sum >= 0 and sum_f == 0
    rec = {
        "n": n,
        "digest": _digest(fileio.dumps_threegraph(h) + fileio.dumps_triad(t)),
        "nonnegative": report.octahedron_sum >= 0,
        "sum_f_zero": sum_f == 0,
        "unequal_flagged": report.unequal_densities,
    }
    return rec, ok, []


def _claim_4_8_instance(rng: random.Random):
    """A tiny instance whose subtriad hypothesis certifies exhaustively."""
    layout = rng.choice(["single", "split"])
    if layout == "single":
        # Sides of 2 keep every partition triad inside the exhaustive
        # subtriad budget.
        n = 2
        classes = tuple(VertexClass(i, n) for i in range(3))
        frame = ThreePartiteFrame(classes)
        z = frame.frame_partition()
        t_count = 3
    else:
        n = 4
        classes = tuple(VertexClass(i, n) for i in range(3))
        frame = ThreePartiteFrame(classes)
        labels = []
        for i in range(3):
            labels.extend([2 * i, 2 * i, 2 * i + 1, 2 * i + 1])
        z = VertexPartition.from_labels(frame.combined_class(), labels)
        t_count = 6
    tp = complete_two_partition(z)
    delta = rng.choice([Fraction(1, 16), Fraction(1, 64)])
    eps2 = delta ** 2 / 88
    style = rng.choice(["complete", "empty", "random", "random"])
    if style == "complete":
        h = ThreeGraph.complete(classes)
    elif style == "empty":
        h = ThreeGraph(classes, frozenset())
    else:
        h = None
        for _ in range(30):
            cand = _random_threegraph(rng, classes,
                                      lambda: rng.choice((0.85, 0.95)))
            if hyperreg.check_subtriad_hypothesis_holds(cand, tp, delta,
                                                        _EXH):
                h = cand
                break
        if h is None:
            h = ThreeGraph.complete(classes)
    return h, tp, delta, 1, t_count, eps2


def _suite_claim_4_8(rng: random.Random):
    """Hypothesis-verified instances pass the full reduction check."""
    h, tp, delta, ell, t_count, eps2 = _claim_4_8_instance(rng)
    report = hyperreg.reduction_check(h, tp, delta, ell, t_count, eps2,
                                      _EXH)
    ok = report.passed
    rec = {
        "delta": delta,
        "order": t_count,
        "digest": _digest(fileio.dumps_threegraph(h)
                          + fileio.dumps_twopartition(tp)),
        "hypothesis": report.hypothesis.holds,
        "identities": all(i.t_equals_e_times_c and i.densities_equal
                          for i in report.identities),
        "passed": report.passed,
    }
    return rec, ok, list(report.caveats)


def _suite_schacht(rng: random.Random):
    """Quasirandomness-to-regularity implication, existential in C.

    The constant C is only asserted to exist, so the checkable content at
    desk scale is: whenever the triad is not eps-regular, the hypothesis
    (eps^C-quasirandom and d^C-regular sides) must fail for some C up to
    a cap.  A counterexample robust to the whole ladder would refute the
    implication.
    """
    c_max = 8
    eps = rng.choice([Fraction(1, 2), Fraction(1, 3)])
    n = rng.choice([2, 2, 3])
    classes = tuple(VertexClass(i, n) for i in range(3))
    h = _random_threegraph(rng, classes,
                           lambda: rng.choice((0.0, 0.5, 1.0)))
    p = rng.choice([0.6, 1.0])
    for _ in range(20):
        t = Triad(_rg(rng, classes[0], classes[1], p),
                  _rg(rng, classes[0], classes[2], p),
                  _rg(rng, classes[1], classes[2], p))
        if (t.ab.edge_count + t.ac.edge_count + t.bc.edge_count
                <= hyperreg.SUBTRIAD_EDGE_BUDGET):
            break
    else:
        t = Triad(BipartiteGraph.empty(classes[0], classes[1]),
                  BipartiteGraph.empty(classes[0], classes[2]),
                  BipartiteGraph.empty(classes[1], classes[2]))
    concl = hyperreg.check_fr_triad(h, t, eps, _EXH)
    if concl.status == CERTIFIED:
        ok = True
        refuting_c = None
    else:
        refuting_c = next(
            (C for C in range(1, c_max + 1)
             if not hyperreg.schacht_predicate(t, h, eps, C, _EXH)),
            None)
        ok = refuting_c is not None
    rec = {
        "n": n,
        "eps": eps,
        "digest": _digest(fileio.dumps_threegraph(h) + fileio.dumps_triad(t)),
        "conclusion": concl.status,
        "refuting_C": refuting_c,
    }
    return rec, ok, []


_EPS_LADDER = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(1)]


def _certify_ladder(g: BipartiteGraph) -> Fraction:
    """Smallest ladder eps for which g certifies eps-regular."""
    for eps in _EPS_LADDER:
        if check_eps_regular(g, eps, _EXH).status == CERTIFIED:
            return eps
    return Fraction(1)


def _suite_lemma_a1(rng: random.Random):
    """Slicing: alpha-large subsets of a certified eps-regular pair are
    2*eps/alpha-regular with density within eps."""
    na = rng.randint(6, 10)
    nb = rng.randint(6, 10)
    g = _rg(rng, VertexClass(0, na), VertexClass(1, nb),
            rng.choice([0.3, 0.5, 0.7]))
    eps = _certify_ladder(g)
    ka = rng.randint(Threshold(eps).least(na), na)
    kb = rng.randint(Threshold(eps).least(nb), nb)
    alpha = min(Fraction(ka, na), Fraction(kb, nb))
    a_sub = sorted(rng.sample(range(na), ka))
    b_sub = sorted(rng.sample(range(nb), kb))
    sub = induced_subgraph(g, a_sub, b_sub)
    eps_ind = min(Fraction(1), 2 * eps / alpha)
    verdict = check_eps_regular(sub, eps_ind, _EXH)
    dens_ok = abs(density(sub) - density(g)) <= eps
    ok = verdict.status == CERTIFIED and dens_ok
    rec = {
        "sides": [na, nb],
        "eps": eps,
        "alpha": alpha,
        "digest": _digest(fileio.dumps_graph(g)),
        "induced_certified": verdict.status == CERTIFIED,
        "density_within_eps": dens_ok,
    }
    return rec, ok, []


def _suite_claim_a2(rng: random.Random):
    """Degree profile: at most 2 eps |X| exceptional vertices against any
    eps-large Y', for certified eps-regular pairs."""
    na = rng.randint(6, 10)
    nb = rng.randint(6, 10)
    g = _rg(rng, VertexClass(0, na), VertexClass(1, nb),
            rng.choice([0.3, 0.5, 0.7]))
    eps = _certify_ladder(g)
    ky = rng.randint(Threshold(eps).least(nb), nb)
    y_sub = sorted(rng.sample(range(nb), ky))
    count, exceptional = degree_profile(g, y_sub, eps)
    ok = Fraction(count) <= 2 * eps * na
    rec = {
        "sides": [na, nb],
        "eps": eps,
        "digest": _digest(fileio.dumps_graph(g)),
        "exceptional": count,
        "bound": frac_str(2 * eps * na),
    }
    return rec, ok, []


def _suite_lemma_a3(rng: random.Random):
    """Triangle counting band, exact when the two C-sides are complete,
    within 7 eps otherwise (eps the certified level of both C-sides)."""
    style = rng.choice(["complete-sides", "random"])
    na = rng.randint(3, 6)
    nb = rng.randint(3, 6)
    nc = rng.randint(3, 12)
    a, b, c = VertexClass(0, na), VertexClass(1, nb), VertexClass(2, nc)
    ab = _rg(rng, a, b, rng.choice([0.3, 0.5, 0.8]))
    if style == "complete-sides":
        t = Triad(ab, BipartiteGraph.complete(a, c),
                  BipartiteGraph.complete(b, c))
        band = hyperreg.triangle_count_bound(t, Fraction(0))
        exact_ok = band.triangle_count == density(t.ab) * na * nb * nc
        ok = band.in_band and exact_ok
    else:
        ac = _rg(rng, a, c, rng.choice([0.5, 0.7]))
        bc = _rg(rng, b, c, rng.choice([0.5, 0.7]))
        t = Triad(ab, ac, bc)
        eps = max(_certify_ladder(ac), _certify_ladder(bc))
        band = hyperreg.triangle_count_bound(t, eps)
        ok = band.in_band
    rec = {
        "style": style,
        "sizes": [na, nb, nc],
        "digest": _digest(fileio.dumps_triad(t)),
        "t": band.triangle_count,
        "lower": band.lower,
        "upper": band.upper,
        "in_band": band.in_band,
    }
    return rec, ok, []


def _suite_paste_density(rng: random.Random):
    """Six-cycle pasting: additive edge counts and exact densities."""
    style = rng.choice(["complete", "half", "random"])
    # Exactly half of n^3 triples needs n^3 even.
    n = rng.choice([2, 4]) if style == "half" else rng.choice([2, 3, 4])
    parts = []
    for frame in cn.part_frames(n):
        if style == "complete":
            parts.append(ThreeGraph.complete(frame))
        elif style == "half":
            allt = [(x, y, z) for x in range(n) for y in range(n)
                    for z in range(n)]
            parts.append(ThreeGraph(
                frame, frozenset(rng.sample(allt, n * n * n // 2))))
        else:
            k = rng.randrange(n * n * n + 1)
            allt = [(x, y, z) for x in range(n) for y in range(n)
                    for z in range(n)]
            parts.append(ThreeGraph(frame, frozenset(rng.sample(allt, k))))
    h = cn.six_cycle_paste(parts)
    additive = h.edge_count == sum(p.edge_count for p in parts)
    if style == "complete":
        dens_ok = h.density == Fraction(6, 8)
    elif style == "half":
        dens_ok = h.density == Fraction(3, 8)
    else:
        expect = Fraction(sum(p.edge_count for p in parts), 8 * n ** 3)
        dens_ok = h.density == expect
    ok = additive and dens_ok
    rec = {
        "n": n,
        "style": style,
        "digest": _digest(fileio.dumps_threegraph(h)),
        "additive": additive,
        "density": h.density,
    }
    return rec, ok, []


def _suite_schedule(rng: random.Random):
    """Schedule arithmetic: pinned values and symbolic inequalities."""
    checks = {
        "e(3)=8192": cn.func_e(3).as_int() == 8192,
        "t(1)=2^250": cn.func_t(1).as_int() == 1 << 250,
        "w(1)=1": cn.func_w(1).as_int() == 1,
        "w(2)=2^239": cn.func_w(2).as_int() == 1 << 239,
    }
    prev = cn.func_t(1)
    for i in range(2, 5):
        ti = cn.func_t(i)
        checks[f"t({i})>=4t({i - 1})"] = ti.cmp(prev.mul_pow2(2)) >= 0
        checks[f"t({i}) power of 2"] = ti.is_power_of_two()
        prev = ti
    for i in range(1, 5):
        fs = cn.func_fstar(lambda j: j, i)
        checks[f"f*({i})>={i}"] = fs.cmp(cn.BigCount.of(i)) >= 0
        checks[f"f*({i}) power of 2"] = fs.is_power_of_two()
    for i in (2, 3):
        checks[f"w({i})>=wow({i})"] = cn.func_w(i).cmp(cn.func_wow(i)) >= 0
    ok = all(checks.values())
    return {"checks": checks}, ok, []


_SUITES: dict[str, tuple[Callable, int]] = {
    "claim-3.1": (_suite_claim_3_1, 100),
    "claim-3.2": (_suite_claim_3_2, 100),
    "claim-3.3": (_suite_claim_3_3, 30),
    "claim-3.4": (_suite_claim_3_4, 20),
    "claim-3.5": (_suite_claim_3_5, 100),
    "lemma-a1": (_suite_lemma_a1, 50),
    "claim-a2": (_suite_claim_a2, 50),
    "lemma-a3": (_suite_lemma_a3, 50),
    "eq-red-d": (_suite_eq_red_d, 100),
    "oct-equiv": (_suite_oct_equiv, 50),
    "def-4.3-nonneg": (_suite_def_4_3_nonneg, 50),
    "claim-4.8": (_suite_claim_4_8, 25),
    "schacht": (_suite_schacht, 40),
    "paste-density": (_suite_paste_density, 20),
    "schedule": (_suite_schedule, 1),
}


def registered_suites() -> list[str]:
    return sorted(_SUITES)


def run_suite(suite: str, seed: int = 0, trials: int = 0) -> Report:
    """Run ``trials`` trials of ``suite`` from master ``seed``; 0 trials
    means the suite's default count, below 0 raises."""
    if suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; known: "
                           + ", ".join(registered_suites()))
    if trials < 0:
        raise ParameterOutOfContract(
            f"suite {suite!r}: trials is {trials}, below 0 (0 "
            "means the suite's default)")
    body, default_trials = _SUITES[suite]
    trials = trials or default_trials
    start = time.monotonic()
    records = []
    caveats: list[str] = []
    passed = True
    for t in range(trials):
        rng = random.Random(trial_seed(suite, seed, t))
        rec, ok, trial_caveats = body(rng)
        rec = dict(rec)
        rec["trial"] = t
        rec["outcome"] = "pass" if ok else "fail"
        records.append(_canon(rec))
        passed = passed and ok
        for cv in trial_caveats:
            caveats.append(f"trial {t}: {cv}")
    report = Report(suite, seed, trials, records, passed, caveats)
    report.wall_time = time.monotonic() - start
    return report
