import random
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import pytest

from regkit.errors import ParameterOutOfContract
from regkit.graphs import (BipartiteGraph, VertexClass, count_edges_between,
                           iter_bits, mask_to_set, subset_mask)
from regkit.partitions import VertexPartition
from regkit.regcheck import (AFTER_EDITS, CERTIFIED, IRREGULAR,
                             NOT_CERTIFIED, PERFECT, UNKNOWN, CheckParams,
                             Threshold, ThresholdLike, Verdict, _as_threshold,
                             _greedy_walk, _peel, _scan_delta, _scan_eps,
                             check_delta_partition_with_edits,
                             check_delta_regular, check_eps_regular,
                             check_perfect_delta_partition, degree_profile,
                             find_delta_witness_greedy, verify_delta_witness,
                             verify_eps_witness)

EXH = CheckParams(mode="exhaustive")


def random_graph(rng, na, nb, p):
    return BipartiteGraph(VertexClass(0, na), VertexClass(1, nb),
                          [(a, b) for a in range(na) for b in range(nb)
                           if rng.random() < p])


def _subset_tables(g):
    """All subset edge counts via two integer matrix products."""
    na, nb = g.left.size, g.right.size
    m = np.zeros((na, nb), dtype=np.int64)
    for a, b in g.edges:
        m[a, b] = 1
    amasks = np.arange(1 << na)
    bmasks = np.arange(1 << nb)
    amem = ((amasks[:, None] >> np.arange(na)[None, :]) & 1).astype(np.int64)
    bmem = ((bmasks[:, None] >> np.arange(nb)[None, :]) & 1).astype(np.int64)
    counts = amem @ m @ bmem.T          # e(A', B') for every mask pair
    ka = amem.sum(axis=1)
    kb = bmem.sum(axis=1)
    return counts, ka, kb


def oracle_eps_regular(g, eps):
    """Literal quantifier sweep over all subset pairs, exact integers."""
    na, nb = g.left.size, g.right.size
    e = g.edge_count
    counts, ka, kb = _subset_tables(g)
    num, den = eps.numerator, eps.denominator
    qa = (ka * den >= num * na) & (ka > 0)
    qb = (kb * den >= num * nb) & (kb > 0)
    kk = ka[:, None] * kb[None, :]
    lhs = np.abs(counts * na * nb - e * kk) * den
    rhs = num * kk * na * nb
    viol = (lhs > rhs) & qa[:, None] & qb[None, :]
    return not bool(viol.any())


def oracle_delta_regular(g, delta):
    na, nb = g.left.size, g.right.size
    e = g.edge_count
    counts, ka, kb = _subset_tables(g)
    num, den = delta.numerator, delta.denominator
    qa = (ka * den >= num * na) & (ka > 0)
    qb = (kb * den >= num * nb) & (kb > 0)
    viol = (2 * counts * na * nb < e * ka[:, None] * kb[None, :]) \
        & qa[:, None] & qb[None, :]
    return not bool(viol.any())


def test_eps_verdicts_match_oracle():
    rng = random.Random(101)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), rng.randint(2, 7),
                         rng.choice([.2, .5, .8]))
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            verdict = check_eps_regular(g, eps, EXH)
            assert verdict.status in (CERTIFIED, IRREGULAR)
            assert (verdict.status == CERTIFIED) == oracle_eps_regular(g, eps)
            if verdict.status == IRREGULAR:
                assert verify_eps_witness(g, eps, verdict.witness)


def test_delta_verdicts_match_oracle():
    rng = random.Random(102)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), rng.randint(2, 7),
                         rng.choice([.2, .5, .8]))
        for delta in (Fraction(1, 4), Fraction(1, 2)):
            verdict = check_delta_regular(g, delta, EXH)
            assert verdict.status in (CERTIFIED, IRREGULAR)
            assert (verdict.status == CERTIFIED) == oracle_delta_regular(
                g, delta)
            if verdict.status == IRREGULAR:
                assert verify_delta_witness(g, delta, verdict.witness)


def test_pinned_examples():
    a, b = VertexClass(0, 8), VertexClass(1, 8)
    complete = BipartiteGraph.complete(a, b)
    assert check_delta_regular(complete, Fraction(1, 4), EXH).status \
        == CERTIFIED
    assert check_eps_regular(complete, Fraction(1, 100), EXH).status \
        == CERTIFIED
    empty = BipartiteGraph.empty(a, b)
    assert check_delta_regular(empty, Fraction(1, 4), EXH).status == CERTIFIED
    half = BipartiteGraph(a, b, [(i, j) for i in range(8) for j in range(8)
                                 if (i < 4) == (j < 4)])
    assert check_delta_regular(half, Fraction(1, 4), EXH).status == IRREGULAR
    assert check_eps_regular(half, Fraction(1, 4), EXH).status == IRREGULAR


def test_threshold_floor_and_sqrt():
    thr = Threshold(Fraction(1, 4))
    assert thr.floor_ok(1, 4) and not thr.floor_ok(0, 4)
    s = Threshold.sqrt_of(Fraction(1, 4))  # sqrt(1/4) = 1/2
    assert s.floor_ok(2, 4) and not s.floor_ok(1, 4)


def test_threshold_contract():
    g = BipartiteGraph.complete(VertexClass(0, 3), VertexClass(1, 3))
    with pytest.raises(ParameterOutOfContract):
        check_delta_regular(g, Fraction(3, 2), EXH)
    with pytest.raises(ParameterOutOfContract):
        check_eps_regular(g, Fraction(0), EXH)


def test_randomized_mode_never_claims_certified():
    rng = random.Random(103)
    params = CheckParams(mode="randomized", random_trials=32, seed=5)
    for _ in range(10):
        g = random_graph(rng, 6, 6, .5)
        v = check_delta_regular(g, Fraction(1, 4), params)
        assert v.status in (IRREGULAR, UNKNOWN)
        if v.status == IRREGULAR:
            assert verify_delta_witness(g, Fraction(1, 4), v.witness)


def test_greedy_witness_search_verifies():
    rng = random.Random(104)
    found = 0
    for _ in range(10):
        g = random_graph(rng, 7, 7, .5)
        w = find_delta_witness_greedy(g, Fraction(1, 4), seed=7)
        if w is not None:
            assert verify_delta_witness(g, Fraction(1, 4), w)
            found += 1
    assert found > 0


def test_perfect_partition_singletons_certify():
    rng = random.Random(105)
    g = random_graph(rng, 5, 5, .5)
    left = VertexPartition.singletons(g.left)
    right = VertexPartition.singletons(g.right)
    v = check_perfect_delta_partition(g, left, right, Fraction(1, 4), EXH)
    assert v.status == CERTIFIED


def test_edit_budget_respected():
    rng = random.Random(106)
    for _ in range(10):
        g = random_graph(rng, 8, 8, .5)
        left = VertexPartition.from_labels(g.left, [i // 4 for i in range(8)])
        right = VertexPartition.from_labels(g.right,
                                            [i // 4 for i in range(8)])
        delta = Fraction(1, 4)
        res = check_delta_partition_with_edits(g, left, right, delta, EXH)
        assert res.status in (PERFECT, AFTER_EDITS, NOT_CERTIFIED)
        assert Fraction(len(res.edits)) <= delta * g.edge_count
        assert set(res.edits) <= g.edges


def test_degree_profile_counts():
    a, b = VertexClass(0, 4), VertexClass(1, 4)
    g = BipartiteGraph(a, b, [(0, j) for j in range(4)])
    count, exceptional = degree_profile(g, [0, 1, 2, 3], Fraction(1, 8))
    # density 1/4; vertex 0 has degree 4, the rest 0
    assert count == 4
    assert exceptional == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# Reference: the bipartite searches as they were before every density
# comparison became an integer cross-multiplication, kept verbatim (renamed
# only) as the oracle for verdicts, witnesses and effort.

def _ref_column_order(g: BipartiteGraph, amask: int) -> list[tuple[int, int]]:
    """(hits, column) pairs sorted ascending; ties to the lowest index."""
    return sorted((( (g.cols[b] & amask).bit_count(), b)
                   for b in range(g.right.size)))


def _ref_witness(amask: int, cols: Sequence[tuple[int, int]], k: int
             ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a_part = tuple(sorted(mask_to_set(amask)))
    b_part = tuple(sorted(b for _, b in cols[:k]))
    return (a_part, b_part)


def _ref_scan_delta(g: BipartiteGraph, thr: Threshold
                ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]],
                           int]:
    """Exhaustive one-sided scan: first (A', B') with d' < d/2, if any.

    Witness order is canonical: left masks ascending as integers, then
    right-subset size ascending; within a size the minimizing columns
    (ties to the lowest index) are taken.  Returns (witness or None,
    number of left masks examined).
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    examined = 0
    if e_full == 0:
        # d = 0 and every induced density is >= 0 = d/2.
        return None, examined
    for amask in range(1, 1 << na):
        ka = amask.bit_count()
        if not thr.floor_ok(ka, na):
            continue
        examined += 1
        cols = _ref_column_order(g, amask)
        prefix = 0
        for k in range(1, nb + 1):
            prefix += cols[k - 1][0]
            if not thr.floor_ok(k, nb):
                continue
            # d' < d/2  <=>  2 * e' * na * nb < e_full * ka * k
            if 2 * prefix * na * nb < e_full * ka * k:
                return _ref_witness(amask, cols, k), examined
    return None, examined


def _ref_scan_eps(g: BipartiteGraph, eps: Fraction
              ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]],
                         int]:
    """Exhaustive two-sided scan: first (A', B') with |d' - d| > eps."""
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    p, q = eps.numerator, eps.denominator
    examined = 0
    for amask in range(1, 1 << na):
        ka = amask.bit_count()
        if ka * q < p * na:
            continue
        examined += 1
        cols = _ref_column_order(g, amask)
        lo = 0
        hi = 0
        for k in range(1, nb + 1):
            lo += cols[k - 1][0]
            hi += cols[nb - k][0]
            if k * q < p * nb:
                continue
            scale = ka * k * na * nb
            # Low side: d - d' > eps.
            if (e_full * ka * k - lo * na * nb) * q > p * scale:
                return _ref_witness(amask, cols, k), examined
            # High side: d' - d > eps, reached by the k largest columns.
            if (hi * na * nb - e_full * ka * k) * q > p * scale:
                a_part = tuple(sorted(mask_to_set(amask)))
                b_part = tuple(sorted(b for _, b in cols[nb - k:]))
                return (a_part, b_part), examined
    return None, examined


def _ref_peel(g: BipartiteGraph, thr: Threshold, amask: int, bmask: int,
          want_low: bool) -> Optional[tuple[int, int]]:
    """Greedy peeling from a starting pair; returns a violating pair or None.

    Removes, at each step, the single vertex (either side) whose removal
    moves the induced density furthest in the wanted direction, ties going
    to left side first and then to the lowest index.  Stops when neither
    side can shrink without breaking its size floor.
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    e = count_edges_between(g, amask, bmask)
    while True:
        ka, kb = amask.bit_count(), bmask.bit_count()
        if want_low and 2 * e * na * nb < e_full * ka * kb:
            return amask, bmask
        best = None  # (density after removal, side, vertex, edges after)
        if thr.floor_ok(ka - 1, na) and ka > 1:
            for a in iter_bits(amask):
                e2 = e - (g.rows[a] & bmask).bit_count()
                d2 = Fraction(e2, (ka - 1) * kb)
                key = d2 if want_low else -d2
                if best is None or key < best[0]:
                    best = (key, 0, a, e2)
        if thr.floor_ok(kb - 1, nb) and kb > 1:
            for b in iter_bits(bmask):
                e2 = e - (g.cols[b] & amask).bit_count()
                d2 = Fraction(e2, ka * (kb - 1))
                key = d2 if want_low else -d2
                if best is None or key < best[0]:
                    best = (key, 1, b, e2)
        if best is None:
            return None
        cur = Fraction(e, ka * kb)
        if (best[0] if want_low else -best[0]) >= cur and want_low:
            # No removal lowers the density any further.
            return None
        _, side, v, e = best
        if side == 0:
            amask ^= 1 << v
        else:
            bmask ^= 1 << v


def _ref_random_subset(rng: random.Random, n: int, k: int) -> int:
    return subset_mask(rng.sample(range(n), k), n)


def ref_find_delta_witness_greedy(g: BipartiteGraph, delta: ThresholdLike,
                              seed: int, restarts: int = 64
                              ) -> Optional[tuple[tuple[int, ...],
                                                  tuple[int, ...]]]:
    """Randomized witness search for the one-sided delta condition.

    Attempt 0 peels from the full sides; later attempts restart from
    uniformly random subsets meeting the size floors.  Any returned
    witness has been re-verified against the definition.
    """
    thr = _as_threshold(delta)
    na, nb = g.left.size, g.right.size
    if g.edge_count == 0:
        return None
    rng = random.Random(seed)
    starts = [((1 << na) - 1, (1 << nb) - 1)]
    min_ka = next(k for k in range(1, na + 1) if thr.floor_ok(k, na))
    min_kb = next(k for k in range(1, nb + 1) if thr.floor_ok(k, nb))
    for _ in range(restarts):
        ka = rng.randint(min_ka, na)
        kb = rng.randint(min_kb, nb)
        starts.append((_ref_random_subset(rng, na, ka),
                       _ref_random_subset(rng, nb, kb)))
    for amask, bmask in starts:
        found = _ref_peel(g, thr, amask, bmask, want_low=True)
        if found is not None:
            witness = (tuple(sorted(mask_to_set(found[0]))),
                       tuple(sorted(mask_to_set(found[1]))))
            if verify_delta_witness(g, thr, witness):
                return witness
    return None


def _ref_random_eps_search(g: BipartiteGraph, eps: Fraction,
                           params: CheckParams
                           ) -> tuple[Optional[tuple[tuple[int, ...],
                                                     tuple[int, ...]]], int]:
    """Random sampling plus greedy pushes for the two-sided condition."""
    thr = Threshold(eps)
    na, nb = g.left.size, g.right.size
    rng = random.Random(params.seed)
    min_ka = next(k for k in range(1, na + 1) if thr.floor_ok(k, na))
    min_kb = next(k for k in range(1, nb + 1) if thr.floor_ok(k, nb))
    trials = 0
    candidates = [((1 << na) - 1, (1 << nb) - 1)]
    for _ in range(params.random_trials):
        ka = rng.randint(min_ka, na)
        kb = rng.randint(min_kb, nb)
        candidates.append((_ref_random_subset(rng, na, ka),
                           _ref_random_subset(rng, nb, kb)))
    for amask, bmask in candidates:
        trials += 1
        for want_low in (True, False):
            am, bm = amask, bmask
            # Greedy walk: keep the pair, push density away from d(g).
            for _ in range(na + nb):
                witness = (tuple(sorted(mask_to_set(am))),
                           tuple(sorted(mask_to_set(bm))))
                if verify_eps_witness(g, eps, witness):
                    return witness, trials
                step = _ref_eps_push(g, thr, am, bm, want_low)
                if step is None:
                    break
                am, bm = step
    return None, trials


def _ref_eps_push(g: BipartiteGraph, thr: Threshold, amask: int, bmask: int,
              want_low: bool) -> Optional[tuple[int, int]]:
    """One greedy removal pushing induced density down (or up)."""
    na, nb = g.left.size, g.right.size
    ka, kb = amask.bit_count(), bmask.bit_count()
    e = count_edges_between(g, amask, bmask)
    best = None
    if thr.floor_ok(ka - 1, na) and ka > 1:
        for a in iter_bits(amask):
            e2 = e - (g.rows[a] & bmask).bit_count()
            key = Fraction(e2, (ka - 1) * kb)
            if not want_low:
                key = -key
            if best is None or key < best[0]:
                best = (key, amask ^ (1 << a), bmask)
    if thr.floor_ok(kb - 1, nb) and kb > 1:
        for b in iter_bits(bmask):
            e2 = e - (g.cols[b] & amask).bit_count()
            key = Fraction(e2, ka * (kb - 1))
            if not want_low:
                key = -key
            if best is None or key < best[0]:
                best = (key, amask, bmask ^ (1 << b))
    if best is None:
        return None
    return best[1], best[2]


def ref_verdict(g, kind, param, params):
    """check_eps_regular / check_delta_regular on the reference searches."""
    mode = params.pick_mode(g.left.size, g.right.size)
    if kind == "delta" and g.edge_count == 0:
        return Verdict(CERTIFIED, "Exhaustive", None, {"left_masks": 0})
    if mode == "exhaustive":
        if kind == "eps":
            witness, examined = _ref_scan_eps(g, param)
        else:
            witness, examined = _ref_scan_delta(g, _as_threshold(param))
        status = CERTIFIED if witness is None else IRREGULAR
        return Verdict(status, "Exhaustive", witness,
                       {"left_masks": examined})
    if kind == "eps":
        witness, trials = _ref_random_eps_search(g, param, params)
    else:
        witness = ref_find_delta_witness_greedy(
            g, param, params.seed, restarts=params.random_trials)
        trials = params.random_trials
    status = UNKNOWN if witness is None else IRREGULAR
    return Verdict(status, "Randomized", witness, {"trials": trials})


EPS_PARAMS = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
              Fraction(2, 3)]
DELTA_PARAMS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                Threshold.sqrt_of(Fraction(1, 8)),
                Threshold.sqrt_of(Fraction(1, 3)),
                Threshold.sqrt_of(Fraction(1, 2))]


def _eps_side(g, witness):
    """"low" if the witness pair is sparser than g, else "high"."""
    amask = subset_mask(witness[0], g.left.size)
    bmask = subset_mask(witness[1], g.right.size)
    e = count_edges_between(g, amask, bmask)
    lower = (e * g.left.size * g.right.size
             < g.edge_count * len(witness[0]) * len(witness[1]))
    return "low" if lower else "high"


@pytest.mark.parametrize("mode, sides, count, seed", [
    ("exhaustive", (1, 9), 120, 201),
    ("exhaustive", (11, 14), 4, 202),
    ("randomized", (1, 14), 160, 203),
])
def test_searches_match_reference(mode, sides, count, seed):
    rng = random.Random(seed)
    statuses, eps_sides = set(), set()
    for _ in range(count):
        na = rng.randint(*sides)
        nb = rng.randint(1, 14)
        g = random_graph(rng, na, nb, rng.choice([.2, .35, .5, .65, .8, .95]))
        params = CheckParams(mode=mode, max_exhaustive_side=14,
                             random_trials=rng.randint(1, 16),
                             seed=rng.randrange(1 << 16))
        eps = rng.choice(EPS_PARAMS)
        got = check_eps_regular(g, eps, params)
        assert got == ref_verdict(g, "eps", eps, params)
        if got.witness is not None:
            eps_sides.add(_eps_side(g, got.witness))
        delta = rng.choice(DELTA_PARAMS)
        got_delta = check_delta_regular(g, delta, params)
        assert got_delta == ref_verdict(g, "delta", delta, params)
        statuses |= {got.status, got_delta.status}
    if sides[0] == 1:
        assert eps_sides == {"low", "high"}
        assert {IRREGULAR, CERTIFIED if mode == "exhaustive" else UNKNOWN} \
            <= statuses


def _walk_pairs(g, thr, want_low, steps):
    e = g.edge_count
    full = ((1 << g.left.size) - 1, (1 << g.right.size) - 1)
    walk = _greedy_walk(g, thr, *full, e, want_low)
    return [next(walk) for _ in range(steps)]


def test_greedy_tie_goes_to_left_then_lowest_index():
    # Symmetric adjacency: removing left vertex v or right vertex v gives
    # the same density, and vertices 0 and 1 tie within each side.
    a, b = VertexClass(0, 3), VertexClass(1, 3)
    g = BipartiteGraph(a, b, [(0, 0), (1, 1)])
    thr = Threshold(Fraction(1, 3))
    assert _walk_pairs(g, thr, True, 2)[1] == (0b110, 0b111, 1)
    assert _ref_eps_push(g, thr, 0b111, 0b111, True) == (0b110, 0b111)
    assert _walk_pairs(g, thr, False, 2)[1] == (0b011, 0b111, 2)
    assert _ref_eps_push(g, thr, 0b111, 0b111, False) == (0b011, 0b111)
    # Peeling: left 0, then a density-0 tie between left 1 and right 0.
    g = BipartiteGraph(a, b, [(0, 0), (0, 1), (1, 0)])
    assert _peel(g, thr, 0b111, 0b111) == (0b100, 0b111)
    assert _ref_peel(g, thr, 0b111, 0b111, want_low=True) == (0b100, 0b111)
    # Two disjoint K_{2,2}: every removal keeps the density at 1/2, so
    # peeling stops at once although ({0}, {2}) violates delta = 1/4.
    a, b = VertexClass(0, 4), VertexClass(1, 4)
    g = BipartiteGraph(a, b, [(i, j) for i in range(4) for j in range(4)
                              if i // 2 == j // 2])
    thr = Threshold(Fraction(1, 4))
    assert _peel(g, thr, 0b1111, 0b1111) is None
    assert _ref_peel(g, thr, 0b1111, 0b1111, want_low=True) is None
    assert verify_delta_witness(g, thr, ((0,), (2,)))


def _graph(na, nb, edges):
    return BipartiteGraph(VertexClass(0, na), VertexClass(1, nb), edges)


def _all_but(na, nb, missing):
    return _graph(na, nb, [(a, b) for a in range(na) for b in range(nb)
                           if (a, b) not in missing])


@pytest.mark.parametrize("scan, g, param, expected", [
    # Lowest column among the tied minimizers.
    ("delta", _all_but(3, 3, {(0, 1), (0, 2)}), Fraction(1, 3),
     (((0,), (1,)), 1)),
    # Left masks ascending: {0} has no witness, {1} has.
    ("delta", _all_but(3, 3, {(1, 2)}), Fraction(1, 3), (((1,), (2,)), 2)),
    # Least admissible size (2), though size 3 violates too.
    ("delta", _graph(2, 4, [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]),
     Fraction(1, 2), (((0,), (0, 1)), 1)),
    # Size floor sqrt(1/4) * 4 = 2: the masks below {2, 3} with two or
    # more vertices are examined first.
    ("delta", _all_but(4, 4, {(2, 0), (2, 1), (3, 0), (3, 1)}),
     Threshold.sqrt_of(Fraction(1, 4)), (((2, 3), (0, 1)), 8)),
    # Low side before high side when both violate.
    ("eps", _graph(2, 2, [(0, 1), (1, 0)]), Fraction(1, 3),
     (((0,), (0,)), 1)),
    # High side: the last pairs of the ascending (hits, column) order, so
    # ties go to the highest column.
    ("eps", _graph(4, 4, [(0, 0), (0, 1)]), Fraction(1, 4),
     (((0,), (1,)), 1)),
    ("eps", _graph(4, 4, [(a, b) for a in (0, 1) for b in (0, 1, 2)]),
     Fraction(1, 2), (((0, 1), (1, 2)), 1)),
])
def test_exhaustive_witness_order_pinned(scan, g, param, expected):
    if scan == "delta":
        thr = _as_threshold(param)
        assert _scan_delta(g, thr) == expected
        assert _ref_scan_delta(g, thr) == expected
    else:
        assert _scan_eps(g, param) == expected
        assert _ref_scan_eps(g, param) == expected
