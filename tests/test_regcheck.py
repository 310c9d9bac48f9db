import itertools
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from regkit import regcheck
from regkit.errors import (BudgetExceeded, DegenerateInput,
                           ParameterOutOfContract)
from regkit.graphs import (BipartiteGraph, VertexClass, count_edges_between,
                           density, iter_bits, subset_mask)
from regkit.partitions import VertexPartition
from regkit.regcheck import (AFTER_EDITS, CERTIFIED, IRREGULAR,
                             NOT_CERTIFIED, PERFECT, UNKNOWN, CheckParams,
                             EditResult, Threshold, ThresholdLike, Verdict,
                             _Band, _WalkTables, _as_threshold,
                             _fields, _greedy_walk, _iter_cluster_pairs,
                             _masks_covered, _members, _prefix_masks,
                             _random_starts, _scan, _scan_witness,
                             _spread_row,
                             check_delta_partition_with_edits,
                             check_delta_regular, check_eps_regular,
                             check_perfect_delta_partition, degree_profile,
                             verify_delta_witness, verify_eps_witness)
from test_graphs import mask_to_set
from test_hyperreg import _relabelled_graph

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


@pytest.mark.parametrize("thr, n, most", [
    (Threshold(Fraction(1, 4)), 8, 2),  # 8/4 = 2 exactly
    (Threshold(Fraction(2, 3)), 7, 4),  # 14/3
    (Threshold.sqrt_of(Fraction(1, 4)), 8, 4),  # sqrt(1/4) * 8 = 4 exactly
    (Threshold.sqrt_of(Fraction(1, 2)), 10, 7),  # 7.07...
])
def test_threshold_ceiling_boundary(thr, n, most):
    """k <= thr * n holds up to and at the bound, and fails one above."""
    assert thr.ceiling_ok(most, n) and not thr.ceiling_ok(most + 1, n)
    assert thr.ceiling_ok(0, n)


@given(st.fractions(0, 2), st.booleans(), st.integers(0, 60),
       st.integers(0, 60))
def test_threshold_ceiling_matches_fractions(value, is_sqrt, k, n):
    thr = Threshold(value, is_sqrt)
    if is_sqrt:  # both sides are nonnegative: compare squares
        assert thr.ceiling_ok(k, n) == (k * k <= value * n * n)
    else:
        assert thr.ceiling_ok(k, n) == (k <= value * n)


def test_edit_budget_is_never_the_binding_test():
    """Edits delete only low pairs, of density below thr * d(g), and the
    pairs tile the product, so |edits| < thr * e(g) always: every edit
    result of the planted partitions keeps strictly inside its budget."""
    rng = random.Random(302)
    edited = 0
    for _ in range(200):
        g, left, right = _planted_partition(rng, rng.randint(2, 9),
                                            rng.randint(2, 9))
        delta = rng.choice(DELTA_PARAMS)
        res = check_delta_partition_with_edits(g, left, right, delta, EXH)
        if res.edits:
            edited += 1
            thr = _as_threshold(delta)
            assert not thr.floor_ok(len(res.edits), g.edge_count)
    assert edited >= 20


def test_eps_witness_needs_both_sides_large():
    """Column 0 is empty, so it deviates by 3/4 from the density; yet one
    column is below the floor eps * 4 = 2, on either side."""
    g = BipartiteGraph(VertexClass(0, 4), VertexClass(1, 4),
                       [(a, b) for a in range(4) for b in range(1, 4)])
    eps = Fraction(1, 2)
    assert not verify_eps_witness(g, eps, ((0, 1, 2, 3), (0,)))
    assert not verify_eps_witness(g.transpose(), eps, ((0,), (0, 1, 2, 3)))
    assert verify_eps_witness(g, Fraction(1, 4), ((0, 1, 2, 3), (0,)))


def test_threshold_contract():
    g = BipartiteGraph.complete(VertexClass(0, 3), VertexClass(1, 3))
    with pytest.raises(ParameterOutOfContract):
        check_delta_regular(g, Fraction(3, 2), EXH)
    with pytest.raises(ParameterOutOfContract):
        check_eps_regular(g, Fraction(0), EXH)
    # No size meets a floor above 1: a contract error, never StopIteration.
    with pytest.raises(ParameterOutOfContract):
        check_delta_regular(g, Fraction(3, 2), CheckParams(mode="randomized"))
    with pytest.raises(ParameterOutOfContract):
        Threshold(Fraction(3, 2)).least(3)


def test_exhaustive_budget():
    """Auto mode is exhaustive up to the largest side's limit; beyond it an
    exhaustive search raises, naming the size and the limit."""
    g = BipartiteGraph.complete(VertexClass(0, 5), VertexClass(1, 3))
    over = CheckParams(mode="exhaustive", max_exhaustive_side=4)
    with pytest.raises(BudgetExceeded, match="5 .* limit 4"):
        check_delta_regular(g, Fraction(1, 4), over)
    auto = CheckParams(max_exhaustive_side=4)
    assert check_eps_regular(g, Fraction(1, 4), auto).method == "Randomized"
    auto = CheckParams(max_exhaustive_side=5)
    assert check_eps_regular(g, Fraction(1, 4), auto).status == CERTIFIED


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
    params = CheckParams(mode="randomized", seed=7)
    found = 0
    for _ in range(10):
        g = random_graph(rng, 7, 7, .5)
        w = check_delta_regular(g, Fraction(1, 4), params).witness
        if w is not None:
            assert verify_delta_witness(g, Fraction(1, 4), w)
            found += 1
    assert found > 0


def test_perfect_partition_singletons_certify():
    rng = random.Random(105)
    g = random_graph(rng, 5, 5, .5)
    left = VertexPartition.from_labels(g.left, range(5))
    right = VertexPartition.from_labels(g.right, range(5))
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
# Specification of the exhaustive scans, the oracle every faster scan is
# held to (witness, verdict and left_masks effort).  It walks every left
# mask A' of at least the floor size, ascending as integers, and for each
# every right size k of at least the floor, ascending; for each (A', k) it
# tests the k columns with the fewest hits into A' (ties to the lowest
# index), then, for eps, the k with the most (the last k pairs of the
# ascending (hits, column) order, so ties to the highest).  Those columns
# give the least and the largest e(A', B') over all B' of size k, so the
# first pair that fails is the first witness in canonical order.  The
# effort is the number of left masks walked up to and including the
# witness's, or all of them; the delta scan of an edgeless graph walks
# none.  Every density test is an exact integer cross-multiplication.

def _spec_column_order(g: BipartiteGraph, amask: int
                       ) -> list[tuple[int, int]]:
    """(hits, column) pairs sorted ascending; ties to the lowest index."""
    return sorted((( (g.cols[b] & amask).bit_count(), b)
                   for b in range(g.right.size)))


def _spec_witness(amask: int, cols: Sequence[tuple[int, int]], k: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a_part = tuple(sorted(mask_to_set(amask)))
    b_part = tuple(sorted(b for _, b in cols[:k]))
    return (a_part, b_part)


def _spec_scan_delta(g: BipartiteGraph, thr: Threshold
                     ) -> tuple[Optional[tuple[tuple[int, ...],
                                               tuple[int, ...]]], int]:
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
        cols = _spec_column_order(g, amask)
        prefix = 0
        for k in range(1, nb + 1):
            prefix += cols[k - 1][0]
            if not thr.floor_ok(k, nb):
                continue
            # d' < d/2  <=>  2 * e' * na * nb < e_full * ka * k
            if 2 * prefix * na * nb < e_full * ka * k:
                return _spec_witness(amask, cols, k), examined
    return None, examined


def _spec_scan_eps(g: BipartiteGraph, eps: Fraction
                   ) -> tuple[Optional[tuple[tuple[int, ...],
                                             tuple[int, ...]]], int]:
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
        cols = _spec_column_order(g, amask)
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
                return _spec_witness(amask, cols, k), examined
            # High side: d' - d > eps, reached by the k largest columns.
            if (hi * na * nb - e_full * ka * k) * q > p * scale:
                a_part = tuple(sorted(mask_to_set(amask)))
                b_part = tuple(sorted(b for _, b in cols[nb - k:]))
                return (a_part, b_part), examined
    return None, examined


def spec_verdict(g, kind, param):
    """The exhaustive check_eps_regular / check_delta_regular verdict on
    the specification scans."""
    if kind == "eps":
        witness, examined = _spec_scan_eps(g, param)
    else:
        witness, examined = _spec_scan_delta(g, _as_threshold(param))
    status = CERTIFIED if witness is None else IRREGULAR
    return Verdict(status, "Exhaustive", witness, {"left_masks": examined})


# ---------------------------------------------------------------------------
# Reference: the randomized searches as they were before every density
# comparison became an integer cross-multiplication, kept verbatim (renamed
# only) as the oracle for verdicts, witnesses and effort.

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
    """check_eps_regular / check_delta_regular on the specification scans
    and the reference searches."""
    mode = params.mode
    if mode == "auto":
        lim = params.max_exhaustive_side
        mode = "exhaustive" if g.left.size <= lim and g.right.size <= lim \
            else "randomized"
    if kind == "delta" and g.edge_count == 0:
        return Verdict(CERTIFIED, "Exhaustive", None, {"left_masks": 0})
    if mode == "exhaustive":
        return spec_verdict(g, kind, param)
    if kind == "eps":
        witness, trials = _ref_random_eps_search(g, param, params)
    else:
        witness = ref_find_delta_witness_greedy(
            g, param, params.seed, restarts=params.random_trials)
        trials = params.random_trials + 1
        if witness is not None:
            # Both searches book the starts they walked.  The starts of a
            # search with fewer restarts are a prefix of its starts, so the
            # fewest restarts that find a witness walk that many starts.
            trials = next(
                r + 1 for r in range(params.random_trials + 1)
                if ref_find_delta_witness_greedy(g, param, params.seed,
                                                 restarts=r) is not None)
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
    walk = _greedy_walk(g, _WalkTables.of(g, thr), *full, want_low)
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
    peeled = BipartiteGraph(a, b, [(0, 0), (0, 1), (1, 0)])
    assert _ref_peel(peeled, thr, 0b111, 0b111, want_low=True) == (0b100,
                                                                   0b111)
    # Two disjoint K_{2,2}: every removal keeps the density at 1/2, so
    # peeling stops at once although ({0}, {2}) violates delta = 1/4.
    a, b = VertexClass(0, 4), VertexClass(1, 4)
    blocks = BipartiteGraph(a, b, [(i, j) for i in range(4) for j in range(4)
                                   if i // 2 == j // 2])
    quarter = Threshold(Fraction(1, 4))
    assert _ref_peel(blocks, quarter, 0b1111, 0b1111, want_low=True) is None
    assert verify_delta_witness(blocks, quarter, ((0,), (2,)))
    # The live search takes the same steps and stops at the same pairs:
    # its whole verdict, the starts walked included, is the reference's.
    for graph, delta in ((peeled, thr), (blocks, quarter)):
        for seed in range(6):
            params = CheckParams(mode="randomized", random_trials=3,
                                 seed=seed)
            assert check_delta_regular(graph, delta, params) == ref_verdict(
                graph, "delta", delta, params)


def test_a_walk_pair_that_fails_to_reverify_raises():
    """A rejected walk pair is re-checked against the definition; one the
    check refuses means a walk count is wrong, which is an error, not a
    failed start."""
    g = _graph(2, 2, [(0, 0), (1, 1)])

    def wrong_count(g, tables, amask, bmask, want_low):
        yield amask, bmask, 0   # the full pair has 2 edges, not 0

    params = CheckParams(mode="randomized", random_trials=1)
    for check, value in ((check_eps_regular, Fraction(1, 4)),
                         (check_delta_regular, Fraction(1, 2))):
        with mock.patch.object(regcheck, "_greedy_walk", wrong_count), \
                pytest.raises(RuntimeError, match=r"\(\(0, 1\), \(0, 1\)\)"):
            check(g, value, params)



def _ref_greedy_walk(g: BipartiteGraph, thr: Threshold, amask: int, bmask: int,
                 e: int, want_low: bool):
    """Yield the pairs of a greedy walk from (amask, bmask), the start first.

    Each step removes the single vertex (either side) whose removal moves
    the induced density furthest down (or up), ties going to the left side
    first and then to the lowest index.  The walk ends when neither side
    can shrink without breaking its size floor.  ``e`` is the edge count
    between the masks; every pair is yielded as (amask, bmask, edges).
    """
    na, nb = g.left.size, g.right.size
    rows, cols = g.rows, g.cols
    pick = max if want_low else min  # removing the most hits lowers d most
    left, right = list(iter_bits(amask)), list(iter_bits(bmask))
    while True:
        yield amask, bmask, e
        ka, kb = len(left), len(right)
        # Best removal: position i in side, density best_e2 / best_den.
        side = None
        if ka > 1 and thr.floor_ok(ka - 1, na):
            hits = [(rows[a] & bmask).bit_count() for a in left]
            h = pick(hits)
            side, i = left, hits.index(h)
            best_e2, best_den = e - h, (ka - 1) * kb
        if kb > 1 and thr.floor_ok(kb - 1, nb):
            hits = [(cols[b] & amask).bit_count() for b in right]
            h = pick(hits)
            e2, den = e - h, ka * (kb - 1)
            if side is None or (e2 * best_den < best_e2 * den if want_low
                                else e2 * best_den > best_e2 * den):
                side, i = right, hits.index(h)
                best_e2, best_den = e2, den
        if side is None:
            return
        if side is left:
            amask ^= 1 << left.pop(i)
        else:
            bmask ^= 1 << right.pop(i)
        e = best_e2


def _ref_random_starts(g: BipartiteGraph, thr: Threshold, rng: random.Random,
                   trials: int) -> list[tuple[int, int]]:
    """The full sides, then ``trials`` random pairs meeting the size floors.

    Each random pair draws its two sizes and then its two subsets, in that
    order, so a seed always yields the same starts.
    """
    na, nb = g.left.size, g.right.size
    min_ka, min_kb = thr.least(na), thr.least(nb)
    starts = [((1 << na) - 1, (1 << nb) - 1)]
    for _ in range(trials):
        ka = rng.randint(min_ka, na)
        kb = rng.randint(min_kb, nb)
        starts.append((_ref_random_subset(rng, na, ka),
                       _ref_random_subset(rng, nb, kb)))
    return starts


WALK_THRESHOLDS = [Fraction(p, q) for q in range(1, 10)
                   for p in range(1, q + 1)]


def _assert_walks_match(g, thr, starts):
    tables = _WalkTables.of(g, thr)
    for amask, bmask in starts:
        e = count_edges_between(g, amask, bmask)
        for want_low in (True, False):
            assert (list(_greedy_walk(g, tables, amask, bmask, want_low))
                    == list(_ref_greedy_walk(g, thr, amask, bmask, e,
                                             want_low)))


def test_greedy_walk_matches_previous_walk():
    rng = random.Random(17)
    for _ in range(300):
        na, nb = rng.randint(1, 40), rng.randint(1, 40)
        g = random_graph(rng, na, nb, rng.random())
        value = rng.choice(WALK_THRESHOLDS)
        thr = Threshold(value, is_sqrt=rng.random() < 0.3)
        _assert_walks_match(g, thr, _ref_random_starts(g, thr, rng, 2))
    # Byte fields up to 254 vertices a side, where a full row's hits, biased
    # by one, reach 0xFF; eight-byte fields from 255 on.  Either every third
    # row is full, or all rows but the first two, so that the upward walk
    # reaches a complete pair whose every present row has 254 hits, one
    # below the sentinel of a removed row.
    for (na, nb), sparse in itertools.product(
            [(254, 254), (255, 255), (256, 7), (7, 256), (301, 30)],
            [lambda a: a % 3 != 0, lambda a: a < 2]):
        rows = [sum(1 << b for b in range(nb) if rng.random() < 0.9)
                if sparse(a) else (1 << nb) - 1 for a in range(na)]
        g = BipartiteGraph.from_rows(VertexClass(0, na), VertexClass(1, nb),
                                     rows)
        assert _WalkTables.of(g, Threshold(1)).width == (
            1 if max(na, nb) < 255 else 8)
        for thr in (Threshold(Fraction(9, 10)),
                    Threshold.sqrt_of(Fraction(4, 5))):
            _assert_walks_match(g, thr, _ref_random_starts(g, thr, rng, 1))


@pytest.mark.parametrize("seed", [0, 1, 5, 12345])
def test_random_starts_match_previous_starts(seed):
    rng = random.Random(seed)
    for na, nb, value in [(24, 32, Fraction(1, 3)), (48, 40, Fraction(1, 2)),
                          (1, 5, Fraction(1)), (30, 30, Fraction(1, 9))]:
        g = random_graph(rng, na, nb, 0.5)
        thr = Threshold(value)
        assert (list(_random_starts(g, thr, random.Random(seed), 64))
                == _ref_random_starts(g, thr, random.Random(seed), 64))


def test_bench_scale_verdicts_match_reference():
    """Auto mode above the exhaustive limit, at the sides the benchmark
    runs: near-complete graphs use every trial and end unknown, planted
    empty blocks are refuted early."""
    rng = random.Random(24)
    params = CheckParams(seed=rng.randrange(1 << 16))
    statuses = set()
    for n, plant in [(24, False), (32, False), (48, False), (24, True),
                     (40, True), (48, True)]:
        if plant:
            k = n // 3 + 1
            rows = set(rng.sample(range(n), k))
            cols = set(rng.sample(range(n), k))
            g = _graph(n, n, [(a, b) for a in range(n) for b in range(n)
                              if not (a in rows and b in cols)
                              and rng.random() < 0.9])
        else:
            g = _graph(n, n, [(a, b) for a in range(n) for b in range(n)
                              if rng.random() >= 0.05])
        for kind, check in (("eps", check_eps_regular),
                            ("delta", check_delta_regular)):
            got = check(g, Fraction(1, 3), params)
            assert got == ref_verdict(g, kind, Fraction(1, 3), params)
            assert got.method == "Randomized"
            statuses.add((plant, got.status))
    assert statuses == {(False, UNKNOWN), (True, IRREGULAR)}

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
        assert _scan(g, thr, _Band.delta(g)) == expected
        assert _ref4_scan_delta(g, thr) == expected
        assert _spec_scan_delta(g, thr) == expected
    else:
        assert _scan(g, Threshold(param), _Band.eps(g, param)) == expected
        assert _ref4_scan_eps(g, param) == expected
        assert _spec_scan_eps(g, param) == expected


@st.composite
def scan_graphs(draw, sides=12):
    """Sides of 1 to ``sides`` vertices, a drawn edge density and, half the
    time, an empty block planted on drawn left and right subsets."""
    na, nb = draw(st.integers(1, sides)), draw(st.integers(1, sides))
    p = draw(st.sampled_from([.2, .5, .8, .95, 1]))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    hole_a = draw(st.integers(0, (1 << na) - 1)) if draw(st.booleans()) else 0
    hole_b = draw(st.integers(1, (1 << nb) - 1))
    return _graph(na, nb, [(a, b) for a in range(na) for b in range(nb)
                           if rng.random() < p
                           and not (hole_a >> a & 1 and hole_b >> b & 1)])


# The low-side and the high-side eps witness pinned above, so that both
# sides are compared on every run.
@example(g=_graph(2, 2, [(0, 1), (1, 0)]), eps=Fraction(1, 3),
         delta=Fraction(1, 2))
@example(g=_graph(4, 4, [(0, 0), (0, 1)]), eps=Fraction(1, 4),
         delta=Threshold.sqrt_of(Fraction(1, 8)))
@given(g=scan_graphs(), eps=st.sampled_from(EPS_PARAMS),
       delta=st.sampled_from(DELTA_PARAMS))
def test_floor_size_scans_match_full_scans(g, eps, delta):
    """Visiting only some masks of the floor size, and only the floor size
    on the right, gives the verdict, the witness and the left_masks effort
    of the specification, which walks every larger mask and size too."""
    params = CheckParams(mode="exhaustive")
    assert check_eps_regular(g, eps, params) == spec_verdict(g, "eps", eps)
    assert check_delta_regular(g, delta, params) == \
        spec_verdict(g, "delta", delta)


def test_masks_covered_matches_brute_force():
    """The masks m in [1, W] with at least ka bits, counted."""
    rng = random.Random(12)
    pops = [m.bit_count() for m in range(1 << 14)]
    for ka in range(1, 15):
        # covered[w] counts the masks in [1, w] with at least ka bits.
        covered = list(itertools.accumulate(p >= ka for p in pops))
        for n in range(ka, 15):
            tops = [(1 << n) - 1] + [rng.randrange(1, 1 << n)
                                     for _ in range(40)]
            if n <= 8:
                tops += range(1, 1 << n)
            for top in tops:
                assert _masks_covered(ka, top) == covered[top]


def test_scan_fields_wider_than_a_byte():
    """300 hits in one column, as at the floor size 300 or 299, overflow a
    byte; the scans then certify, having covered every mask of the size."""
    g = _graph(300, 2, [(a, 0) for a in range(300)])
    params = CheckParams(mode="exhaustive", max_exhaustive_side=300)
    assert check_delta_regular(g, 1, params) == \
        Verdict(CERTIFIED, "Exhaustive", None, {"left_masks": 1})
    assert check_eps_regular(g, Fraction(299, 300), params) == \
        Verdict(CERTIFIED, "Exhaustive", None, {"left_masks": 301})


def test_spread_rows_match_bit_by_bit_spread():
    """The byte-table spread row puts bit b of the row in field b, as the
    walk over its bits does, at both field widths."""
    rng = random.Random(13)
    rows = list(range(1 << 16)) + [rng.getrandbits(rng.randint(17, 70))
                                   for _ in range(2000)]
    for width in (1, 8):
        for row in rows:
            assert _spread_row(row, width) == \
                sum(1 << 8 * width * b for b in iter_bits(row))


PRUNE_DENSITIES = [0, .02, .05, .1, .9, .95, .98, 1]


def _pruning_graph(rng, na, nb):
    """A graph of a density drawn from PRUNE_DENSITIES; a third of the time
    with an empty block planted on random rows and columns, a third with a
    complete one."""
    p = rng.choice(PRUNE_DENSITIES)
    plant = rng.choice([None, False, True])
    rows = set(rng.sample(range(na), rng.randint(1, na)))
    cols = set(rng.sample(range(nb), rng.randint(1, nb)))

    def edge(a, b):
        if plant is not None and a in rows and b in cols:
            return plant
        return rng.random() < p

    return _graph(na, nb, [(a, b) for a in range(na) for b in range(nb)
                           if edge(a, b)])


@pytest.mark.parametrize("mode, sides, count, seed", [
    ("exhaustive", (1, 12), 160, 401),
    ("randomized", (13, 30), 60, 402),
    ("auto", (13, 30), 60, 403),
])
def test_pruned_checks_match_reference(mode, sides, count, seed):
    """The scans that skip masks by their edge total, and the randomized
    checks that return at once when the density bounds rule out every
    pair, give the whole verdict of the reference searches: near-empty and
    near-complete graphs, planted empty and complete blocks, rational and
    square-root deltas.  Above the exhaustive limit the early exit is
    taken on some checks and not on others."""
    rng = random.Random(seed)
    statuses = set()
    with mock.patch.object(regcheck, "_random_search",
                           wraps=regcheck._random_search) as search:
        for _ in range(count):
            g = _pruning_graph(rng, rng.randint(*sides), rng.randint(*sides))
            params = CheckParams(mode=mode, random_trials=rng.randint(1, 4),
                                 seed=rng.randrange(1 << 16))
            eps, delta = rng.choice(EPS_PARAMS), rng.choice(DELTA_PARAMS)
            got = check_eps_regular(g, eps, params)
            assert got == ref_verdict(g, "eps", eps, params)
            got_delta = check_delta_regular(g, delta, params)
            assert got_delta == ref_verdict(g, "delta", delta, params)
            statuses |= {got.status, got_delta.status}
    if mode == "exhaustive":
        assert statuses == {CERTIFIED, IRREGULAR} and not search.called
    else:
        assert {UNKNOWN, IRREGULAR} <= statuses
        assert 0 < search.call_count < 2 * count


@st.composite
def pruning_graphs(draw):
    """``_pruning_graph`` with sides of 1-10 vertices."""
    na, nb = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    return _pruning_graph(random.Random(draw(st.integers(0, 1 << 32))),
                          na, nb)


def _gosper_masks(g: BipartiteGraph, ka: int, k0: int, low: int, high: int):
    """What ``_prefix_masks`` yields, one mask at a time: the walk it
    replaced, kept as its reference.

    The masks of ka bits are walked with Gosper's hack (HAKMEM 175; Knuth,
    TAOCP 4A 7.1.3): the next mask clears the lowest run of ones, bits
    t..u-1, sets bit u and sets bits 0..u-t-2.  The walk carries the
    mask's edge total E: with D[i] the sum of the first i row degrees, a
    step adds deg[u] - (D[u] - D[t]) + D[u-t-1].  A mask is yielded when E
    < below or E > above, with the cuts ``_prefix_masks`` derives; none
    when the ka lowest (or highest) degrees rule every mask out.
    """
    na, nb = g.left.size, g.right.size
    degrees = [row.bit_count() for row in g.rows]
    below = low + (nb - k0) * ka if low > 0 else 0
    above = high if high < k0 * ka else ka * nb
    ranked = sorted(degrees)
    if sum(ranked[:ka]) >= below and sum(ranked[na - ka:]) <= above:
        return
    width = 1 if ka < 1 << 8 else 8
    spread = [_spread_row(row, width) for row in g.rows]
    prefix = list(itertools.accumulate(degrees, initial=0))
    amask, total = (1 << ka) - 1, prefix[ka]
    while True:
        if total < below or total > above:
            packed = sum(itertools.compress(spread, _members(amask, na)))
            yield amask, sorted(_fields(packed, nb, width))
        lowest = amask & -amask
        ripple = amask + lowest
        t = lowest.bit_length() - 1
        u = (ripple & -ripple).bit_length() - 1
        if u == na:
            return
        total += degrees[u] - (prefix[u] - prefix[t]) + prefix[u - t - 1]
        amask = ripple | ((1 << (u - t - 1)) - 1)


@given(g=pruning_graphs(), data=st.data())
def test_skipped_masks_have_no_violation(g, data):
    """Soundness of the degree bound on sides up to 10: whatever the cuts,
    a mask that ``_prefix_masks`` skips has neither sum past them, so a
    scan that visits no mask would have found nothing.  The masks it
    visits come in ascending order, with the hits of the specification's
    column order, and Gosper's walk yields them alike."""
    na, nb = g.left.size, g.right.size
    ka, k0 = data.draw(st.integers(1, na)), data.draw(st.integers(1, nb))
    low = data.draw(st.integers(-1, ka * k0 + 1))
    high = data.draw(st.integers(-1, ka * k0 + 1))
    walked = list(_prefix_masks(g, ka, k0, low, high))
    assert walked == list(_gosper_masks(g, ka, k0, low, high))
    visited = dict(walked)
    assert list(visited) == sorted(visited)
    for amask in range(1, 1 << na):
        if amask.bit_count() != ka:
            continue
        hits = [h for h, _ in _spec_column_order(g, amask)]
        if amask in visited:
            assert visited.pop(amask) == hits
        else:
            assert sum(hits[:k0]) >= low and sum(hits[nb - k0:]) <= high
    assert not visited


def _scan_args(g, kind, param):
    """The floor sizes and cuts that ``_scan`` walks with, for an eps or
    a delta check."""
    if kind == "eps":
        thr, band = Threshold(param), _Band.eps(g, param)
    else:
        thr, band = _as_threshold(param), _Band.delta(g)
    ka, k0 = thr.least(g.left.size), thr.least(g.right.size)
    return (g, ka, k0) + band.limits(ka * k0)


@given(g=scan_graphs(14), eps=st.sampled_from(EPS_PARAMS),
       delta=st.sampled_from(DELTA_PARAMS))
def test_prefix_walk_yields_what_gospers_walk_yields(g, eps, delta):
    """The prefix walk skips only blocks whose every mask Gosper's walk
    skips: at sides 1-14, for the eps and the delta band, both yield the
    same (mask, sorted hits), in the same order, walked to the end."""
    for kind, param in (("eps", eps), ("delta", delta)):
        args = _scan_args(g, kind, param)
        assert list(_prefix_masks(*args)) == list(_gosper_masks(*args))


def _complement(g):
    full = (1 << g.right.size) - 1
    return BipartiteGraph.from_rows(g.left, g.right,
                                    [full ^ row for row in g.rows])


WIDE = CheckParams(mode="exhaustive", max_exhaustive_side=14)


@given(g=scan_graphs(14), eps=st.sampled_from(EPS_PARAMS))
def test_eps_status_is_kept_by_the_complement(g, eps):
    """Complementing g maps every density x to 1 - x, so |d' - d| and the
    eps status stay, and a witness for the complement is one for g."""
    got, flipped = (check_eps_regular(h, eps, WIDE)
                    for h in (g, _complement(g)))
    assert flipped.status == got.status
    if flipped.witness is not None:
        assert verify_eps_witness(g, eps, flipped.witness)


@given(g=scan_graphs(14), eps=st.sampled_from(EPS_PARAMS),
       delta=st.sampled_from(DELTA_PARAMS),
       sides=st.sampled_from([(True, False), (False, True), (True, True)]),
       seed=st.integers(0, 1 << 32))
def test_status_is_kept_by_relabelling(g, eps, delta, sides, seed):
    """Relabelling the left side, the right side or both keeps both
    statuses, and the relabelled graph's witness, mapped back, verifies
    on g."""
    rng = random.Random(seed)
    left, right = (rng.sample(range(n), n) if relabel else list(range(n))
                   for n, relabel in zip((g.left.size, g.right.size), sides))
    moved = _relabelled_graph(g, left, right)
    back_a, back_b = ({new: old for old, new in enumerate(labels)}
                      for labels in (left, right))
    for check, verify, param in ((check_eps_regular, verify_eps_witness, eps),
                                 (check_delta_regular, verify_delta_witness,
                                  delta)):
        got = check(moved, param, WIDE)
        assert got.status == check(g, param, WIDE).status
        if got.witness is not None:
            a_sub, b_sub = got.witness
            assert verify(g, param, ([back_a[a] for a in a_sub],
                                     [back_b[b] for b in b_sub]))


@pytest.mark.parametrize("na", [256, 257])
def test_left_masks_at_the_field_width_edge(na):
    """Hits fit one-byte fields below 256 vertices a mask and take
    eight-byte fields from 256 on.  Masks of ka = na - 1 vertices, with
    column 0 full, so that its hits reach ka on both sides of the edge:
    every mask is visited, in ascending order, with the hits of the
    specification's column order, by either walk."""
    rng = random.Random(na)
    g = BipartiteGraph.from_rows(
        VertexClass(0, na), VertexClass(1, 5),
        [1 | sum(1 << b for b in range(1, 5) if rng.random() < 0.5)
         for _ in range(na)])
    ka = na - 1
    visited = list(_prefix_masks(g, ka, 1, ka + 1, -1))
    assert list(_gosper_masks(g, ka, 1, ka + 1, -1)) == visited
    assert [amask for amask, _ in visited] == sorted(
        ((1 << na) - 1) ^ (1 << v) for v in range(na))
    for amask, hits in visited:
        assert hits == [h for h, _ in _spec_column_order(g, amask)]
        assert hits[-1] == ka


# One unit past both early exits' cross-multiplied tests, and irregular
# at both parameters.
@example(g=_graph(1, 2, [(0, 1)]), eps=Fraction(1, 3),
         delta=Fraction(1, 2))
@given(g=pruning_graphs(), eps=st.sampled_from(EPS_PARAMS),
       delta=st.sampled_from(DELTA_PARAMS))
def test_density_bounds_rule_out_only_regular_pairs(g, eps, delta):
    """Soundness of the capped bound on sides up to 10: when a randomized
    check returns without searching, the oracle scan certifies."""
    params = CheckParams(mode="randomized", random_trials=1)
    for check, scan, value in [
            (check_eps_regular, _spec_scan_eps, eps),
            (check_delta_regular, _spec_scan_delta, _as_threshold(delta))]:
        with mock.patch.object(regcheck, "_random_search",
                               wraps=regcheck._random_search) as search:
            check(g, value, params)
        if not search.called:
            assert scan(g, value)[0] is None


@st.composite
def small_graphs(draw):
    """A bipartite graph with sides of 1-7 vertices and any edge set."""
    na, nb = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(na) for b in range(nb)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return BipartiteGraph(VertexClass(0, na), VertexClass(1, nb),
                          itertools.compress(pairs, keep))


@pytest.mark.parametrize("check, verify, values", [
    (check_eps_regular, verify_eps_witness,
     (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))),
    (check_delta_regular, verify_delta_witness,
     (Fraction(1, 4), Fraction(1, 2), Threshold.sqrt_of(Fraction(1, 4)))),
], ids=["eps", "delta"])
@given(g=small_graphs(), data=st.data(),
       mode=st.sampled_from(["exhaustive", "randomized"]),
       trials=st.integers(1, 16), seed=st.integers(0, 1 << 16))
def test_every_witness_reverifies(check, verify, values, g, data, mode,
                                  trials, seed):
    """An irregular verdict, from either search, carries a witness that
    the verifier accepts; no other verdict carries one."""
    value = data.draw(st.sampled_from(values))
    v = check(g, value, CheckParams(mode=mode, random_trials=trials,
                                    seed=seed))
    assert (v.witness is not None) == (v.status == IRREGULAR)
    if v.witness is not None:
        assert verify(g, value, v.witness)


# ``check_delta_partition_with_edits`` as it was when its low-density test
# built Fractions, with a branch per threshold kind, kept verbatim as the
# oracle for the test below.  It counted an unknown pair as a failure at
# both checks; the test allows for that.


def _ref_check_delta_partition_with_edits(g: BipartiteGraph,
                                          left_p: VertexPartition,
                                          right_p: VertexPartition,
                                          delta: ThresholdLike,
                                          params: CheckParams = CheckParams()
                                          ) -> EditResult:
    thr = _as_threshold(delta)
    first = check_perfect_delta_partition(g, left_p, right_p, thr, params)
    if first.status == CERTIFIED:
        return EditResult(PERFECT, (), 0, first.pair_verdicts)
    budget_num = thr.num * g.edge_count
    d_global = density(g)
    edits: list[tuple[int, int]] = []
    kept = set(g.edges)
    for key, a_sub, b_sub in _iter_cluster_pairs(g, left_p, right_p):
        v = first.pair_verdicts[key]
        if v.status != IRREGULAR:
            continue
        amask = subset_mask(a_sub, g.left.size)
        bmask = subset_mask(b_sub, g.right.size)
        e_pair = count_edges_between(g, amask, bmask)
        pair_density = Fraction(e_pair, len(a_sub) * len(b_sub))
        if thr.is_sqrt:
            low = pair_density * pair_density < \
                Fraction(thr.num, thr.den) * d_global * d_global
        else:
            low = pair_density < Fraction(thr.num, thr.den) * d_global
        if low:
            for a in a_sub:
                for b in iter_bits(g.rows[a] & bmask):
                    edits.append((a, b))
                    kept.discard((a, b))
    # Budget: |edits| <= delta * e(g), exact comparison.
    if thr.is_sqrt:
        within = len(edits) ** 2 * thr.den <= thr.num * g.edge_count ** 2
    else:
        within = len(edits) * thr.den <= budget_num
    if not edits or not within:
        return EditResult(NOT_CERTIFIED, (), 0, first.pair_verdicts)
    edited = BipartiteGraph(g.left, g.right, kept)
    second = check_perfect_delta_partition(edited, left_p, right_p, thr,
                                           params)
    if second.status == CERTIFIED:
        return EditResult(AFTER_EDITS, tuple(sorted(edits)), len(edits),
                          second.pair_verdicts)
    return EditResult(NOT_CERTIFIED, (), 0, second.pair_verdicts)


def _planted_partition(rng, na: int, nb: int):
    """Sides cut into 1-3 clusters each; every cluster pair gets its own
    edge probability, so that sparse irregular pairs sit next to dense
    regular ones."""
    left = VertexPartition.from_labels(VertexClass(0, na), sorted(
        rng.randrange(rng.randint(1, 3)) for _ in range(na)))
    right = VertexPartition.from_labels(VertexClass(1, nb), sorted(
        rng.randrange(rng.randint(1, 3)) for _ in range(nb)))
    lab_a, lab_b = left.labels(), right.labels()
    prob: dict[tuple[int, int], float] = {}
    edges = []
    for a in range(na):
        for b in range(nb):
            p = prob.setdefault((lab_a[a], lab_b[b]),
                                rng.choice([.1, .2, .5, .9, 1.]))
            if rng.random() < p:
                edges.append((a, b))
    return (BipartiteGraph(VertexClass(0, na), VertexClass(1, nb), edges),
            left, right)


def test_partition_with_edits_matches_reference():
    """Rational and square-root deltas, exhaustive and randomized
    searches; every outcome occurs for both kinds.  The verdicts always
    agree with the oracle, and so does the whole ``EditResult`` when no
    final verdict is unknown.  Otherwise unknown pairs count as regular:
    the status is NotCertified exactly when an irregular pair is left."""
    rng = random.Random(301)
    outcomes = set()
    for _ in range(400):
        g, left, right = _planted_partition(rng, rng.randint(2, 9),
                                            rng.randint(2, 9))
        delta = rng.choice(DELTA_PARAMS)
        params = CheckParams(mode=rng.choice(["exhaustive", "randomized"]),
                             random_trials=rng.randint(1, 8),
                             seed=rng.randrange(1 << 16))
        got = check_delta_partition_with_edits(g, left, right, delta, params)
        want = _ref_check_delta_partition_with_edits(
            g, left, right, delta, params)
        assert got.pair_verdicts == want.pair_verdicts
        final = {v.status for v in got.pair_verdicts.values()}
        if UNKNOWN not in final:
            assert got == want
        else:
            assert (got.status == NOT_CERTIFIED) == (IRREGULAR in final)
        outcomes.add((got.status, isinstance(delta, Threshold)))
    assert outcomes == {(status, kind)
                        for status in (PERFECT, AFTER_EDITS, NOT_CERTIFIED)
                        for kind in (False, True)}


# ---------------------------------------------------------------------------
# Reference: the two exhaustive scans, the two witness checks and the degree
# profile as they were when each wrote out its own density inequality,
# before one band decided both notions; kept verbatim (renamed only) as the
# oracle for the band.

def _ref4_scan_delta(g: BipartiteGraph, thr: Threshold
                ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]],
                           int]:
    """Exhaustive one-sided scan: first (A', B') with d' < d/2, if any.

    Witness order is canonical: left masks ascending as integers, then
    right-subset size ascending; within a size the minimizing columns
    (ties to the lowest index) are taken.  Returns (witness or None,
    number of left masks covered): the masks m in [1, W] with at least ka
    vertices, W the witness mask or 2**|A| - 1, counted exactly although
    only some of those with exactly ka vertices are visited (see
    ``_gosper_masks``); 0 when g has no edges.

    Only the least admissible sizes are tested.  On the right, k0: the
    mean of the k smallest hits never falls as k grows, so if some k gives
    d' < d/2, k0 does too, and k0 is the first size in the canonical
    order.  On the left, ka: if A' with more than ka vertices violates
    with B', its ka rows with the fewest hits into B' violate too, and
    they form a smaller mask, so the first violating mask has ka bits.
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    if e_full == 0:
        # d = 0 and every induced density is >= 0 = d/2.
        return None, 0
    ka, k0 = thr.least(na), thr.least(nb)
    # d' < d/2  <=>  2 * e' * na * nb < e_full * ka * k0  <=>  e' < low
    low = -(-e_full * ka * k0 // (2 * na * nb))
    # No k0 hits exceed k0 * ka: there is no high side to test.
    for amask, hits in _gosper_masks(g, ka, k0, low, k0 * ka):
        if sum(hits[:k0]) < low:
            return (_scan_witness(g, amask, k0, False),
                    _masks_covered(ka, amask))
    return None, _masks_covered(ka, (1 << na) - 1)


def _ref4_scan_eps(g: BipartiteGraph, eps: Fraction
              ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]],
                         int]:
    """Exhaustive two-sided scan: first (A', B') with |d' - d| > eps.

    Same canonical order and count of masks covered as ``_ref4_scan_delta``;
    within a size the low side (the k smallest columns) is tried before
    the high side, which takes the last k pairs of the ascending (hits,
    column) order, so its ties go to the highest index.  As there, only
    the least admissible sizes are tested: the mean of the k smallest hits
    never falls and that of the k largest never rises as k grows, and the
    ka rows of a violating A' with the fewest (on the high side the most)
    hits into B' violate on the same side.
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    p, q = eps.numerator, eps.denominator
    thr = Threshold(eps)
    ka, k0 = thr.least(na), thr.least(nb)
    # With e' the edges to the k0 chosen columns, d - d' > eps and
    # d' - d > eps, multiplied out by ka * k0 * na * nb * q, are
    # e' < low and e' > high:
    nnq = na * nb * q
    low = -(-ka * k0 * (e_full * q - p * na * nb) // nnq)
    high = ka * k0 * (e_full * q + p * na * nb) // nnq
    for amask, hits in _gosper_masks(g, ka, k0, low, high):
        if sum(hits[:k0]) < low:
            return (_scan_witness(g, amask, k0, False),
                    _masks_covered(ka, amask))
        if sum(hits[nb - k0:]) > high:
            return (_scan_witness(g, amask, k0, True),
                    _masks_covered(ka, amask))
    return None, _masks_covered(ka, (1 << na) - 1)

def _ref4_verify_eps_witness(g: BipartiteGraph, eps: Fraction,
                       witness: tuple[Sequence[int], Sequence[int]]) -> bool:
    """Exact recheck that a claimed eps-witness violates the definition."""
    a_sub, b_sub = witness
    amask = subset_mask(a_sub, g.left.size, "left")
    bmask = subset_mask(b_sub, g.right.size, "right")
    ka, kb = amask.bit_count(), bmask.bit_count()
    na, nb = g.left.size, g.right.size
    if ka == 0 or kb == 0:
        return False
    thr = Threshold(eps)
    if not thr.floor_ok(ka, na) or not thr.floor_ok(kb, nb):
        return False
    e = count_edges_between(g, amask, bmask)
    dev = abs(e * na * nb - g.edge_count * ka * kb)
    return dev * eps.denominator > eps.numerator * ka * kb * na * nb


def _ref4_verify_delta_witness(g: BipartiteGraph, delta: ThresholdLike,
                         witness: tuple[Sequence[int], Sequence[int]]) -> bool:
    """Exact recheck that a claimed delta-witness violates the definition."""
    thr = _as_threshold(delta)
    a_sub, b_sub = witness
    amask = subset_mask(a_sub, g.left.size, "left")
    bmask = subset_mask(b_sub, g.right.size, "right")
    ka, kb = amask.bit_count(), bmask.bit_count()
    na, nb = g.left.size, g.right.size
    if ka == 0 or kb == 0:
        return False
    if not thr.floor_ok(ka, na) or not thr.floor_ok(kb, nb):
        return False
    e = count_edges_between(g, amask, bmask)
    return 2 * e * na * nb < g.edge_count * ka * kb

def _ref4_degree_profile(g: BipartiteGraph, y_sub: Iterable[int], eps: Fraction
                   ) -> tuple[int, tuple[int, ...]]:
    """Vertices of X whose degree into Y' leaves (d(X, Y) +- eps)|Y'|.

    Returns (count, sorted exceptional set); the membership test is exact.
    """
    eps = Fraction(eps)
    ymask = subset_mask(y_sub, g.right.size, "right")
    ky = ymask.bit_count()
    if ky == 0:
        raise DegenerateInput("degree profile over an empty subset")
    d = density(g)
    lo = (d - eps) * ky
    hi = (d + eps) * ky
    exceptional = tuple(x for x in range(g.left.size)
                        if not lo <= (g.rows[x] & ymask).bit_count() <= hi)
    return len(exceptional), exceptional


def _ref4_verdict(g, kind, param, params):
    """The verdict of the check functions of that time: the scans above in
    exhaustive mode, with a delta check of an edgeless graph certified at
    once; the reference searches otherwise."""
    if kind == "delta" and g.edge_count == 0:
        return Verdict(CERTIFIED, "Exhaustive", None, {"left_masks": 0})
    if params.mode != "exhaustive":
        return ref_verdict(g, kind, param, params)
    if kind == "eps":
        witness, covered = _ref4_scan_eps(g, param)
    else:
        witness, covered = _ref4_scan_delta(g, _as_threshold(param))
    return Verdict.of_search("exhaustive", witness, {"left_masks": covered})


@st.composite
def band_graphs(draw):
    """Sides of 1-8 vertices, empty, complete or of a drawn density."""
    na, nb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    p = draw(st.sampled_from([0, .2, .5, .8, .95, 1]))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    return _graph(na, nb, [(a, b) for a in range(na) for b in range(nb)
                           if rng.random() < p])


# Rational values p/q in (0, 1]; a threshold is one of them or its root.
unit_fractions = st.builds(lambda q, p: Fraction(p % q + 1, q),
                           st.integers(1, 12), st.integers(0, 11))
thresholds = st.one_of(unit_fractions,
                       unit_fractions.map(Threshold.sqrt_of))


@example(g=_graph(2, 2, []), eps=Fraction(1), delta=Fraction(1, 2),
         mode="randomized")
@example(g=_graph(3, 2, [(a, b) for a in range(3) for b in range(2)]),
         eps=Fraction(1, 12), delta=Threshold.sqrt_of(Fraction(1, 12)),
         mode="exhaustive")
@given(g=band_graphs(), eps=unit_fractions, delta=thresholds,
       mode=st.sampled_from(["exhaustive", "randomized"]))
def test_band_checks_match_the_two_inequalities(g, eps, delta, mode):
    """The one band gives the whole verdict of the scans that wrote out
    each notion's inequality, and of the reference searches; every
    witness is accepted by both witness checks."""
    params = CheckParams(mode=mode, random_trials=3, seed=7)
    for kind, check, verify, ref_verify, value in [
            ("eps", check_eps_regular, verify_eps_witness,
             _ref4_verify_eps_witness, eps),
            ("delta", check_delta_regular, verify_delta_witness,
             _ref4_verify_delta_witness, delta)]:
        got = check(g, value, params)
        assert got == _ref4_verdict(g, kind, value, params)
        if got.witness is not None:
            assert verify(g, value, got.witness)
            assert ref_verify(g, value, got.witness)


@given(g=band_graphs(), eps=st.fractions(0, 1, max_denominator=12),
       delta=thresholds, data=st.data())
def test_band_witness_checks_match_the_two_inequalities(g, eps, delta, data):
    """On any pair, empty sides and pairs below the size floors included,
    and eps from 0 to 1, both witness checks answer as before."""
    na, nb = g.left.size, g.right.size
    witness = (data.draw(st.sets(st.integers(0, na - 1))),
               data.draw(st.sets(st.integers(0, nb - 1))))
    assert verify_eps_witness(g, eps, witness) == \
        _ref4_verify_eps_witness(g, eps, witness)
    assert verify_delta_witness(g, delta, witness) == \
        _ref4_verify_delta_witness(g, delta, witness)


@given(g=band_graphs(), eps=st.fractions(0, 1, max_denominator=12),
       data=st.data())
def test_degree_profile_matches_the_fraction_bounds(g, eps, data):
    y_sub = data.draw(st.sets(st.integers(0, g.right.size - 1), min_size=1))
    assert degree_profile(g, y_sub, eps) == \
        _ref4_degree_profile(g, y_sub, eps)


@pytest.mark.parametrize("call", [
    # An index out of range before a negative eps, and an empty side
    # before it: eps is checked only on a pair that could be a witness.
    lambda verify: verify(_graph(2, 2, [(0, 0)]), Fraction(-1, 2),
                          ((0, 5), (0,))),
    lambda verify: verify(_graph(2, 2, [(0, 0)]), Fraction(-1, 2),
                          ((), (0,))),
    lambda verify: verify(_graph(2, 2, [(0, 0)]), Fraction(-1, 2),
                          ((0,), (0,))),
], ids=["index", "empty", "negative"])
@pytest.mark.parametrize("verify, ref_verify", [
    (verify_eps_witness, _ref4_verify_eps_witness),
    (verify_delta_witness, _ref4_verify_delta_witness),
], ids=["eps", "delta"])
def test_witness_check_errors_come_in_the_same_order(call, verify,
                                                     ref_verify):
    def outcome(f):
        try:
            return call(f)
        except (IndexError, ParameterOutOfContract) as exc:
            return type(exc)
    assert outcome(verify) == outcome(ref_verify)


def test_degree_profile_errors_as_before():
    g = _graph(2, 3, [(0, 0)])
    for profile in (degree_profile, _ref4_degree_profile):
        with pytest.raises(DegenerateInput):
            profile(g, [], Fraction(1, 4))
        with pytest.raises(IndexError):
            profile(g, [3], Fraction(1, 4))


def test_degree_profile_refuses_a_negative_eps():
    """A negative eps raises after the index and empty-subset checks, as
    the witness checks order theirs; eps = 0 stays allowed."""
    g = _graph(3, 3, [(0, 0), (1, 1), (2, 2)])
    below = Fraction(-1, 10)
    with pytest.raises(IndexError):
        degree_profile(g, [3], below)
    with pytest.raises(DegenerateInput):
        degree_profile(g, [], below)
    with pytest.raises(ParameterOutOfContract, match="^eps must be "
                       "nonnegative$"):
        degree_profile(g, [0, 1, 2], below)
    assert degree_profile(g, [0, 1, 2], Fraction(0)) == (0, ()) == \
        _ref4_degree_profile(g, [0, 1, 2], Fraction(0))


@given(na=st.integers(1, 9), nb=st.integers(1, 9), data=st.data(),
       eps=unit_fractions)
def test_band_matches_the_inequalities_it_replaced(na, nb, data, eps):
    """Each band method against the inequality it replaced, as that was
    written in the walks, the witness checks, the scans and the density
    bound tests, on small integers where every boundary is met."""
    e_full = data.draw(st.integers(0, na * nb))
    g = _graph(na, nb, list(itertools.product(range(na), range(nb)))[:e_full])
    ka, k0 = data.draw(st.integers(1, na)), data.draw(st.integers(1, nb))
    k = ka * k0
    e2 = data.draw(st.integers(0, k))
    lo = data.draw(st.integers(0, k))
    hi = data.draw(st.integers(lo, k))
    p, q, nn = eps.numerator, eps.denominator, na * nb
    delta, two = _Band.delta(g), _Band.eps(g, eps)
    assert delta.violates(e2, k) == (2 * e2 * na * nb < e_full * ka * k0)
    assert two.violates(e2, k) == (
        abs(e2 * nn - e_full * k) * q > p * k * nn)
    assert delta.limits(k)[0] == -(-e_full * ka * k0 // (2 * na * nb))
    nnq = na * nb * q
    assert two.limits(k) == (-(-ka * k0 * (e_full * q - p * na * nb) // nnq),
                             ka * k0 * (e_full * q + p * na * nb) // nnq)
    assert delta.excludes(lo, hi, k) == (
        2 * lo * g.left.size * g.right.size >= g.edge_count * k)
    assert two.excludes(lo, hi, k) == (
        max(e_full * k - lo * nn, hi * nn - e_full * k) * eps.denominator
        <= eps.numerator * k * nn)
