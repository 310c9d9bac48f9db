"""The kernels against independent oracles: a brute-force triangle count
and the previous edge-loop count, the plain subtriad walk that visits every
state and the previous subtriad kernel, brute-force subset sums and the
subtriad predicates cell by cell, and the previous octahedron kernel with
the literal six-index sum."""
import random
from fractions import Fraction
from functools import reduce
from itertools import compress, product
from operator import and_, gt, mul, or_
from typing import Optional, Sequence

from hypothesis import given
from hypothesis import strategies as st

from regkit import hyperreg, kernels
from regkit.graphs import BipartiteGraph, ThreeGraph, Triad, VertexClass


def _random_rows(rng, n_left, n_right, p):
    return [sum(1 << b for b in range(n_right) if rng.random() < p)
            for _ in range(n_left)]


def _random_triad_rows(rng, n, p=0.5):
    return (_random_rows(rng, n, n, p), _random_rows(rng, n, n, p),
            _random_rows(rng, n, n, p))


def _reference_scan_subtriads(ab_edges: Sequence[tuple[int, int]],
                              ac_edges: Sequence[tuple[int, int]],
                              bc_edges: Sequence[tuple[int, int]],
                              n_a: int, n_b: int, n_c: int,
                              h_amask: Sequence[int],
                              mode: int, num: int, den: int
                              ) -> tuple[Optional[tuple[int, int, int, int,
                                                        int]], int]:
    """The plain scan: a Gray walk over every BC subset of every (AB, AC)
    pair, with no block skipped.  Kept as the oracle for witness order and
    state count."""
    m1, m2, m3 = len(ab_edges), len(ac_edges), len(bc_edges)

    col_ab_full = [0] * n_b
    for a, b in ab_edges:
        col_ab_full[b] |= 1 << a
    col_ac_full = [0] * n_c
    for a, c in ac_edges:
        col_ac_full[c] |= 1 << a
    t_full = 0
    e_full = 0
    for b, c in bc_edges:
        am = col_ab_full[b] & col_ac_full[c]
        t_full += am.bit_count()
        e_full += (am & h_amask[b * n_c + c]).bit_count()

    if mode == 0:
        def violated(t: int, e: int) -> bool:
            return t * den >= num * t_full and 3 * e * t_full < 2 * e_full * t
    else:
        def violated(t: int, e: int) -> bool:
            return (t * den >= num * t_full
                    and abs(e * t_full - e_full * t) * den > num * t_full * t)

    states = 0
    for abm in range(1 << m1):
        col_ab = [0] * n_b
        rest = abm
        while rest:
            low = rest & -rest
            a, b = ab_edges[low.bit_length() - 1]
            rest ^= low
            col_ab[b] |= 1 << a
        for acm in range(1 << m2):
            col_ac = [0] * n_c
            rest = acm
            while rest:
                low = rest & -rest
                a, c = ac_edges[low.bit_length() - 1]
                rest ^= low
                col_ac[c] |= 1 << a
            # Gray walk over BC subsets, maintaining (t, e) incrementally.
            t = 0
            e = 0
            bcm = 0
            states += 1
            if violated(t, e):
                return (abm, acm, bcm, t, e), states
            for g in range(1, 1 << m3):
                k = (g & -g).bit_length() - 1
                bit = 1 << k
                bcm ^= bit
                b, c = bc_edges[k]
                am = col_ab[b] & col_ac[c]
                cnt = am.bit_count()
                hcnt = (am & h_amask[b * n_c + c]).bit_count()
                if bcm & bit:
                    t += cnt
                    e += hcnt
                else:
                    t -= cnt
                    e -= hcnt
                states += 1
                if violated(t, e):
                    return (abm, acm, bcm, t, e), states
    return None, states


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_scan_witness_canonical_order_regression():
    """A scan once reported the loop counter one step past the detected AC
    mask; the scan must return the mask where the violation was actually
    found."""
    rng = random.Random(20240)
    for _ in range(150):
        n = 2
        ab = [(a, b) for a in range(n) for b in range(n)
              if rng.random() < .8]
        ac = [(a, c) for a in range(n) for c in range(n)
              if rng.random() < .8]
        bc = [(b, c) for b in range(n) for c in range(n)
              if rng.random() < .8]
        hma = [sum(1 << c for c in range(n) if rng.random() < .4)
               for _ in range(n * n)]
        want = _reference_scan_subtriads(ab, ac, bc, n, n, n, hma, 1, 1, 2)
        got = kernels.scan_subtriads(ab, ac, bc, n, n,
                                     [hma[b * n + c] for b, c in bc], 1, 1, 2)
        assert got[0] == want[0]


SCAN_FRACTIONS = ((1, 100), (1, 4), (1, 3), (1, 2), (2, 3), (1, 1))


def _random_scan_instance(rng, max_edges=12):
    """Edge lists of a random n x n x n triad with at most ``max_edges``
    edges, and hyperedge masks that are random or, half the time, miss
    every triangle on a random set of AB edges (which plants witnesses)."""
    n = rng.randint(1, 4)
    p = rng.choice([.5, .8, 1.])
    edges = [[(u, v) for u in range(n) for v in range(n) if rng.random() < p]
             for _ in range(3)]
    while sum(map(len, edges)) > max_edges:
        side = max(edges, key=len)
        side.pop(rng.randrange(len(side)))
    ab, ac, bc = edges
    if rng.random() < .5:
        q = rng.random()
        hma = [sum(1 << a for a in range(n) if rng.random() < q)
               for _ in range(n * n)]
    else:
        off = {e for e in ab if rng.random() < .4}
        hma = [sum(1 << a for a in range(n) if (a, b) not in off)
               for b in range(n) for c in range(n)]
    return ab, ac, bc, n, n, n, hma


def test_scan_subtriads_matches_plain_walk():
    rng = random.Random(15)
    witnesses = 0
    for _ in range(60):
        args = _random_scan_instance(rng)
        ab, ac, bc, n, _, _, hma = args
        bc_h = [hma[b * n + c] for b, c in bc]
        for mode in (0, 1):
            for num, den in SCAN_FRACTIONS:
                want = _reference_scan_subtriads(*args, mode, num, den)
                assert kernels.scan_subtriads(ab, ac, bc, n, n, bc_h, mode,
                                              num, den) == want
                witnesses += want[0] is not None
    assert witnesses >= 50


def test_scan_subtriads_without_triangles():
    # Edges on all three sides but no triangle: t_full == 0.
    ab = [(0, 0), (1, 1)]
    ac = [(0, 1), (1, 0)]
    bc = [(0, 0), (1, 1)]
    hma = [0b11] * 4
    for mode in (0, 1):
        for num, den in SCAN_FRACTIONS:
            got = kernels.scan_subtriads(ab, ac, bc, 2, 2,
                                         [hma[b * 2 + c] for b, c in bc],
                                         mode, num, den)
            assert got == (None, 1 << 6)
            assert got == _reference_scan_subtriads(ab, ac, bc, 2, 2, 2, hma,
                                                    mode, num, den)


def test_scan_subtriads_every_triangle_a_hyperedge():
    # Every subtriad has density 1, so every block is skipped.
    n = 2
    ab = [(a, b) for a in range(n) for b in range(n)]
    ac = [(a, c) for a in range(n) for c in range(n)]
    bc = [(b, c) for b in range(n) for c in range(n)][:3]
    hma = [(1 << n) - 1] * (n * n)
    for mode in (0, 1):
        for num, den in SCAN_FRACTIONS:
            got = kernels.scan_subtriads(ab, ac, bc, n, n,
                                         [hma[b * n + c] for b, c in bc],
                                         mode, num, den)
            assert got == (None, 1 << 11)
            assert got == _reference_scan_subtriads(ab, ac, bc, n, n, n, hma,
                                                    mode, num, den)


def test_scan_subtriads_planted_witness():
    # The triangles on AB edge (0, 0) miss the 3-graph, so the subtriad on
    # that edge alone has density 0 while the triad's is 3/4.
    n = 2
    ab = [(a, b) for a in range(n) for b in range(n)]
    ac = [(a, c) for a in range(n) for c in range(n)]
    bc = [(0, 0), (1, 1)]
    hma = [0b10, 0b11, 0b11, 0b11]
    for mode in (0, 1):
        want = _reference_scan_subtriads(ab, ac, bc, n, n, n, hma, mode, 1, 4)
        assert want[0] is not None
        assert kernels.scan_subtriads(ab, ac, bc, n, n,
                                      [hma[b * n + c] for b, c in bc],
                                      mode, 1, 4) == want


# ``kernels.scan_subtriads`` as it was before blocks were decided from
# packed counts and subset sums, kept verbatim but for its name as the
# oracle for the tests below.


def _ref2_scan_subtriads(ab_edges: Sequence[tuple[int, int]],
                         ac_edges: Sequence[tuple[int, int]],
                         bc_edges: Sequence[tuple[int, int]],
                         n_b: int, n_c: int, bc_h: Sequence[int],
                         mode: int, num: int, den: int
                         ) -> tuple[Optional[tuple[int, int, int, int,
                                                   int]], int]:
    """Enumerate every subtriad and report the first predicate violation.

    Subtriads are all subsets of the three edge lists.  ``bc_h[k]`` is the
    bitmask of A-vertices a with (a, b, c) a hyperedge triangle of the full
    triad, for BC edge ``bc_edges[k]`` = (b, c).  Marking hyperedges off
    the triangles too would change no answer: every use masks the entry
    with ``col_ab_full[b] & col_ac_full[c]`` or a subset of it.
    With the full triad carrying ``t_full`` triangles and ``e_full``
    hyperedge triangles, a subtriad with counts (t, e) violates, for
    ``den`` > 0:

    * mode 0: t*den >= num*t_full and 3*e*t_full < 2*e_full*t
      (triangle-heavy subtriad loses more than a third of the density);
    * mode 1: t*den >= num*t_full and |e*t_full - e_full*t|*den > num*t_full*t
      (triangle-heavy subtriad deviates by more than num/den in density).

    Both second conditions say that (t, e) lies outside the band
    lo*t <= q*e <= hi*t: mode 0 has q = hi = 3*t_full and lo = 2*e_full
    (q*e <= hi*t always holds, as e <= t), mode 1 has q = t_full*den and
    lo, hi = e_full*den -+ num*t_full.

    Subtriads are visited in AB mask order, then AC mask order, then the
    Gray order of the BC mask, so each (AB, AC) pair is a block of
    2^len(bc_edges) consecutive states.  Within a block, BC edge k adds a
    fixed c_k triangles and h_k hyperedge triangles to every subset that
    holds it, so t and e are sums over the chosen edges, and the band, a
    cone, holds every such sum if it holds every (c_k, h_k).  Blocks are
    skipped without a walk where no violation can lie:

    * a block, when all c_k together stay below the heaviness bound, or
      when every (c_k, h_k) lies in the band;
    * a whole AB row, when all of its AC edges together stay below the
      bound, or when the band holds every (c_k, h_k) its blocks can reach.
      Those are the points with h/c between 0 (only triangles off the
      3-graph) and 1 (only hyperedge triangles), so the band holds them
      iff it holds (1, 0) wherever the row has a triangle off the 3-graph
      and (1, 1) wherever it has a hyperedge triangle.

    The plain walk would pass every state of a skipped block without
    returning, so those states are counted as examined: witness and state
    count are those of the walk over every block.

    Returns ((ab_mask, ac_mask, bc_mask, t, e) or None, states_examined).
    The scan is exhaustive iff the first component is None.
    """
    m1, m2, m3 = len(ab_edges), len(ac_edges), len(bc_edges)

    col_ab_full = [0] * n_b
    for a, b in ab_edges:
        col_ab_full[b] |= 1 << a
    col_ac_full = [0] * n_c
    for a, c in ac_edges:
        col_ac_full[c] |= 1 << a
    t_full = 0
    e_full = 0
    for (b, c), h in zip(bc_edges, bc_h):
        am = col_ab_full[b] & col_ac_full[c]
        t_full += am.bit_count()
        e_full += (am & h).bit_count()
    if t_full == 0:
        # Every subtriad has t = e = 0, which violates neither predicate.
        return None, 1 << (m1 + m2 + m3)

    need = num * t_full
    t_min = -(-need // den)  # t*den >= need  <=>  t >= t_min
    if mode == 0:
        q = hi = 3 * t_full
        lo = 2 * e_full
    else:
        q = t_full * den
        lo = e_full * den - need
        hi = e_full * den + need
    bc_b = [b for b, _ in bc_edges]
    bc_c = [c for _, c in bc_edges]
    bc_nh = [~h for h in bc_h]
    zero_in_band = lo <= 0
    one_in_band = q <= hi
    ac_all = [col_ac_full[c] for c in bc_c]
    block = 1 << m3
    states = 0
    for abm in range(1 << m1):
        col_ab = [0] * n_b
        rest = abm
        while rest:
            low = rest & -rest
            a, b = ab_edges[low.bit_length() - 1]
            rest ^= low
            col_ab[b] |= 1 << a
        ab_k = [col_ab[b] for b in bc_b]
        # row[k]: the A-vertices that BC edge k can reach in this row.
        row = list(map(and_, ab_k, ac_all))
        if (sum(map(int.bit_count, row)) < t_min
                or ((zero_in_band or not any(map(and_, row, bc_nh)))
                    and (one_in_band or not any(map(and_, row, bc_h))))):
            states += block << m2
            continue
        for acm in range(1 << m2):
            col_ac = [0] * n_c
            rest = acm
            while rest:
                low = rest & -rest
                a, c = ac_edges[low.bit_length() - 1]
                rest ^= low
                col_ac[c] |= 1 << a
            ams = list(map(and_, ab_k, [col_ac[c] for c in bc_c]))
            cnt = list(map(int.bit_count, ams))
            if sum(cnt) < t_min:
                states += block
                continue
            hcnt = list(map(int.bit_count, map(and_, ams, bc_h)))
            # Walk only if some (c_k, h_k) has lo*c_k > q*h_k or
            # q*h_k > hi*c_k.
            qh = list(map(q.__mul__, hcnt))
            if not (any(map(gt, map(lo.__mul__, cnt), qh))
                    or any(map(gt, qh, map(hi.__mul__, cnt)))):
                states += block
                continue
            # Gray walk over BC subsets, maintaining (t, e) incrementally;
            # the empty subset violates neither predicate.
            t = e = 0
            bcm = 0
            for g in range(1, block):
                k = (g & -g).bit_length() - 1
                bit = 1 << k
                bcm ^= bit
                if bcm & bit:
                    t += cnt[k]
                    e += hcnt[k]
                else:
                    t -= cnt[k]
                    e -= hcnt[k]
                if t >= t_min and not lo * t <= q * e <= hi * t:
                    return (abm, acm, bcm, t, e), states + g + 1
            states += block
    return None, states


# Fractions num/den for the scan: num = 0 makes every subtriad heavy, and
# num = den only those that keep every triangle.
SCAN_PARAMS = ((0, 1), (1, 100), (1, 4), (1, 3), (1, 2), (2, 3), (1, 1),
               (5, 5))
# Every A-vertex below 20, and stray bits at and above any n_a.
ALL_A = (1 << 24) - 1


def _assert_scans_agree(ab, ac, bc, n_b, n_c, bc_h, mode, num, den):
    """The scan against the previous kernel and the plain walk, whole
    results; returns the result."""
    got = kernels.scan_subtriads(ab, ac, bc, n_b, n_c, bc_h, mode, num, den)
    assert got == _ref2_scan_subtriads(ab, ac, bc, n_b, n_c, bc_h, mode,
                                       num, den)
    hma = [0] * (n_b * n_c)
    for (b, c), h in zip(bc, bc_h):
        hma[b * n_c + c] = h
    assert got == _reference_scan_subtriads(ab, ac, bc, 20, n_b, n_c, hma,
                                            mode, num, den)
    return got


@st.composite
def _scan_inputs(draw):
    """A triad with A-labels below 20, so that a field of the packed scan
    takes one to three bytes, sides B and C of up to 5 and at most 12
    edges, among three A-labels and two labels of B and of C so that they
    close triangles.  The hyperedge masks hold random triangles, or every
    triangle but those on the first, a middle or the last AB edge that
    carries one, which plants a witness early, midway or late in the
    scan; and stray bits 20-23."""
    n_b = draw(st.integers(1, 5))
    n_c = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 1 << 32)))

    def labels(n, most):
        return rng.sample(range(n), min(n, rng.randint(1, most)))

    def edges(left, right):
        pairs = [(u, v) for u in left for v in right]
        return rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))

    a_set, b_set, c_set = labels(20, 3), labels(n_b, 2), labels(n_c, 2)
    ab, ac, bc = edges(a_set, b_set), edges(a_set, c_set), edges(b_set, c_set)
    a_of = {b: sum(1 << a for a, c in ac if (b, c) in bc) for b in b_set}
    closing = [(a, b) for a, b in ab if a_of[b] >> a & 1]
    plant = draw(st.sampled_from((None, 0, 1, 2)))
    if plant is None or not closing:
        bc_h = [sum(1 << a for a in a_set if rng.random() < .5) for _ in bc]
    else:
        a_off, b_off = closing[(len(closing) - 1) * plant // 2]
        bc_h = [ALL_A ^ 1 << a_off if b == b_off else ALL_A for b, _ in bc]
    bc_h = [h | rng.randrange(16) << 20 for h in bc_h]
    mode = draw(st.sampled_from((0, 1)))
    num, den = draw(st.sampled_from(SCAN_PARAMS))
    return ab, ac, bc, n_b, n_c, bc_h, mode, num, den


@given(_scan_inputs())
def test_scan_subtriads_matches_previous_kernel_property(args):
    _assert_scans_agree(*args)


def test_scan_subtriads_planted_witness_blocks():
    """A-labels 9 and 17 take two-byte fields.  The triangles on AB edge j
    alone miss the 3-graph, so in mode 0 the first block that holds a
    violation is the first with AB mask 1 << j: every earlier block keeps
    only hyperedge triangles."""
    ab = [(a, b) for a in (9, 17) for b in range(2)]
    ac = [(a, c) for a in (9, 17) for c in range(2)]
    bc = [(0, 0), (0, 1), (1, 1)]
    for j in range(len(ab)):
        a_off, b_off = ab[j]
        bc_h = [ALL_A ^ 1 << a_off if b == b_off else ALL_A for b, _ in bc]
        found, _ = _assert_scans_agree(ab, ac, bc, 2, 2, bc_h, 0, 1, 100)
        assert found[0] == 1 << j
        _assert_scans_agree(ab, ac, bc, 2, 2, bc_h, 1, 1, 100)


def test_scan_subtriads_witness_in_last_block():
    """Every AB and AC edge carries two or more of the 10 triangles, and
    the one hyperedge triangle (0, 2, 0) is the only triangle on BC edge
    (2, 0).  At 9/10 only subtriads that lose at most one triangle are
    heavy, so only the last block, with every AB and AC edge, is; there,
    dropping BC edge (2, 0) leaves 9 triangles and no hyperedge."""
    ab = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    ac = [(a, c) for a in range(2) for c in range(2)]
    bc = [(b, c) for b in range(3) for c in range(2)]
    bc_h = [1 if bc_edge == (2, 0) else 0 for bc_edge in bc]
    found, _ = _assert_scans_agree(ab, ac, bc, 3, 2, bc_h, 0, 9, 10)
    assert found[:2] == (31, 15)
    assert found[3:] == (9, 0)


def test_scan_subtriads_certifies_a_twenty_edge_triad():
    """A 3x3x3 triad of 20 edges, the size the ``schacht`` suite scans,
    that the deviation scan at 1/2 certifies."""
    ab = [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 1), (2, 2)]
    ac = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]
    bc = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
    bc_h = [4, 0, 0, 4, 4, 0]
    got = kernels.scan_subtriads(ab, ac, bc, 3, 3, bc_h, 1, 1, 2)
    assert got == (None, 1 << 20)
    assert got == _ref2_scan_subtriads(ab, ac, bc, 3, 3, bc_h, 1, 1, 2)


def test_reachable_is_the_set_of_subset_sums():
    rng = random.Random(24)
    for _ in range(300):
        m = rng.randint(0, 7)
        cnt = [rng.randint(0, 5) for _ in range(m)]
        hcnt = [rng.randint(0, c) for c in cnt]
        w = sum(cnt) + 1
        sums = {(sum(compress(cnt, pick)), sum(compress(hcnt, pick)))
                for pick in product((0, 1), repeat=m)}
        assert kernels._reachable(cnt, hcnt, w) == sum(
            1 << t * w + e for t, e in sums)


def test_violating_cells_match_the_predicates():
    """Bit t*w + e of VIOL, for every cell of the (t_full + 1)^2 grid,
    against the two predicates as ``scan_subtriads`` states them; cells
    with e > t, which no subtriad reaches, stay clear."""
    seen = set()
    for t_full in range(1, 9):
        w = t_full + 1
        for e_full in range(w):
            for mode in (0, 1):
                for num, den in SCAN_PARAMS + ((7, 8),):
                    t_min, lo, q, hi = kernels._band(mode, num, den, t_full,
                                                     e_full)
                    viol = kernels._violating_cells(t_min, t_full, lo, q, hi)
                    assert viol >> w * w == 0
                    for t in range(w):
                        for e in range(w):
                            if mode == 0:
                                low = 3 * e * t_full < 2 * e_full * t
                            else:
                                low = (abs(e * t_full - e_full * t) * den
                                       > num * t_full * t)
                            want = (e <= t and t * den >= num * t_full
                                    and low)
                            assert viol >> t * w + e & 1 == want
                    seen.update({("lo <= 0", mode, lo <= 0),
                                 ("q <= hi", mode, q <= hi),
                                 ("t_min", t_min == 0, t_min == t_full)})
    assert {("lo <= 0", 0, True), ("lo <= 0", 1, True),
            ("q <= hi", 0, True), ("q <= hi", 1, True),
            ("t_min", True, False), ("t_min", False, True)} <= seen


def _brute_triangle_count(n, ab_rows, ac_rows, bc_rows):
    """Triples (a, b, c) of an n x n x n triad with ab, ac and bc all
    edges."""
    return sum(1 for a in range(n) for b in range(n) for c in range(n)
               if ab_rows[a] >> b & 1 and ac_rows[a] >> c & 1
               and bc_rows[b] >> c & 1)


def test_triangle_count_matches_brute_force():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 10)
        rows = _random_triad_rows(rng, n, rng.choice([.2, .5, .8]))
        assert (kernels.triangle_count(*rows)
                == _brute_triangle_count(n, *rows))
    # Rows wider than 64 bits.
    rows = _random_triad_rows(rng, 70, .3)
    want = _brute_triangle_count(70, *rows)
    assert want > 0
    assert kernels.triangle_count(*rows) == want


# ``kernels.triangle_count`` as it was before dense triads were counted
# packed, kept verbatim but for its name as the oracle for the tests below.


def _ref_triangle_count(ab_rows: Sequence[int], ac_rows: Sequence[int],
                        bc_rows: Sequence[int]) -> int:
    """Triangles of a triad: sum of codegrees over the AB edges."""
    total = 0
    for a, mask in enumerate(ab_rows):
        ac = ac_rows[a]
        while mask:
            low = mask & -mask
            b = low.bit_length() - 1
            mask ^= low
            total += (ac & bc_rows[b]).bit_count()
    return total


def _rows_of_degree(rng, n_left, n_right, degree):
    return [sum(1 << b for b in rng.sample(range(n_right), degree))
            for _ in range(n_left)]


def _assert_triangle_counts_match(ab, ac, bc):
    """The kernel, and the packed count forced at the least block width and
    at a wider one, against the previous kernel."""
    want = _ref_triangle_count(ab, ac, bc)
    assert kernels.triangle_count(ab, ac, bc) == want
    bits = max(map(int.bit_length, ac + bc), default=0)
    w = max(8, -(-bits // 8) * 8)
    for width in (w, w + 8):
        assert kernels._packed_triangle_count(ab, ac, bc, width) == want


def test_triangle_count_matches_previous_kernel():
    rng = random.Random(41)
    # Rectangular triads, |A|, |B| and |C| all different, at every density.
    for na, nb, nc in ((3, 5, 7), (9, 2, 17), (20, 33, 6), (1, 40, 129),
                       (70, 1, 3), (12, 64, 65), (33, 130, 140)):
        for p in (0, .1, .5, .9, 1):
            _assert_triangle_counts_match(_random_rows(rng, na, nb, p),
                                          _random_rows(rng, na, nc, p),
                                          _random_rows(rng, nb, nc, p))
    # AC rows reaching C columns that no BC row reaches: the block width
    # must bound AC as well, or products carry into the next block.
    for na, nb, nc, reach in ((16, 16, 64, 8), (40, 30, 200, 90),
                              (64, 64, 64, 1), (30, 20, 150, 0)):
        ab = _random_rows(rng, na, nb, .9)
        ac = _random_rows(rng, na, nc, .9)
        bc = _random_rows(rng, nb, reach, .9)
        assert max(map(int.bit_length, ac)) > reach
        _assert_triangle_counts_match(ab, ac, bc)
    # AB degrees just below, at and just above the cutoff, both where
    # the minimum degree sets it (side 16-64) and where the product width
    # does (side 200, W = 200: |B| * W / 400 = 100).
    for n in (16, 17, 40, 64, 200):
        cut = max(kernels._PACKED_MIN_DEGREE,
                  n * max(8, -(-n // 8) * 8) // kernels._PACKED_BITS_PER_EDGE)
        for degree in (cut - 1, cut, cut + 1):
            _assert_triangle_counts_match(
                _rows_of_degree(rng, n, n, degree),
                _random_rows(rng, n, n, .5), _random_rows(rng, n, n, .5))
    # Empty rows in each of the three graphs, and rows wider than 128 bits.
    n = 150
    ab, ac, bc = (_random_rows(rng, n, n, .6) for _ in range(3))
    for rows in (ab, ac, bc):
        for k in range(0, n, 7):
            rows[k] = 0
    _assert_triangle_counts_match(ab, ac, bc)
    _assert_triangle_counts_match([0] * 5, [0] * 5, [0] * 9)
    _assert_triangle_counts_match([], [], [1, 2])


@st.composite
def _triad_rows(draw):
    na, nb, nc = (draw(st.integers(1, 70)) for _ in range(3))
    reach = draw(st.integers(0, nc))
    p = draw(st.sampled_from([0., .2, .5, .9, 1.]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return (_random_rows(rng, na, nb, p), _random_rows(rng, na, nc, p),
            _random_rows(rng, nb, reach, p))


@given(_triad_rows())
def test_triangle_count_matches_previous_kernel_property(rows):
    _assert_triangle_counts_match(*rows)


def _ref_octahedron_fast_scaled(n: int, tau: int, ecount: int,
                                hm: Sequence[int], tm: Sequence[int]) -> int:
    """Octahedron sum scaled by tau**8, via the z-collapse reorganization.

    Entry (x, y, z) of the scaled weight function g is tau - ecount on
    hyperedge triangles, -ecount on the remaining triangles, 0 elsewhere.
    The sum is sum over x0, x1, y0, y1 of dot(P[y0], P[y1])**2 with rows
    P[y] = g[x0, y, .] * g[x1, y, .] taken pointwise over z.  Swapping x0
    with x1 leaves P unchanged and swapping y0 with y1 leaves the dot
    product unchanged, so only x0 <= x1 and y0 <= y1 are visited: a
    diagonal pair weighs 1 and an off-diagonal pair 2, on each axis.
    Runs in O(n^5); the returned integer is a sum of squares, hence >= 0.
    """
    hi = tau - ecount
    lo = -ecount
    vals = []
    for xy in range(n * n):
        h = hm[xy]
        t = tm[xy]
        vals.append(tuple(hi if (h >> z) & 1 else (lo if (t >> z) & 1 else 0)
                          for z in range(n)))
    total = 0
    for x0 in range(n):
        for x1 in range(x0, n):
            # P[y] is zero off the triangles shared by (x0, y) and (x1, y):
            # keep only the rows y and the positions z that can be nonzero.
            shared = list(map(and_, tm[x0 * n:(x0 + 1) * n],
                              tm[x1 * n:(x1 + 1) * n]))
            zmask = reduce(or_, shared)
            keep = [zmask >> z & 1 for z in range(n)]
            prods = [tuple(map(mul, compress(vals[x0 * n + y], keep),
                               compress(vals[x1 * n + y], keep)))
                     for y in range(n) if shared[y]]
            diag = 0
            off = 0
            for y0, p0 in enumerate(prods):
                s = sum(map(mul, p0, p0))
                diag += s * s
                for p1 in prods[y0 + 1:]:
                    s = sum(map(mul, p0, p1))
                    off += s * s
            block = diag + 2 * off
            total += block if x0 == x1 else 2 * block
    return total


def _random_octahedron_masks(rng, n, p_tri, p_hyper):
    """(hm, tm) with each bit of tm set with probability ``p_tri`` and each
    triangle a hyperedge with probability ``p_hyper``."""
    tm = _random_rows(rng, n * n, n, p_tri)
    hm = [t & row for t, row in zip(tm, _random_rows(rng, n * n, n, p_hyper))]
    return hm, tm


def test_octahedron_kernel_matches_previous_kernel():
    # Hyperedge density 0 gives hm == 0 and density 1 gives hm == tm; the
    # forced ecount = 0 and ecount = tau make lo and hi vanish in turn
    # (up to n = 12, where the previous kernel is still cheap).
    rng = random.Random(13)
    for n in range(1, 21):
        for p_tri in (0, .3, .5, .8, 1):
            for p_hyper in (0, .2, .5, 1):
                hm, tm = _random_octahedron_masks(rng, n, p_tri, p_hyper)
                tau = sum(map(int.bit_count, tm))
                ecounts = {sum(map(int.bit_count, hm))}
                if n <= 12:
                    ecounts |= {0, tau}
                for ecount in sorted(ecounts):
                    args = (n, tau, ecount, hm, tm)
                    assert (kernels.octahedron_fast_scaled(*args)
                            == _ref_octahedron_fast_scaled(*args))


@st.composite
def _octahedron_inputs(draw):
    n = draw(st.integers(1, 7))
    tm = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n * n,
                       max_size=n * n))
    hm = [t & draw(st.integers(0, (1 << n) - 1)) for t in tm]
    tau = sum(map(int.bit_count, tm))
    ecount = draw(st.sampled_from(
        [sum(map(int.bit_count, hm)), 0, tau, draw(st.integers(0, tau))]))
    return n, tau, ecount, hm, tm


@given(_octahedron_inputs())
def test_octahedron_kernel_matches_previous_kernel_property(args):
    assert (kernels.octahedron_fast_scaled(*args)
            == _ref_octahedron_fast_scaled(*args))


def test_octahedron_kernel_matches_naive_sum():
    rng = random.Random(31)
    for n in range(1, 7):
        cls = tuple(VertexClass(i, n) for i in range(3))
        for p_edge in (.5, .8, 1):
            t = Triad(*(BipartiteGraph(
                cls[i], cls[j], [(u, v) for u in range(n) for v in range(n)
                                 if rng.random() < p_edge])
                for i, j in ((0, 1), (0, 2), (1, 2))))
            for p_hyper in (0, .5, 1):
                h = ThreeGraph(cls, frozenset(
                    (a, b, c) for a in range(n) for b in range(n)
                    for c in range(n) if rng.random() < p_hyper))
                args = hyperreg._scaled_f(h, t)
                tau = args[1]
                scaled = kernels.octahedron_fast_scaled(*args)
                want = hyperreg.octahedron_sum_naive(h, t)
                assert want == (Fraction(scaled, tau ** 8) if tau else 0)
