"""The kernels against independent oracles: a brute-force triangle count,
and the plain subtriad walk that visits every state."""
import random
from typing import Optional, Sequence

from regkit import kernels


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
