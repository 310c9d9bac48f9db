"""Counting kernels: the hot inner loops, in pure Python.

Three entry points: ``triangle_count``, ``octahedron_fast_scaled`` and
``scan_subtriads``.  All arithmetic is on Python ints, so no input is too
wide.  A dense triangle count is one popcount per A vertex, of a product
of packed masks.  The subtriad scan skips blocks that provably hold no
violation and counts them as examined, so its witnesses and state counts
are those of the plain walk over every state.  The octahedron sum is
bit-sliced: per pair of rows it keeps three nested masks S, U and V
(shared triangles, those with at least one hyperedge, those with two), so
each dot product is five popcounts weighted by constants fixed per call.
Masks are Python ints (bit z of ``hm[x*n+y]`` says whether (x, y, z) is a
hyperedge-carrying triangle, bit a of ``bc_h[k]`` whether a and BC edge k
span one, etc.).
"""
from __future__ import annotations

from functools import cache
from operator import and_, gt
from typing import Optional, Sequence

BACKEND = "python"


# The packed count of a row costs about as much as 8 steps of the loop,
# or one step per 400 bits of the |B| * W-bit product it forms when that
# is more (timed for triads of side 8-200), so an AB side with fewer edges
# per row takes the loop.
_PACKED_MIN_DEGREE = 8
_PACKED_BITS_PER_EDGE = 400


@cache
def _spread_bytes(w: int) -> tuple[bytes, ...]:
    """Byte v -> the 8*w-bit int with bit k*w set for each bit k of v, as
    w little-endian bytes."""
    spread = [0] * 256
    for v in range(1, 256):
        low = v & -v
        spread[v] = spread[v ^ low] | 1 << (low.bit_length() - 1) * w
    return tuple(x.to_bytes(w, "little") for x in spread)


def triangle_count(ab_rows: Sequence[int], ac_rows: Sequence[int],
                   bc_rows: Sequence[int]) -> int:
    """Triangles of a triad: sum of codegrees over the AB edges.

    Per A vertex a this is the popcount of ac[a] & bc[b] summed over the
    b of ab[a], one AB edge at a time.  Where the AB side is dense enough
    to pay, the sum is one popcount per a instead (see
    ``_packed_triangle_count``).
    """
    if len(bc_rows) >= _PACKED_MIN_DEGREE:
        edges = sum(map(int.bit_count, ab_rows))
        if edges >= _PACKED_MIN_DEGREE * len(ab_rows) > 0:
            bits = max(map(int.bit_length, (*ac_rows, *bc_rows)))
            w = max(8, -(-bits // 8) * 8)
            if (edges * _PACKED_BITS_PER_EDGE
                    >= len(ab_rows) * len(bc_rows) * w):
                return _packed_triangle_count(ab_rows, ac_rows, bc_rows, w)
    total = 0
    for a, mask in enumerate(ab_rows):
        ac = ac_rows[a]
        while mask:
            low = mask & -mask
            b = low.bit_length() - 1
            mask ^= low
            total += (ac & bc_rows[b]).bit_count()
    return total


def _packed_triangle_count(ab_rows: Sequence[int], ac_rows: Sequence[int],
                           bc_rows: Sequence[int], w: int) -> int:
    """``triangle_count`` with every AC and BC row below 2^w, w a multiple
    of 8.

    BC is packed as one int of |B| w-bit blocks.  Spreading ab[a] to bit
    b*w for each of its b (a byte at a time, from a table) and multiplying
    by ac[a] puts a copy of ac[a] in block b, with no carry because w
    bounds ac[a] too; AND with packed BC keeps the C columns of each
    triangle, so one popcount counts the triangles on a.
    """
    step = w >> 3
    bc = int.from_bytes(b"".join(row.to_bytes(step, "little")
                                 for row in bc_rows), "little")
    spread = _spread_bytes(w).__getitem__
    nbytes = (len(bc_rows) + 7) >> 3
    total = 0
    for ab, ac in zip(ab_rows, ac_rows):
        if ab and ac:
            blocks = int.from_bytes(b"".join(map(
                spread, ab.to_bytes(nbytes, "little"))), "little")
            total += (blocks * ac & bc).bit_count()
    return total


def octahedron_fast_scaled(n: int, tau: int, ecount: int,
                           hm: Sequence[int], tm: Sequence[int]) -> int:
    """Octahedron sum scaled by tau**8, as popcounts of triangle masks.

    Entry (x, y, z) of the scaled weight function g is hi = tau - ecount on
    hyperedge triangles, lo = -ecount on the remaining triangles, 0
    elsewhere.  The sum is sum over x0, x1, y0, y1 of dot(P[y0], P[y1])**2
    with rows P[y] = g[x0, y, .] * g[x1, y, .] taken pointwise over z.
    Swapping x0 with x1 leaves P unchanged and swapping y0 with y1 leaves
    the dot product unchanged, so only x0 <= x1 and y0 <= y1 are visited:
    a diagonal pair weighs 1 and an off-diagonal pair 2, on each axis.

    Each row is kept as three nested masks over z:

    * S = tm[x0, y] & tm[x1, y], the triangles (x0, y) and (x1, y) share;
    * U = S & (hm[x0, y] | hm[x1, y]), those where at least one is a
      hyperedge;
    * V = hm[x0, y] & hm[x1, y], those where both are.

    As g = lo*T + tau*H (T the triangles, H the hyperedge triangles),
    P[y] = lo**2*S + lo*tau*U + hi*tau*V, so a dot product is 9 popcounts
    |K0 & L1| of K, L among S, U, V, weighted by products of those three
    coefficients.  Term z is a product of four entries of g, lo**(4-k) *
    hi**k when k of its four triangles are hyperedges, so the 9 popcounts
    group into 5: the z of S0 & S1 with k >= j, for j = 0..4.  The count
    for j = 0 weighs lo**4, and the count for j >= 1 weighs lo**(4-j) *
    hi**(j-1) * tau, the step from weight j - 1 to weight j.  A pair with
    S0 & S1 == 0 adds nothing.  Runs in O(n^4) popcounts of n-bit masks;
    the returned integer is a sum of squares, hence >= 0.
    """
    lo = -ecount
    hi = tau + lo
    w0 = lo ** 4
    w1, w2, w3, w4 = (lo ** (4 - j) * hi ** (j - 1) * tau
                      for j in (1, 2, 3, 4))
    # On the diagonal y0 == y1, k is 0 on S - U, 2 on U - V and 4 on V.
    wu, wv = w1 + w2, w3 + w4
    total = 0
    for x0 in range(n):
        t0 = tm[x0 * n:(x0 + 1) * n]
        h0 = hm[x0 * n:(x0 + 1) * n]
        for x1 in range(x0, n):
            t1 = tm[x1 * n:(x1 + 1) * n]
            h1 = hm[x1 * n:(x1 + 1) * n]
            # Rows with S = 0 are zero: keep only the others.
            rows = []
            for y in range(n):
                s = t0[y] & t1[y]
                if s:
                    rows.append((s, s & (h0[y] | h1[y]), h0[y] & h1[y]))
            diag = 0
            off = 0
            for y0, (s0, u0, v0) in enumerate(rows):
                d = (w0 * s0.bit_count() + wu * u0.bit_count()
                     + wv * v0.bit_count())
                diag += d * d
                for s1, u1, v1 in rows[y0 + 1:]:
                    m = s0 & s1
                    if m:
                        uu = u0 & u1
                        vv = v0 | v1
                        # The z with k >= 0, 1, 2, 3 and 4.
                        d = (w0 * m.bit_count()
                             + w1 * (m & (u0 | u1)).bit_count()
                             + w2 * (m & (uu | vv)).bit_count()
                             + w3 * (uu & vv).bit_count()
                             + w4 * (v0 & v1).bit_count())
                        off += d * d
            block = diag + 2 * off
            total += block if x0 == x1 else 2 * block
    return total


def scan_subtriads(ab_edges: Sequence[tuple[int, int]],
                   ac_edges: Sequence[tuple[int, int]],
                   bc_edges: Sequence[tuple[int, int]],
                   n_b: int, n_c: int, bc_h: Sequence[int],
                   mode: int, num: int, den: int
                   ) -> tuple[Optional[tuple[int, int, int, int, int]], int]:
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
