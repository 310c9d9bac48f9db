"""Counting kernels: the hot inner loops, in pure Python.

Three entry points: ``triangle_count``, ``octahedron_fast_scaled`` and
``scan_subtriads``.  All arithmetic is on Python ints, so no input is too
wide.  A dense triangle count is one popcount per A vertex: one
multiplication and one AND spread its AB row to one bit per block of
packed BC, a second multiplication copies its AC row into those blocks,
and an AND with packed BC keeps the triangles.  The subtriad scan decides
each block of subtriads exactly from packed counts: one popcount for
heaviness, then a bitset of the block's subset sums (t, e) against the
cells that violate.  It walks only the first block that holds a violation
and counts every other block as examined, so its witnesses and state
counts are those of the plain walk over every state.  The octahedron sum
is bit-sliced: per pair of rows it keeps three nested masks S, U and V
(shared triangles, those with at least one hyperedge, those with two),
so each dot product is five popcounts weighted by constants fixed per
call.  On dense triads of 12 to 64 vertices per class it takes every
column pair of a row pair at once, one field of a wide int each, and
tallies the five counts of each pair as one key, so each distinct key is
weighed once per call.
Masks are Python ints (bit z of ``hm[x*n+y]`` says whether (x, y, z) is a
hyperedge-carrying triangle, bit a of ``bc_h[k]`` whether a and BC edge k
span one, etc.).
"""
from __future__ import annotations

import sys
from collections import Counter
from functools import cache
from typing import Optional, Sequence

BACKEND = "python"


# Loop time over packed time on n x n x n triads with every side at edge
# density p, and the mean AB degree at which the two tie, with |B| * W over
# that degree (CPython 3.11, best of 9, mean of two seeds; runs differed
# by up to a quarter):
#
#       n    W   p = .2   .5    .9   tie degree   |B| * W / tie
#       4    8     0.4   0.5   0.9       3.2             -
#       8   16     0.6   1.1   1.9       3.8             -
#      16   24     1.1   2.4   4.5       3.2             -
#      32   40     2.3   5.5   9.3       3.0             -
#      64   72     1.6   3.8   7.3       8.5           550
#     128  136     0.8   1.8   3.1        37           470
#     200  208     0.4   1.0   1.8       106           395
#     256  264     0.3   0.6   1.1       205           335
#
# So a packed row costs about 4 steps of the loop, or one step per 450
# bits of the |B| * W-bit product it forms when that is more; an AB side
# with fewer edges per row takes the loop, and so does a B side of fewer
# than 8 vertices.
_PACKED_MIN_SIDE = 8
_PACKED_MIN_DEGREE = 4
_PACKED_BITS_PER_EDGE = 450


@cache
def _spread_masks(nb: int, w: int) -> tuple[int, int]:
    """(M, D) for nb < w: bit k*(w-1) of M and bit k*w of D set for each
    k < nb."""
    return (((1 << nb * (w - 1)) - 1) // ((1 << w - 1) - 1),
            ((1 << nb * w) - 1) // ((1 << w) - 1))


def triangle_count(ab_rows: Sequence[int], ac_rows: Sequence[int],
                   bc_rows: Sequence[int]) -> int:
    """Triangles of a triad: sum of codegrees over the AB edges.

    Per A vertex a this is the popcount of ac[a] & bc[b] summed over the
    b of ab[a], one AB edge at a time.  Where the AB side is dense enough
    to pay, the sum is one popcount per a instead (see
    ``_packed_triangle_count``).
    """
    if len(bc_rows) >= _PACKED_MIN_SIDE:
        edges = sum(map(int.bit_count, ab_rows))
        if edges >= _PACKED_MIN_DEGREE * len(ab_rows) > 0:
            bits = max(map(int.bit_length, (*ac_rows, *bc_rows)))
            w = max(bits + 7, len(bc_rows) + 8) >> 3 << 3
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

    BC is packed as one int of |B| w-bit blocks, w widened by whole bytes
    until w > |B|.  Multiplying ab[a] by M = sum of 2^(k*(w-1)) over
    k < |B| puts bit b of ab[a] at b + k*(w-1) for every k.  As |B| < w
    these positions are distinct, so nothing carries, and the one at a
    multiple of w is k = b, at b*w; AND with D = sum of 2^(k*w) keeps
    exactly those, one bit per block b of ab[a].  Multiplying by ac[a]
    then puts a copy of ac[a] in each such block, with no carry because
    w bounds ac[a] too; AND with packed BC keeps the C columns of each
    triangle, so one popcount counts the triangles on a.
    """
    w = max(w, (len(bc_rows) + 8) >> 3 << 3)
    step = w >> 3
    bc = int.from_bytes(b"".join(row.to_bytes(step, "little")
                                 for row in bc_rows), "little")
    m, d = _spread_masks(len(bc_rows), w)
    total = 0
    for ab, ac in zip(ab_rows, ac_rows):
        if ab and ac:
            total += ((ab * m & d) * ac & bc).bit_count()
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
    hi**(j-1) * tau, the step from weight j - 1 to weight j.  Both paths
    rely on hm being a submask of tm entry by entry (V within U within S),
    as ``hyperreg._scaled_f`` builds them.

    Where n is from ``_BLOCKED_MIN_N`` to ``_BLOCKED_MAX_N`` and at least
    ``_BLOCKED_MIN_DENSITY`` of the n**3 cells are triangles, the counts
    of all y-pairs of an x-pair come at once from wide ints
    (``_octahedron_blocked``); other inputs take the row-pair loop
    (``_octahedron_loop``).  Both run in O(n^4) popcounts of n-bit masks
    and return the same integer, a sum of squares, hence >= 0.
    """
    if (_BLOCKED_MIN_N <= n <= _BLOCKED_MAX_N
            and tau >= _BLOCKED_MIN_DENSITY * n ** 3):
        return _octahedron_blocked(n, tau, ecount, hm, tm)
    return _octahedron_loop(n, tau, ecount, hm, tm)


# The blocked octahedron path counts every cell, while the loop skips the
# rows and the row pairs that share no triangle, so the loop wins on small
# or sparse triads.  On random triads (pure Python 3.11, 2-CPU host) the
# two tie at a triangle density tau / n**3 of about 0.4 for n from 12 to
# 40 (0.3 at n = 32).  At density 0.75 the blocked path is 1.5x faster at
# n = 12 and 1.8x at n = 20 to 24; it is 2.3x faster on complete triads at
# n = 12, and 3x at density 0.6 and n = 64.  Below n = 12 the tie moves to
# higher densities (about 0.5 at n = 10, 0.8 at n = 8), so that one
# density bound no longer serves; the suites' triads, at n <= 8, all take
# the loop.  A field of the blocked path holds an n-bit mask and a key of
# 5 * n.bit_length() + 1 bits, so 4 bytes serve n <= 32, and 8 bytes, the
# widest native cast, n <= 64.
_BLOCKED_MIN_N = 12
_BLOCKED_MAX_N = 64
_BLOCKED_MIN_DENSITY = 0.4


def _octahedron_weights(tau: int, ecount: int) -> tuple[int, ...]:
    """The weights w0..w4 of the five counts (see
    ``octahedron_fast_scaled``)."""
    lo = -ecount
    hi = tau + lo
    return (lo ** 4, *(lo ** (4 - j) * hi ** (j - 1) * tau
                       for j in (1, 2, 3, 4)))


def _octahedron_loop(n: int, tau: int, ecount: int,
                     hm: Sequence[int], tm: Sequence[int]) -> int:
    """``octahedron_fast_scaled`` one pair of rows at a time.  A pair with
    S0 & S1 == 0 adds nothing, so only rows with S != 0 are kept."""
    w0, w1, w2, w3, w4 = _octahedron_weights(tau, ecount)
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


def _octahedron_blocked(n: int, tau: int, ecount: int,
                        hm: Sequence[int], tm: Sequence[int]) -> int:
    """``octahedron_fast_scaled`` for n <= 64, all y-pairs of an x-pair at
    once.

    A cell is a pair y0 <= y1, in the order (0, 0), (0, 1), ..., (n-1,
    n-1), and each cell has a field of f bytes in a wide int.  Per x, the
    row broadcast holds the mask of row (x, y0) in the field of cell
    (y0, y1), and the column broadcast that of row (x, y1); there is one
    of each for ``tm`` and for ``hm``.  ANDs and ORs of the broadcasts of
    x0 and x1 then give the five masks of every cell with the loop's
    formulas; on a diagonal cell they reduce to S, U, U, V, V, the loop's
    diagonal counts.  Each mask is popcounted a byte at a time with
    ``bytes.translate``, and multiplying by 0x0101...01 sums a field's
    byte counts into its top byte, where no carry reaches.  The five
    counts of a cell, each at most n, are packed into one key of
    n.bit_length() bits each, with one more bit on a diagonal cell.
    ``Counter`` tallies the keys of the cells, read as native ints, per
    class of x-pair, so each distinct key is weighed once per call: a
    cell weighs 2 off the diagonal and 1 on it, an x-pair 2 when x0 < x1
    and 1 when x0 == x1.
    """
    f = 4 if n <= 32 else 8
    k = n.bit_length()
    cells = n * (n + 1) >> 1
    size = cells * f
    order = sys.byteorder

    def broadcasts(masks: Sequence[int]) -> tuple[list[int], list[int]]:
        rows = [b"".join([m.to_bytes(f, "little")
                          for m in masks[x * n:(x + 1) * n]])
                for x in range(n)]
        return ([int.from_bytes(b"".join([r[y * f:(y + 1) * f] * (n - y)
                                          for y in range(n)]), "little")
                 for r in rows],
                [int.from_bytes(b"".join([r[y * f:] for y in range(n)]),
                                "little")
                 for r in rows])

    t_row, t_col = broadcasts(tm)
    h_row, h_col = broadcasts(hm)
    flag = (1 << 5 * k).to_bytes(f, "little")
    diagonal = int.from_bytes(b"".join([flag + bytes(f * (n - 1 - y))
                                        for y in range(n)]), "little")
    count = (1 << k) - 1
    spread = int.from_bytes(b"\1" * f, "little")
    in_fields = int.from_bytes(count.to_bytes(f, "little") * cells, "little")
    # Count j moves from the top byte of its field to bit j*k.
    places = [(8 * f - 8 - j * k, in_fields << j * k) for j in range(5)]
    code = "I" if f == 4 else "Q"
    tallies = (Counter(), Counter())  # x0 == x1, x0 < x1
    for x0 in range(n):
        tr0, tc0, hr0, hc0 = t_row[x0], t_col[x0], h_row[x0], h_col[x0]
        for x1 in range(x0, n):
            sr = tr0 & t_row[x1]
            sc = tc0 & t_col[x1]
            m = sr & sc
            if not m:
                continue
            hr1 = h_row[x1]
            hc1 = h_col[x1]
            ur = sr & (hr0 | hr1)
            uc = sc & (hc0 | hc1)
            vr = hr0 & hr1
            vc = hc0 & hc1
            uu = ur & uc
            vv = vr | vc
            key = diagonal
            for mask, (shift, place) in zip(
                    (m, m & (ur | uc), m & (uu | vv), uu & vv, vr & vc),
                    places):
                key |= int.from_bytes(mask.to_bytes(size, order).translate(
                    _BYTE_POPCOUNT), order) * spread >> shift & place
            tallies[x0 < x1].update(
                memoryview(key.to_bytes(size, order)).cast(code))
    w0, w1, w2, w3, w4 = _octahedron_weights(tau, ecount)
    k2, k3, k4, k5 = 2 * k, 3 * k, 4 * k, 5 * k
    total = 0
    for x_weight, tally in zip((1, 2), tallies):
        for key, cells_with_key in tally.items():
            d = (w0 * (key & count) + w1 * (key >> k & count)
                 + w2 * (key >> k2 & count) + w3 * (key >> k3 & count)
                 + w4 * (key >> k4 & count))
            y_weight = 1 if key >> k5 else 2
            total += x_weight * y_weight * cells_with_key * d * d
    return total


# Popcount of each byte value, for ``bytes.translate``.
_BYTE_POPCOUNT = bytes(v.bit_count() for v in range(256))


def _half_tables(packs: Sequence[int]) -> tuple[list[int], list[int]]:
    """The ORs of the subsets of the first ceil(m/2) and of the last
    floor(m/2) of the m ``packs``, indexed by subset mask, so the OR of
    subset x of all m is ``low[x % len(low)] | high[x // len(low)]``."""
    half = (len(packs) + 1) >> 1
    low = [0]
    for p in packs[:half]:
        low += [x | p for x in low]
    high = [0]
    for p in packs[half:]:
        high += [x | p for x in high]
    return low, high


def _fold(counts: bytes, step: int) -> list[int]:
    """Sum each run of ``step`` byte counts: the popcounts of
    ``step``-byte fields from those of their bytes."""
    return list(map(sum, zip(*(counts[i::step] for i in range(step)))))


def _band(mode: int, num: int, den: int, t_full: int,
          e_full: int) -> tuple[int, int, int, int]:
    """(t_min, lo, q, hi): counts (t, e) violate mode ``mode`` at num/den
    iff t >= t_min and (t, e) lies outside lo*t <= q*e <= hi*t (see
    ``scan_subtriads``)."""
    need = num * t_full
    t_min = -(-need // den)  # t*den >= need  <=>  t >= t_min
    if mode == 0:
        return t_min, 2 * e_full, 3 * t_full, 3 * t_full
    return (t_min, e_full * den - need, t_full * den,
            e_full * den + need)


def _reachable(cnt: Sequence[int], hcnt: Sequence[int], w: int) -> int:
    """The subset sums of the points (cnt[k], hcnt[k]): bit t*w + e is set
    iff some subset has sum (t, e).  Exact while every sum has e < w."""
    reach = 1
    for c, h in zip(cnt, hcnt):
        if c:
            reach |= reach << c * w + h
    return reach


def _violating_cells(t_min: int, t_full: int, lo: int, q: int,
                     hi: int) -> int:
    """Bit t*(t_full + 1) + e for each cell 0 <= e <= t, t_min <= t <=
    t_full, outside the band lo*t <= q*e <= hi*t (q > 0).  Per t the band
    is the one range of e from ceil(lo*t/q) to floor(hi*t/q)."""
    w = t_full + 1
    viol = 0
    for t in range(t_min, w):
        e_lo = max(0, -(-lo * t // q))
        e_hi = min(t, hi * t // q)
        row = (2 << t) - 1
        if e_lo <= e_hi:
            row ^= (2 << e_hi) - (1 << e_lo)
        viol |= row << t * w
    return viol


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
    with the triangles of the subtriad.
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
    holds it, so t and e are sums over the chosen edges.

    The A-sets of the BC edges are packed into one int, one field of
    f = 8*ceil(n_a/8) bits per BC edge.  An AB edge (a, b) sets bit a of
    the field of each BC edge at b, an AC edge (a, c) of each at c, so the
    AND of the ORs of an AB subset and an AC subset holds the A-set of BC
    edge k of their block in field k.  The ORs come from two half-tables
    per side.  Each block is decided exactly, without a walk:

    * it holds no violation when its packed A-sets have fewer than t_min
      bits in all (the block's largest t is below the heaviness bound);
    * a whole AB row holds none when its blocks together miss t_min, or
      when the band holds every (c_k, h_k) they can reach: the band is a
      cone, so it then holds every sum.  Those points have h/c between 0
      (only triangles off the 3-graph) and 1 (only hyperedge triangles),
      so the band holds them all iff it holds (1, 0) wherever the row has
      a triangle off the 3-graph and (1, 1) wherever it has a hyperedge
      triangle;
    * otherwise c_k and h_k are the popcounts of field k, and the bitset
      R = 1, R |= R << (c_k*w + h_k) for each k, with w = t_full + 1, is
      the exact set of subset sums: bit t*w + e is set iff some BC subset
      has counts (t, e), as e <= t <= t_full < w leaves no carry between
      cells.  VIOL, built once per call, is the exact set of cells with
      t >= t_min outside the band, so the block holds a violation iff
      R & VIOL != 0.

    Only the first block that holds one is walked, in Gray order, to its
    first violating state.  The plain walk passes every state of each
    block before it without returning, so those states are counted as
    examined: witness and state count are those of the walk over every
    block.

    Returns ((ab_mask, ac_mask, bc_mask, t, e) or None, states_examined).
    The scan is exhaustive iff the first component is None.
    """
    m1, m2, m3 = len(ab_edges), len(ac_edges), len(bc_edges)
    every = 1 << (m1 + m2 + m3)
    if not (ab_edges and ac_edges and bc_edges):
        return None, every
    n_a = max(max(ab_edges)[0], max(ac_edges)[0]) + 1
    step = (n_a + 7) >> 3
    f = step << 3
    # at_b[b] (at_c[c]): bit k*f for each BC edge k at b (at c).
    at_b = [0] * n_b
    at_c = [0] * n_c
    hyper = 0
    for k, ((b, c), h) in enumerate(zip(bc_edges, bc_h)):
        at_b[b] |= 1 << k * f
        at_c[c] |= 1 << k * f
        hyper |= (h & (1 << f) - 1) << k * f
    ab_low, ab_high = _half_tables([at_b[b] << a for a, b in ab_edges])
    ac_low, ac_high = _half_tables([at_c[c] << a for a, c in ac_edges])
    ac_all = ac_low[-1] | ac_high[-1]
    full = (ab_low[-1] | ab_high[-1]) & ac_all
    t_full = full.bit_count()
    if t_full == 0:
        # Every subtriad has t = e = 0, which violates neither predicate.
        return None, every
    e_full = (full & hyper).bit_count()

    t_min, lo, q, hi = _band(mode, num, den, t_full, e_full)
    off = ~hyper
    zero_in_band = lo <= 0
    one_in_band = q <= hi
    w = t_full + 1
    nbytes = m3 * step
    viol = None
    abm = -1
    for ab_h in ab_high:
        for ab_l in ab_low:
            abm += 1
            pab = ab_h | ab_l
            row = pab & ac_all
            if (row.bit_count() < t_min
                    or ((zero_in_band or not row & off)
                        and (one_in_band or not row & hyper))):
                continue
            lows = [pab & x for x in ac_low]
            acm = -1
            for ac_h in ac_high:
                ac_h &= pab
                for ac_l in lows:
                    acm += 1
                    sub = ac_h | ac_l
                    if sub.bit_count() < t_min:
                        continue
                    cnt = sub.to_bytes(nbytes, "little").translate(
                        _BYTE_POPCOUNT)
                    hcnt = (sub & hyper).to_bytes(nbytes, "little").translate(
                        _BYTE_POPCOUNT)
                    if step > 1:
                        cnt, hcnt = _fold(cnt, step), _fold(hcnt, step)
                    if viol is None:
                        viol = _violating_cells(t_min, t_full, lo, q, hi)
                    if not _reachable(cnt, hcnt, w) & viol:
                        continue
                    # Gray walk over BC subsets, maintaining (t, e)
                    # incrementally; the empty subset violates neither
                    # predicate.
                    t = e = 0
                    bcm = 0
                    for g in range(1, 1 << m3):
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
                            return ((abm, acm, bcm, t, e),
                                    ((abm << m2 | acm) << m3) + g + 1)
    return None, every
