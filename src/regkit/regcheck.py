"""Graph-level regularity certification.

Two notions are checked on a bipartite pair (A, B):

* eps-regularity: every (A', B') with |A'| >= eps|A|, |B'| >= eps|B|
  satisfies |d(A', B') - d(A, B)| <= eps;
* delta-regularity (one-sided): every (A', B') with |A'| >= delta|A|,
  |B'| >= delta|B| satisfies d(A', B') >= d(A, B) / 2.

Both are a size floor (``Threshold``) and a band on the induced density
(``_Band``): with den = q|A||B|, a pair of e' edges on k vertex pairs
violates iff e'/k < lo/den or e'/k > hi/den.  The delta band has q = 2,
lo = e(A, B) and no high side; the eps band, eps = p/q, has lo, hi =
e(A, B) q -+ p|A||B|.  The scan, the witness check, the density-bound
test, the walks and ``degree_profile`` all ask the band.

Both are co-NP-hard in general, so verdicts follow a strict discipline:
CertifiedRegular only comes out of the exhaustive mode, irregular verdicts
always carry a witness that re-verifies exactly, and the randomized mode
otherwise answers UnknownNoWitnessFound.  This module is the one place the
rule is applied, for the subtriad checks of ``hyperreg`` too:
``CheckParams.pick_mode`` picks the search and enforces its budget,
``Verdict.of_search`` makes every verdict and ``PartitionVerdict.of``
aggregates them.

The exhaustive scan enumerates left subsets only.  For a fixed A' the
extremal densities over right subsets of each size are reached by taking
the columns with smallest (or largest) intersection with A', so sorting
the column hit counts decides the pair completely without enumerating
right subsets.  Only the left subsets of the floor size ka, the least
admissible one, are visited: if a larger A' violates with B', its ka rows
with the fewest hits into B' (the most, on the eps high side) violate on
the same side and form a smaller mask, so the first violating mask in
ascending order has ka bits.  Of those, a mask is sorted only when its
edge total e(A', B) leaves room for a violation: no hit exceeds ka, so
the k0 smallest hits sum to at least e(A', B) - (|B| - k0) * ka and the
k0 largest to at most min(e(A', B), k0 * ka).  When the ka lowest (or
highest) row degrees already rule a violation out, no mask is walked.
The masks are walked by blocks that share their high rows, and a block
whose edge totals all rule a violation out is skipped whole.
The effort reported as ``left_masks`` is the number of masks covered,
every mask of at least ka bits up to the witness (or all of them),
counted exactly rather than visited.  Every density comparison, the
randomized search's included, is exact integer arithmetic; no Fraction
is built inside a search.

The randomized search, one for both notions, walks greedily from the
full sides and then from random pairs meeting the size floors, removing
one vertex per step.  The band picks the walks: down only when it has no
high side, stopping where a removal no longer lowers the density, and
down then up when it has one.  A walk keeps the hit counts of each side
packed in one integer, one field per vertex, one byte wide below 255
vertices a side and eight bytes from there on.  A removed vertex's field
holds a sentinel that the pick never takes, so a step is a max (or min)
over the fields plus a fixed number of integer operations, whatever the
sides' sizes.  The random starts come
from a generator private to the search and are drawn only as the search
reaches them, so a search that finds a witness early draws no more.  The
effort reported as ``trials`` is the number of starts walked, 1 +
``random_trials`` when no witness is found.

Before a randomized search, the capped deficiency and surplus bounds of
``_density_bounds`` (O(n log n), from the degrees) are evaluated once.
When they keep every pair meeting the size floors away from a violation,
no start can find a witness, so the check returns the verdict and effort
the search would have ended with, without drawing a start.  The bounds
only prune: the verdict is still UnknownNoWitnessFound, and they are not
evaluated in exhaustive mode, where the scan decides.
"""
from __future__ import annotations

import random
import sys
from array import array
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BudgetExceeded, DegenerateInput, ParameterOutOfContract
from .graphs import (BipartiteGraph, Value, count_edges_between,
                     induced_subgraph, iter_bits, subset_mask)
from .partitions import VertexPartition

CERTIFIED = "CertifiedRegular"
IRREGULAR = "IrregularWithWitness"
UNKNOWN = "UnknownNoWitnessFound"

PERFECT = "PerfectlyRegular"
AFTER_EDITS = "RegularAfterEdits"
NOT_CERTIFIED = "NotCertified"


class Threshold:
    """An exact nonnegative threshold, either p/q or sqrt(p/q).

    Size floors like k >= thr * n are decided without rounding: the
    rational case cross-multiplies, the square-root case compares squares
    (both sides are nonnegative, so k >= sqrt(p/q) * n iff k*k*q >= p*n*n).
    """

    __slots__ = ("num", "den", "is_sqrt")

    def __init__(self, value: Fraction, is_sqrt: bool = False):
        value = Fraction(value)
        if value < 0:
            raise ParameterOutOfContract("threshold must be nonnegative")
        self.num = value.numerator
        self.den = value.denominator
        self.is_sqrt = bool(is_sqrt)

    @staticmethod
    def sqrt_of(value: Fraction) -> "Threshold":
        return Threshold(value, is_sqrt=True)

    def floor_ok(self, k: int, n: int) -> bool:
        """Exact test of k >= thr * n for integers k, n >= 0."""
        if self.is_sqrt:
            return k * k * self.den >= self.num * n * n
        return k * self.den >= self.num * n

    def ceiling_ok(self, k: int, n: int) -> bool:
        """Exact test of k <= thr * n for integers k, n >= 0."""
        if self.is_sqrt:
            return k * k * self.den <= self.num * n * n
        return k * self.den <= self.num * n

    def least(self, n: int) -> int:
        """Smallest k in 1..n with k >= thr * n; needs thr <= 1."""
        for k in range(1, n + 1):
            if self.floor_ok(k, n):
                return k
        raise ParameterOutOfContract(f"no size in 1..{n} is at least "
                                     f"{self!r} * {n}")

    def is_positive(self) -> bool:
        return self.num > 0

    def le_one(self) -> bool:
        return self.num <= self.den

    def __repr__(self) -> str:
        frac = f"{self.num}/{self.den}"
        return f"sqrt({frac})" if self.is_sqrt else frac


ThresholdLike = Threshold | Fraction | int


def _as_threshold(value: ThresholdLike) -> Threshold:
    if isinstance(value, Threshold):
        return value
    return Threshold(Fraction(value))


# The number of random starts a randomized search takes by default.
RANDOM_TRIALS = 64


class CheckParams(Value):
    """Search-budget knobs shared by every checker; ``mode`` is
    "exhaustive", "randomized" or "auto"."""

    __slots__ = _fields = ("mode", "max_exhaustive_side", "random_trials",
                           "seed")

    def __init__(self, mode: str = "auto", max_exhaustive_side: int = 12,
                 random_trials: int = RANDOM_TRIALS, seed: int = 0):
        if mode not in ("exhaustive", "randomized", "auto"):
            raise ParameterOutOfContract(f"unknown mode {mode!r}")
        if random_trials < 1:
            raise ParameterOutOfContract("random_trials must be >= 1")
        if max_exhaustive_side < 1:
            raise ParameterOutOfContract("max_exhaustive_side must be >= 1")
        self.mode = mode
        self.max_exhaustive_side = max_exhaustive_side
        self.random_trials = random_trials
        self.seed = seed

    def pick_mode(self, size: int, limit: int, what: str) -> str:
        """The search for an instance of ``size``: auto is exhaustive up to
        ``limit``; an exhaustive search beyond it raises BudgetExceeded."""
        mode = self.mode
        if mode == "auto":
            mode = "exhaustive" if size <= limit else "randomized"
        if mode == "exhaustive" and size > limit:
            raise BudgetExceeded(
                f"{what} {size} exceeds the exhaustive limit {limit}")
        return mode


class Verdict(Value):
    """Outcome of one regularity check on a bipartite pair; ``effort`` is
    a fresh dict unless one is given.  Unhashable, as ``effort`` is a dict."""

    __slots__ = _fields = ("status", "method", "witness", "effort")
    __hash__ = None

    def __init__(self, status: str, method: str,
                 witness: Optional[tuple[tuple[int, ...],
                                         tuple[int, ...]]] = None,
                 effort: Optional[dict] = None):
        self.status = status
        self.method = method
        self.witness = witness
        self.effort = {} if effort is None else effort

    @classmethod
    def of_search(cls, mode: str, witness, effort: dict) -> "Verdict":
        """The verdict of a search in ``mode``: irregular when it found a
        witness, certified when it was exhaustive, unknown otherwise."""
        if witness is not None:
            status = IRREGULAR
        elif mode == "exhaustive":
            status = CERTIFIED
        else:
            status = UNKNOWN
        return cls(status, mode.capitalize(), witness, effort)


class _Band(NamedTuple):
    """The induced densities a notion accepts, lo/den to hi/den (see the
    module docstring); no high side when hi is None."""

    lo: int
    hi: Optional[int]
    den: int

    @classmethod
    def delta(cls, g: BipartiteGraph) -> "_Band":
        return cls(g.edge_count, None, 2 * g.left.size * g.right.size)

    @classmethod
    def eps(cls, g: BipartiteGraph, eps: Fraction) -> "_Band":
        nn, q = g.left.size * g.right.size, eps.denominator
        return cls(g.edge_count * q - eps.numerator * nn,
                   g.edge_count * q + eps.numerator * nn, q * nn)

    def violates(self, e: int, k: int) -> bool:
        """Whether e' = e edges on k vertex pairs leave the band."""
        s = e * self.den
        return s < self.lo * k or self.hi is not None and s > self.hi * k

    def excludes(self, lo: int, hi: int, k: int) -> bool:
        """True when no density in [lo/k, hi/k] violates: the band is an
        interval, so when neither end does."""
        return not self.violates(lo, k) and not self.violates(hi, k)

    def limits(self, k: int) -> tuple[int, int]:
        """``violates`` solved for an integer e': it violates iff e' < low
        or e' > high.  Without a high side high is k, which no e' exceeds."""
        low = -(-self.lo * k // self.den)
        return low, k if self.hi is None else self.hi * k // self.den


def _column_order(g: BipartiteGraph, amask: int) -> list[tuple[int, int]]:
    """(hits, column) pairs sorted ascending; ties to the lowest index."""
    return sorted((( (g.cols[b] & amask).bit_count(), b)
                   for b in range(g.right.size)))


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _spread_table(width: int) -> tuple[int, ...]:
    """Entry v puts bit i of byte v in field i, fields ``width`` bytes
    wide: the spread of v >> 1 moved up one field, plus bit 0."""
    table = [0]
    for v in range(1, 256):
        table.append(table[v >> 1] << 8 * width | v & 1)
    return tuple(table)


_SPREAD_BYTE = {width: _spread_table(width) for width in (1, 8)}


def _spread_row(row: int, width: int) -> int:
    """``row`` with bit b moved to the low bit of field b, fields ``width``
    bytes wide: one table lookup per 8 columns."""
    table = _SPREAD_BYTE[width]
    shift = 64 * width
    out = 0
    for v in row.to_bytes((row.bit_length() + 7) // 8, "big"):
        out = out << shift | table[v]
    return out


def _members(mask: int, n: int) -> bytes:
    """Byte v is 1 if bit v of ``mask`` is set, else 0; n bytes."""
    return _spread_row(mask, 1).to_bytes(n, "little")


def _prefix_masks(g: BipartiteGraph, ka: int, k0: int, low: int, high: int):
    """Yield (amask, sorted column hits) for the left masks with exactly
    ``ka`` vertices, masks ascending as integers, whose k0 smallest hits
    may sum below ``low`` or whose k0 largest may sum above ``high``.

    As no hit exceeds ka, the k0 smallest hits sum to at least E - (|B| -
    k0) * ka and the k0 largest to at most min(E, k0 * ka), E = e(A', B)
    the mask's edge total; so a mask may have a sum past ``low`` or
    ``high`` only if E < below or E > above, and the others are skipped.

    Masks of ka bits ascending as integers are ordered by their highest
    bit, then by the next one down, and so on.  So the walk runs depth
    first over the highest chosen row, lowest row first, on an explicit
    stack, and skips whole blocks of masks without stepping through them.
    A block is every mask that holds a set F of fixed rows, all at p or
    above, and r more rows below p; its masks' totals E run from E(F) plus
    the r smallest degrees among rows 0..p-1 to E(F) plus the r largest.
    A block whose least E is at least ``below`` and whose greatest is at
    most ``above`` holds only masks the per-mask test skips, so it is
    skipped whole; a single mask is the block with r = 0, tested alike.
    Every other mask is visited, so the walk visits exactly the masks that
    stepping through all of them with that test would, in the same order.
    The whole scan is the block with F empty and r = ka: when the ka
    lowest (or highest) degrees rule it out, no mask is walked.

    The first block of every node, p = r, is one mask, p and every row
    below it; it is tested and visited from plain sums of those rows,
    without a sort or a push, and the last row is looped inline.  The sums
    of the sorted degrees below p are built when a block first needs them.
    A block carries its fixed rows' packed hits, rows spread to one field
    per column, column b in field b, so a visited mask costs one addition
    and a sort.  A field is one byte wide when ka < 256 and eight bytes
    otherwise.
    """
    na, nb = g.left.size, g.right.size
    degrees = [row.bit_count() for row in g.rows]
    # Visit a mask iff E < below or E > above (E never exceeds ka * nb).
    below = low + (nb - k0) * ka if low > 0 else 0
    above = high if high < k0 * ka else ka * nb
    ranked = sorted(degrees)
    if sum(ranked[:ka]) >= below and sum(ranked[na - ka:]) <= above:
        return
    width = 1 if ka < 1 << 8 else 8
    spread = [_spread_row(row, width) for row in g.rows]
    # sums[p][r]: the sum of the r smallest degrees among rows 0..p-1.
    sums: list = [None] * na
    # A node: its fixed rows' mask, packed hits and E, the rows left to
    # choose below the next fixed row, and where that row may go.
    nodes = [(0, 0, 0, ka - 1, iter(range(ka - 1, na)))]
    while nodes:
        amask, packed, total, r, rows = nodes[-1]
        for p in rows:
            fixed = total + degrees[p]
            if p == r:
                whole = fixed + sum(degrees[:p])
                if whole < below or whole > above:
                    yield amask | (2 << p) - 1, sorted(_fields(
                        packed + sum(spread[:p + 1]), nb, width))
                continue
            least = most = fixed
            if r:
                s = sums[p]
                if s is None:
                    s = sums[p] = list(accumulate(sorted(degrees[:p]),
                                                  initial=0))
                least += s[r]
                most += s[p] - s[p - r]
            if least >= below and most <= above:
                continue
            if r:
                nodes.append((amask | 1 << p, packed + spread[p], fixed,
                              r - 1, iter(range(r - 1, p))))
                break
            yield amask | 1 << p, sorted(_fields(packed + spread[p], nb,
                                                 width))
        else:
            nodes.pop()


def _masks_covered(ka: int, top: int) -> int:
    """Number of masks m in [1, top] with popcount(m) >= ka >= 1.

    For top = 2**n - 1 (a scan that certifies) that is 2**n less the
    C(n, j) masks with j < ka bits, the zero mask among them.  Otherwise,
    walking the set bits i of ``top`` from the highest, with ``ones`` set
    bits above i: the 2**i masks that agree with ``top`` above bit i and
    have a 0 there count, less the C(i, j) of them with j < ka - ones bits
    below it.  ``top`` itself is counted last.
    """
    if not top & (top + 1):
        n = top.bit_length()
        return (1 << n) - sum(map(comb, repeat(n), range(ka)))
    count, ones = 0, 0
    while top:
        i = top.bit_length() - 1
        count += (1 << i) - sum(map(comb, repeat(i), range(ka - ones)))
        ones += 1
        top ^= 1 << i
    return count + (ones >= ka)


def _scan_witness(g: BipartiteGraph, amask: int, k: int, high: bool
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A' = amask and B' = its k smallest (or largest) columns."""
    order = _column_order(g, amask)
    chosen = order[len(order) - k:] if high else order[:k]
    return _bits(amask), tuple(sorted(b for _, b in chosen))


def _scan(g: BipartiteGraph, thr: Threshold, band: _Band
          ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Exhaustive scan: the first (A', B') whose density ``band`` rejects.

    Witness order is canonical: left masks ascending as integers, then
    right-subset size ascending; within a size the low side (the k smallest
    columns, ties to the lowest index) before the high side (the last k
    pairs of the ascending (hits, column) order, ties to the highest).
    Returns (witness or None, left masks covered): the masks m in [1, W]
    with at least ka vertices, W the witness mask or 2**|A| - 1, counted
    exactly although only some with ka vertices are visited.  The masks
    come from ``_prefix_masks``, which skips a block of masks when the
    least and greatest edge totals in it rule out a violation, and so
    visits exactly the masks a per-mask test of the total would.

    Only the least admissible sizes are tested.  On the right, k0: the mean
    of the k smallest hits never falls and that of the k largest never
    rises as k grows.  On the left, ka: the ka rows of a violating A' with
    the fewest (on the high side the most) hits into B' violate on the
    same side and form a smaller mask.  No k0 hits exceed k = ka * k0, so
    a high limit of k, the one-sided band's, is not tested.
    """
    na, nb = g.left.size, g.right.size
    ka, k0 = thr.least(na), thr.least(nb)
    k = ka * k0
    low, high = band.limits(k)
    for amask, hits in _prefix_masks(g, ka, k0, low, high):
        if sum(hits[:k0]) < low:
            return (_scan_witness(g, amask, k0, False),
                    _masks_covered(ka, amask))
        if high < k and sum(hits[nb - k0:]) > high:
            return (_scan_witness(g, amask, k0, True),
                    _masks_covered(ka, amask))
    return None, _masks_covered(ka, (1 << na) - 1)


def _witness_violates(g: BipartiteGraph,
                      witness: tuple[Sequence[int], Sequence[int]],
                      thr: ThresholdLike, band: _Band) -> bool:
    """Exact recheck that ``witness`` meets the size floors of ``thr``, read
    only when both sides are nonempty, and has a density ``band`` rejects."""
    a_sub, b_sub = witness
    amask = subset_mask(a_sub, g.left.size, "left")
    bmask = subset_mask(b_sub, g.right.size, "right")
    ka, kb = amask.bit_count(), bmask.bit_count()
    if ka == 0 or kb == 0:
        return False
    thr = _as_threshold(thr)
    if not thr.floor_ok(ka, g.left.size) or not thr.floor_ok(kb, g.right.size):
        return False
    return band.violates(count_edges_between(g, amask, bmask), ka * kb)


def verify_eps_witness(g: BipartiteGraph, eps: Fraction,
                       witness: tuple[Sequence[int], Sequence[int]]) -> bool:
    """Exact recheck that a claimed eps-witness violates the definition."""
    return _witness_violates(g, witness, eps, _Band.eps(g, eps))


def verify_delta_witness(g: BipartiteGraph, delta: ThresholdLike,
                         witness: tuple[Sequence[int], Sequence[int]]) -> bool:
    """Exact recheck that a claimed delta-witness violates the definition."""
    return _witness_violates(g, witness, _as_threshold(delta), _Band.delta(g))


def _top_capped(values: Sequence[int], cap: int, k: int) -> int:
    """The sum of the k largest of min(cap, v) over ``values``."""
    return sum(sorted(min(cap, v) for v in values)[len(values) - k:])


def _density_bounds(g: BipartiteGraph, thr: Threshold
                    ) -> tuple[int, int, int]:
    """(lo, hi, k) with lo/k <= d(X, Y) <= hi/k for every X, Y meeting the
    size floors ka and kb of ``thr``; k = ka * kb.

    The capped deficiency bound: a column b misses miss(b) = |A| - deg(b)
    rows, so at most min(|X|, miss(b)) of X, and min(1, m/x) does not rise
    as x grows; the mean of the largest |Y| values does not rise as |Y|
    grows.  So X x Y misses at most a share S/k of its pairs, S the least
    of the kb largest min(ka, miss(b)) summed, the same over rows, and all
    missing edges; lo = k - S.  The surplus bound hi is the same count
    over the edges present.
    """
    na, nb = g.left.size, g.right.size
    ka, kb = thr.least(na), thr.least(nb)
    e = g.edge_count
    col_deg = [col.bit_count() for col in g.cols]
    row_deg = [row.bit_count() for row in g.rows]
    missing = min(_top_capped([na - d for d in col_deg], ka, kb),
                  _top_capped([nb - d for d in row_deg], kb, ka),
                  na * nb - e)
    present = min(_top_capped(col_deg, ka, kb), _top_capped(row_deg, kb, ka),
                  e)
    return ka * kb - missing, present, ka * kb


def _check_pair(g: BipartiteGraph, thr: Threshold, band: _Band,
                params: CheckParams) -> Verdict:
    """The verdict on ``g`` for the size floors of ``thr`` and ``band``:
    an exhaustive scan, or else the density bounds and, when they leave
    room for a violation, ``_random_search``."""
    if not thr.is_positive() or not thr.le_one():
        raise ParameterOutOfContract("parameter must satisfy 0 < value <= 1")
    mode = params.pick_mode(max(g.left.size, g.right.size),
                            params.max_exhaustive_side, "largest side")
    if band.lo == 0 and band.hi is None:
        # d = 0: every induced density is >= 0 = d/2; no search, any mode.
        return Verdict.of_search("exhaustive", None, {"left_masks": 0})
    if mode == "exhaustive":
        witness, covered = _scan(g, thr, band)
        return Verdict.of_search(mode, witness, {"left_masks": covered})
    if band.excludes(*_density_bounds(g, thr)):
        witness, trials = None, 1 + params.random_trials
    else:
        witness, trials = _random_search(g, thr, band, params)
    return Verdict.of_search(mode, witness, {"trials": trials})


def check_eps_regular(g: BipartiteGraph, eps: Fraction,
                      params: CheckParams = CheckParams()) -> Verdict:
    """Decide or search eps-regularity of the pair (left, right) of ``g``.

    Before a randomized search, the density bounds are evaluated once; when
    they keep every admissible pair within eps of d, no start can find a
    witness, and the verdict is the one the search would end with.
    """
    eps = Fraction(eps)
    return _check_pair(g, Threshold(eps), _Band.eps(g, eps), params)


def check_delta_regular(g: BipartiteGraph, delta: ThresholdLike,
                        params: CheckParams = CheckParams()) -> Verdict:
    """Decide or search delta-regularity (one-sided) of ``g``.

    As for eps, a randomized search is not run when the density bounds
    keep every admissible pair at density d/2 or more.
    """
    return _check_pair(g, _as_threshold(delta), _Band.delta(g), params)


# ---------------------------------------------------------------------------
# Randomized search


class _WalkTables(NamedTuple):
    """What every greedy walk of one search shares: the field width in
    bytes, the spread rows and columns of g and the size floors."""

    width: int
    rows: list[int]
    cols: list[int]
    min_ka: int
    min_kb: int

    @classmethod
    def of(cls, g: BipartiteGraph, thr: Threshold) -> "_WalkTables":
        """Fields are one byte wide while both sides have at most 254
        vertices, so that a hit count biased by one fits in a byte and an
        unbiased one stays below the all-ones sentinel; eight bytes wide
        otherwise."""
        width = 1 if max(g.left.size, g.right.size) < 255 else 8
        return cls(width, [_spread_row(row, width) for row in g.rows],
                   [_spread_row(col, width) for col in g.cols],
                   thr.least(g.left.size), thr.least(g.right.size))


def _fields(packed: int, n: int, width: int):
    """The n fields of ``packed``, ``width`` bytes each, lowest first."""
    raw = packed.to_bytes(n * width, "little")
    if width == 1:
        return raw
    words = array("Q", raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _greedy_walk(g: BipartiteGraph, tables: _WalkTables, amask: int,
                 bmask: int, want_low: bool):
    """Yield the pairs of a greedy walk from (amask, bmask), the start first.

    Each step removes the single vertex (either side) whose removal moves
    the induced density furthest down (or up), ties going to the left side
    first and then to the lowest index.  The walk ends when neither side
    can shrink without breaking its size floor.  Every pair is yielded as
    (amask, bmask, edges between them).

    The hit counts of each side (row a's edges into bmask, column b's into
    amask) are kept packed in one integer, vertex v in field v, so a step
    costs a fixed number of integer operations.  A removed vertex's field
    holds a sentinel that never wins the pick: 0 on the way down, where
    the pick is the most hits and the present fields are biased by +1, and
    all ones on the way up, where it is the fewest.  A pick is then a max
    (or min) over the fields and the first index of that value.  Removing
    row a subtracts its spread row, restricted to the present columns, from
    the column hits, and likewise for a column.
    """
    na, nb = g.left.size, g.right.size
    width, srows, scols, min_ka, min_kb = tables
    bits = 8 * width
    full = (1 << bits) - 1
    pick = max if want_low else min  # removing the most hits lowers d most
    bias, sentinel = (1, 0) if want_low else (0, full)
    # 1 in the field of every vertex still in the pair.
    lflags, rflags = _spread_row(amask, width), _spread_row(bmask, width)
    lhits = sum(compress(scols, _members(bmask, nb))) & lflags * full
    rhits = sum(compress(srows, _members(amask, na))) & rflags * full
    e = sum(_fields(lhits, na, width))
    lhits += bias * lflags + sentinel * ((1 << bits * na) // full - lflags)
    rhits += bias * rflags + sentinel * ((1 << bits * nb) // full - rflags)
    ka, kb = amask.bit_count(), bmask.bit_count()
    while True:
        yield amask, bmask, e
        # Best removal: vertex i of field value h, on the left side or not,
        # leaving density best_e2 / best_den.
        left = None
        if ka > min_ka:
            fields = _fields(lhits, na, width)
            h = pick(fields)
            left, i = True, fields.index(h)
            best_e2, best_den = e - h + bias, (ka - 1) * kb
        if kb > min_kb:
            fields = _fields(rhits, nb, width)
            h2 = pick(fields)
            e2, den = e - h2 + bias, ka * (kb - 1)
            if left is None or (e2 * best_den < best_e2 * den if want_low
                                else e2 * best_den > best_e2 * den):
                left, i, h = False, fields.index(h2), h2
                best_e2, best_den = e2, den
        if left is None:
            return
        shift = bits * i
        if left:
            amask ^= 1 << i
            lflags -= 1 << shift
            lhits += (sentinel - h) << shift
            rhits -= srows[i] & rflags
            ka -= 1
        else:
            bmask ^= 1 << i
            rflags -= 1 << shift
            rhits += (sentinel - h) << shift
            lhits -= scols[i] & lflags
            kb -= 1
        e = best_e2


def _random_subset(rng: random.Random, n: int, k: int) -> int:
    return sum(map((1).__lshift__, rng.sample(range(n), k)))


def _random_starts(g: BipartiteGraph, thr: Threshold, rng: random.Random,
                   trials: int):
    """Yield the full sides, then ``trials`` random pairs meeting the size
    floors.

    Each random pair draws its two sizes and then its two subsets, in that
    order, so a seed always yields the same starts.  A pair is drawn only
    when it is asked for: a search that stops early draws no more, and as
    its generator is private to the search the starts do not change.
    """
    na, nb = g.left.size, g.right.size
    min_ka, min_kb = thr.least(na), thr.least(nb)
    yield (1 << na) - 1, (1 << nb) - 1
    for _ in range(trials):
        ka = rng.randint(min_ka, na)
        kb = rng.randint(min_kb, nb)
        yield _random_subset(rng, na, ka), _random_subset(rng, nb, kb)


def _random_search(g: BipartiteGraph, thr: Threshold, band: _Band,
                   params: CheckParams
                   ) -> tuple[Optional[tuple[tuple[int, ...],
                                             tuple[int, ...]]], int]:
    """Randomized witness search; returns the witness or None and the
    number of starts walked.

    From each start of ``_random_starts`` walks down and, when ``band`` has
    a high side, then up (see ``_greedy_walk``), and returns the first pair
    on the way whose density ``band`` rejects.  Without a high side a walk
    stops where its next removal does not lower the induced density: no
    later pair of that walk can leave the band.  The pair is re-verified
    by ``_witness_violates``; one that fails raises RuntimeError, which
    the walks' exact edge counts never allow.
    """
    rng = random.Random(params.seed)
    tables = _WalkTables.of(g, thr)
    starts = _random_starts(g, thr, rng, params.random_trials)
    for trials, (amask, bmask) in enumerate(starts, 1):
        for want_low in (True,) if band.hi is None else (True, False):
            last = None
            for am, bm, e in _greedy_walk(g, tables, amask, bmask, want_low):
                k = am.bit_count() * bm.bit_count()
                if (band.hi is None and last is not None
                        and e * last[1] >= last[0] * k):
                    break
                if band.violates(e, k):
                    witness = (_bits(am), _bits(bm))
                    if not _witness_violates(g, witness, thr, band):
                        raise RuntimeError(f"walk pair {witness} does not "
                                           f"re-verify")
                    return witness, trials
                last = e, k
    return None, trials


# ---------------------------------------------------------------------------
# Partition-level checks


class PartitionVerdict(NamedTuple):
    """Aggregate of a family of verdicts, keyed by cluster pair or member."""

    status: str
    pair_verdicts: dict[tuple[int, ...], Verdict]

    @classmethod
    def of(cls, verdicts: dict[tuple[int, ...], Verdict]
           ) -> "PartitionVerdict":
        """Certified when every verdict is, irregular when any is, unknown
        otherwise."""
        statuses = {v.status for v in verdicts.values()}
        if statuses <= {CERTIFIED}:
            status = CERTIFIED
        elif IRREGULAR in statuses:
            status = IRREGULAR
        else:
            status = UNKNOWN
        return cls(status, verdicts)


def _iter_cluster_pairs(g: BipartiteGraph, left_p: VertexPartition,
                        right_p: VertexPartition):
    if left_p.ground.size != g.left.size:
        raise DegenerateInput("left partition does not cover the left side")
    if right_p.ground.size != g.right.size:
        raise DegenerateInput("right partition does not cover the right side")
    for i, a_blk in enumerate(left_p.blocks):
        for j, b_blk in enumerate(right_p.blocks):
            yield (i, j), sorted(a_blk), sorted(b_blk)


def check_perfect_delta_partition(g: BipartiteGraph,
                                  left_p: VertexPartition,
                                  right_p: VertexPartition,
                                  delta: ThresholdLike,
                                  params: CheckParams = CheckParams()
                                  ) -> PartitionVerdict:
    """Run the delta-check on every induced cluster pair; no edits allowed.
    The aggregate is that of ``PartitionVerdict.of``."""
    return PartitionVerdict.of({
        key: check_delta_regular(induced_subgraph(g, a_sub, b_sub), delta,
                                 params)
        for key, a_sub, b_sub in _iter_cluster_pairs(g, left_p, right_p)})


class EditResult(NamedTuple):
    """Outcome of the edit-budgeted partition check."""

    status: str  # PERFECT | AFTER_EDITS | NOT_CERTIFIED
    edits: tuple[tuple[int, int], ...]
    budget: int
    pair_verdicts: dict[tuple[int, int], Verdict]


def check_delta_partition_with_edits(g: BipartiteGraph,
                                     left_p: VertexPartition,
                                     right_p: VertexPartition,
                                     delta: ThresholdLike,
                                     params: CheckParams = CheckParams()
                                     ) -> EditResult:
    """Edit form: the partition may become perfect after at most
    delta * e(g) edge deletions.

    An irregular cluster pair has all its edges deleted iff its density is
    below delta times the overall density; no other edit is attempted, and
    the edited graph is checked again.  The cluster pairs tile the
    product, so the deleted edges always number fewer than delta * e(g);
    the budget test below is a guard that never binds.  A pair with an
    unknown verdict counts as regular, at both checks, so NotCertified
    means that an irregular pair with a verified witness survives these
    edits (not that no other edits would do).
    """
    thr = _as_threshold(delta)
    first = check_perfect_delta_partition(g, left_p, right_p, thr, params)
    if first.status != IRREGULAR:
        return EditResult(PERFECT, (), 0, first.pair_verdicts)
    edits: list[tuple[int, int]] = []
    kept = list(g.rows)
    for key, a_sub, b_sub in _iter_cluster_pairs(g, left_p, right_p):
        v = first.pair_verdicts[key]
        if v.status != IRREGULAR:
            continue
        amask = subset_mask(a_sub, g.left.size)
        bmask = subset_mask(b_sub, g.right.size)
        e_pair = count_edges_between(g, amask, bmask)
        # Low: d(pair) < thr * d(g), cross-multiplied.
        low = not thr.floor_ok(e_pair * g.left.size * g.right.size,
                               g.edge_count * len(a_sub) * len(b_sub))
        if low:
            for a in a_sub:
                edits.extend((a, b) for b in iter_bits(g.rows[a] & bmask))
                kept[a] &= ~bmask
    if not edits or not thr.ceiling_ok(len(edits), g.edge_count):
        return EditResult(NOT_CERTIFIED, (), 0, first.pair_verdicts)
    edited = BipartiteGraph.from_rows(g.left, g.right, kept)
    second = check_perfect_delta_partition(edited, left_p, right_p, thr,
                                           params)
    if second.status != IRREGULAR:
        return EditResult(AFTER_EDITS, tuple(sorted(edits)), len(edits),
                          second.pair_verdicts)
    return EditResult(NOT_CERTIFIED, (), 0, second.pair_verdicts)


def degree_profile(g: BipartiteGraph, y_sub: Iterable[int], eps: Fraction
                   ) -> tuple[int, tuple[int, ...]]:
    """Vertices of X whose degree into Y' leaves (d(X, Y) +- eps)|Y'|.

    Returns (count, sorted exceptional set); the membership test is exact.
    A negative eps raises ParameterOutOfContract.
    """
    eps = Fraction(eps)
    ymask = subset_mask(y_sub, g.right.size, "right")
    ky = ymask.bit_count()
    if ky == 0:
        raise DegenerateInput("degree profile over an empty subset")
    if eps.numerator < 0:
        raise ParameterOutOfContract("eps must be nonnegative")
    band = _Band.eps(g, eps)
    exceptional = tuple(x for x in range(g.left.size)
                        if band.violates((g.rows[x] & ymask).bit_count(), ky))
    return len(exceptional), exceptional
