"""Graph-level regularity certification.

Two notions are checked on a bipartite pair (A, B):

* eps-regularity: every (A', B') with |A'| >= eps|A|, |B'| >= eps|B|
  satisfies |d(A', B') - d(A, B)| <= eps;
* delta-regularity (one-sided): every (A', B') with |A'| >= delta|A|,
  |B'| >= delta|B| satisfies d(A', B') >= d(A, B) / 2.

Both are co-NP-hard in general, so verdicts follow a strict discipline:
CertifiedRegular only comes out of the exhaustive mode, irregular verdicts
always carry a witness that re-verifies exactly, and the randomized mode
otherwise answers UnknownNoWitnessFound.

The exhaustive scan enumerates left subsets only.  For a fixed A' the
extremal densities over right subsets of each size are reached by taking
the columns with smallest (or largest) intersection with A', so sorting
the column hit counts decides the pair completely without enumerating
right subsets.  Every density comparison, the randomized searches'
included, is an exact integer cross-multiplication; no Fraction is built
inside a search.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, DegenerateInput, ParameterOutOfContract
from .graphs import (BipartiteGraph, count_edges_between, density,
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

    def least(self, n: int) -> int:
        """Smallest k in 1..n with k >= thr * n; needs thr <= 1."""
        return next(k for k in range(1, n + 1) if self.floor_ok(k, n))

    def is_positive(self) -> bool:
        return self.num > 0

    def le_one(self) -> bool:
        return self.num <= self.den

    def __float__(self) -> float:
        v = self.num / self.den
        return v ** 0.5 if self.is_sqrt else v

    def __repr__(self) -> str:
        frac = f"{self.num}/{self.den}"
        return f"sqrt({frac})" if self.is_sqrt else frac


ThresholdLike = Threshold | Fraction | int


def _as_threshold(value: ThresholdLike) -> Threshold:
    if isinstance(value, Threshold):
        return value
    return Threshold(Fraction(value))


@dataclass(frozen=True)
class CheckParams:
    """Search-budget knobs shared by every checker."""

    mode: str = "auto"  # "exhaustive" | "randomized" | "auto"
    max_exhaustive_side: int = 12
    random_trials: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "randomized", "auto"):
            raise ParameterOutOfContract(f"unknown mode {self.mode!r}")
        if self.random_trials < 1:
            raise ParameterOutOfContract("random_trials must be >= 1")
        if self.max_exhaustive_side < 1:
            raise ParameterOutOfContract("max_exhaustive_side must be >= 1")

    def pick_mode(self, na: int, nb: int) -> str:
        if self.mode != "auto":
            return self.mode
        lim = self.max_exhaustive_side
        return "exhaustive" if na <= lim and nb <= lim else "randomized"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one regularity check on a bipartite pair."""

    status: str
    method: str
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    effort: dict = field(default_factory=dict)

    @property
    def is_regular(self) -> bool:
        return self.status == CERTIFIED

    @property
    def found_witness(self) -> bool:
        return self.status == IRREGULAR


def _column_order(g: BipartiteGraph, amask: int) -> list[tuple[int, int]]:
    """(hits, column) pairs sorted ascending; ties to the lowest index."""
    return sorted((( (g.cols[b] & amask).bit_count(), b)
                   for b in range(g.right.size)))


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _left_masks(g: BipartiteGraph, min_ka: int):
    """Yield (amask, ka, sorted column hits) for every left mask with at
    least ``min_ka`` vertices, masks ascending as integers.

    The hits of all columns are kept in one integer, column b in byte b,
    and updated once per mask: going from amask - 1 to amask sets bit t
    and clears bits 0..t-1.  A byte holds every count, since a column's
    hits are at most ka and every mask below 2**255 has ka < 256.
    """
    na, nb = g.left.size, g.right.size
    spread = [sum(1 << 8 * b for b in iter_bits(row)) for row in g.rows]
    step = [s - sum(spread[:t]) for t, s in enumerate(spread)]
    packed = 0
    for amask in range(1, 1 << na):
        packed += step[(amask & -amask).bit_length() - 1]
        ka = amask.bit_count()
        if ka >= min_ka:
            yield amask, ka, sorted(packed.to_bytes(nb, "little"))


def _scan_witness(g: BipartiteGraph, amask: int, k: int, high: bool
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A' = amask and B' = its k smallest (or largest) columns."""
    order = _column_order(g, amask)
    chosen = order[len(order) - k:] if high else order[:k]
    return _bits(amask), tuple(sorted(b for _, b in chosen))


def _scan_delta(g: BipartiteGraph, thr: Threshold
                ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]],
                           int]:
    """Exhaustive one-sided scan: first (A', B') with d' < d/2, if any.

    Witness order is canonical: left masks ascending as integers, then
    right-subset size ascending; within a size the minimizing columns
    (ties to the lowest index) are taken.  Returns (witness or None,
    number of left masks examined).

    Only the least admissible size k0 is tested: the mean of the k
    smallest hits never falls as k grows, so if some k gives d' < d/2,
    k0 does too, and k0 is the first size in the canonical order.
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    examined = 0
    if e_full == 0:
        # d = 0 and every induced density is >= 0 = d/2.
        return None, examined
    k0 = thr.least(nb)
    # d' < d/2  <=>  2 * e' * na * nb < e_full * ka * k0
    scale = 2 * na * nb
    bound = [e_full * ka * k0 for ka in range(na + 1)]
    for amask, ka, hits in _left_masks(g, thr.least(na)):
        examined += 1
        if scale * sum(hits[:k0]) < bound[ka]:
            return _scan_witness(g, amask, k0, False), examined
    return None, examined


def _scan_eps(g: BipartiteGraph, eps: Fraction
              ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]],
                         int]:
    """Exhaustive two-sided scan: first (A', B') with |d' - d| > eps.

    Same canonical order as ``_scan_delta``; within a size the low side
    (the k smallest columns) is tried before the high side, which takes
    the last k pairs of the ascending (hits, column) order, so its ties go
    to the highest index.  As there, only the least admissible size k0 is
    tested: the mean of the k smallest hits never falls and that of the k
    largest never rises as k grows.
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    p, q = eps.numerator, eps.denominator
    thr = Threshold(eps)
    k0 = thr.least(nb)
    examined = 0
    # With e' the edges to the k0 chosen columns, d - d' > eps and
    # d' - d > eps, multiplied out by ka * k0 * na * nb * q:
    nnq = na * nb * q
    low = [ka * k0 * (e_full * q - p * na * nb) for ka in range(na + 1)]
    high = [ka * k0 * (e_full * q + p * na * nb) for ka in range(na + 1)]
    for amask, ka, hits in _left_masks(g, thr.least(na)):
        examined += 1
        if nnq * sum(hits[:k0]) < low[ka]:
            return _scan_witness(g, amask, k0, False), examined
        if nnq * sum(hits[nb - k0:]) > high[ka]:
            return _scan_witness(g, amask, k0, True), examined
    return None, examined


def _check_floors_and_budget(g: BipartiteGraph, thr: Threshold,
                             params: CheckParams) -> str:
    if not thr.is_positive() or not thr.le_one():
        raise ParameterOutOfContract("parameter must satisfy 0 < value <= 1")
    mode = params.pick_mode(g.left.size, g.right.size)
    if mode == "exhaustive":
        lim = params.max_exhaustive_side
        if g.left.size > lim or g.right.size > lim:
            raise BudgetExceeded(
                f"sides {g.left.size}x{g.right.size} exceed exhaustive "
                f"limit {lim}")
    return mode


def verify_eps_witness(g: BipartiteGraph, eps: Fraction,
                       witness: tuple[Sequence[int], Sequence[int]]) -> bool:
    """Exact recheck that a claimed eps-witness violates the definition."""
    a_sub, b_sub = witness
    amask = subset_mask(a_sub, g.left.size, "left")
    bmask = subset_mask(b_sub, g.right.size, "right")
    ka, kb = amask.bit_count(), bmask.bit_count()
    na, nb = g.left.size, g.right.size
    if ka == 0 or kb == 0:
        return False
    if ka * eps.denominator < eps.numerator * na:
        return False
    if kb * eps.denominator < eps.numerator * nb:
        return False
    e = count_edges_between(g, amask, bmask)
    dev = abs(e * na * nb - g.edge_count * ka * kb)
    return dev * eps.denominator > eps.numerator * ka * kb * na * nb


def verify_delta_witness(g: BipartiteGraph, delta: ThresholdLike,
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


def check_eps_regular(g: BipartiteGraph, eps: Fraction,
                      params: CheckParams = CheckParams()) -> Verdict:
    """Decide or search eps-regularity of the pair (left, right) of ``g``."""
    eps = Fraction(eps)
    mode = _check_floors_and_budget(g, Threshold(eps), params)
    if mode == "exhaustive":
        witness, examined = _scan_eps(g, eps)
        effort = {"left_masks": examined}
        if witness is None:
            return Verdict(CERTIFIED, "Exhaustive", None, effort)
        return Verdict(IRREGULAR, "Exhaustive", witness, effort)
    witness, trials = _random_eps_search(g, eps, params)
    effort = {"trials": trials}
    if witness is None:
        return Verdict(UNKNOWN, "Randomized", None, effort)
    return Verdict(IRREGULAR, "Randomized", witness, effort)


def check_delta_regular(g: BipartiteGraph, delta: ThresholdLike,
                        params: CheckParams = CheckParams()) -> Verdict:
    """Decide or search delta-regularity (one-sided) of ``g``."""
    thr = _as_threshold(delta)
    mode = _check_floors_and_budget(g, thr, params)
    if g.edge_count == 0:
        # Density 0: the inequality d' >= d/2 holds for every subset pair.
        return Verdict(CERTIFIED, "Exhaustive", None, {"left_masks": 0})
    if mode == "exhaustive":
        witness, examined = _scan_delta(g, thr)
        effort = {"left_masks": examined}
        if witness is None:
            return Verdict(CERTIFIED, "Exhaustive", None, effort)
        return Verdict(IRREGULAR, "Exhaustive", witness, effort)
    witness = find_delta_witness_greedy(g, thr, params.seed,
                                        restarts=params.random_trials)
    effort = {"trials": params.random_trials}
    if witness is None:
        return Verdict(UNKNOWN, "Randomized", None, effort)
    return Verdict(IRREGULAR, "Randomized", witness, effort)


# ---------------------------------------------------------------------------
# Randomized searches


def _greedy_walk(g: BipartiteGraph, thr: Threshold, amask: int, bmask: int,
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


def _peel(g: BipartiteGraph, thr: Threshold, amask: int, bmask: int
          ) -> Optional[tuple[int, int]]:
    """Greedy peeling from a starting pair; returns a violating pair or None.

    Walks down (see ``_greedy_walk``) and stops at the first pair with
    d' < d/2, or when the walk ends or its next removal does not lower the
    induced density.
    """
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    e = count_edges_between(g, amask, bmask)
    prev = None
    for am, bm, e2 in _greedy_walk(g, thr, amask, bmask, e, True):
        ka, kb = am.bit_count(), bm.bit_count()
        if prev is not None and e2 * prev[1] >= prev[0] * ka * kb:
            # No removal lowers the density any further.
            return None
        if 2 * e2 * na * nb < e_full * ka * kb:
            return am, bm
        prev = (e2, ka * kb)
    return None


def _random_subset(rng: random.Random, n: int, k: int) -> int:
    return subset_mask(rng.sample(range(n), k), n)


def _random_starts(g: BipartiteGraph, thr: Threshold, rng: random.Random,
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
        starts.append((_random_subset(rng, na, ka),
                       _random_subset(rng, nb, kb)))
    return starts


def find_delta_witness_greedy(g: BipartiteGraph, delta: ThresholdLike,
                              seed: int, restarts: int = 64
                              ) -> Optional[tuple[tuple[int, ...],
                                                  tuple[int, ...]]]:
    """Randomized witness search for the one-sided delta condition.

    Attempt 0 peels from the full sides; later attempts restart from
    uniformly random subsets meeting the size floors.  Any returned
    witness has been re-verified against the definition.
    """
    thr = _as_threshold(delta)
    if g.edge_count == 0:
        return None
    rng = random.Random(seed)
    for amask, bmask in _random_starts(g, thr, rng, restarts):
        found = _peel(g, thr, amask, bmask)
        if found is not None:
            witness = (_bits(found[0]), _bits(found[1]))
            if verify_delta_witness(g, thr, witness):
                return witness
    return None


def _random_eps_search(g: BipartiteGraph, eps: Fraction, params: CheckParams
                       ) -> tuple[Optional[tuple[tuple[int, ...],
                                                 tuple[int, ...]]], int]:
    """Random sampling plus greedy walks for the two-sided condition.

    From each start, walks down and then up (see ``_greedy_walk``) and
    returns the first pair on the way whose witness re-verifies.
    """
    thr = Threshold(eps)
    na, nb = g.left.size, g.right.size
    e_full = g.edge_count
    p, q = eps.numerator, eps.denominator
    nn = na * nb
    rng = random.Random(params.seed)
    trials = 0
    for amask, bmask in _random_starts(g, thr, rng, params.random_trials):
        trials += 1
        e = count_edges_between(g, amask, bmask)
        for want_low in (True, False):
            for am, bm, e2 in _greedy_walk(g, thr, amask, bmask, e, want_low):
                kk = am.bit_count() * bm.bit_count()
                # |d' - d| > eps, multiplied out as verify_eps_witness does.
                if abs(e2 * nn - e_full * kk) * q > p * kk * nn:
                    witness = (_bits(am), _bits(bm))
                    if verify_eps_witness(g, eps, witness):
                        return witness, trials
    return None, trials


# ---------------------------------------------------------------------------
# Partition-level checks


@dataclass(frozen=True)
class PartitionVerdict:
    """Aggregate of per-cluster-pair verdicts for one bipartite carrier."""

    status: str
    pair_verdicts: dict[tuple[int, int], Verdict]

    @property
    def failing_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.pair_verdicts.items()
                      if v.status == IRREGULAR)


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

    Aggregate is CertifiedRegular only when every pair certifies; any
    Unknown pair degrades the aggregate to UnknownNoWitnessFound.
    """
    verdicts: dict[tuple[int, int], Verdict] = {}
    for key, a_sub, b_sub in _iter_cluster_pairs(g, left_p, right_p):
        sub = induced_subgraph(g, a_sub, b_sub)
        verdicts[key] = check_delta_regular(sub, delta, params)
    statuses = {v.status for v in verdicts.values()}
    if statuses <= {CERTIFIED}:
        agg = CERTIFIED
    elif IRREGULAR in statuses:
        agg = IRREGULAR
    else:
        agg = UNKNOWN
    return PartitionVerdict(agg, verdicts)


@dataclass(frozen=True)
class EditResult:
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
    """Edit-budgeted form: up to delta * e(g) edge deletions are allowed.

    Canonical heuristic: a failing cluster pair has all its edges deleted
    iff its density is below delta times the overall density; no other
    edit is attempted.  NotCertified is one-sided (not a refutation).
    """
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


def degree_profile(g: BipartiteGraph, y_sub: Iterable[int], eps: Fraction
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
