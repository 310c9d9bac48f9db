"""3-graph regularity: auxiliary graphs, triad densities, subtriad scans,
octahedron quasirandomness, and the reduction to graph regularity.

Everything is exact.  Triad densities are rationals with the convention
d = 0 when the triad carries no triangles.  Subtriad checks take their
search mode, budget and verdicts from ``regcheck``, where every verdict is
made: CertifiedRegular only from an exhaustive scan, irregular verdicts
always carry a re-verified witness, and randomized searches otherwise
answer Unknown.  Partition-level checks read a 2-partition's edge family
from ``TwoPartition.graphs``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import kernels
from .errors import ClassSizeMismatch, FrameMismatch, ParameterOutOfContract
from .graphs import (BipartiteGraph, ThreeGraph, Triad, VertexClass,
                     density, iter_bits, subset_mask)
from .partitions import (ThreePartiteFrame, TwoPartition,
                         is_equitable, sub_partitions)
from .regcheck import (CERTIFIED, IRREGULAR, NOT_CERTIFIED,
                       UNKNOWN, CheckParams, EditResult,
                       PartitionVerdict, Threshold, Verdict,
                       check_delta_partition_with_edits, check_delta_regular,
                       check_eps_regular, check_perfect_delta_partition)

SUBTRIAD_EDGE_BUDGET = 20

MODE_TWO_THIRDS = 0
MODE_DEVIATION = 1


# ---------------------------------------------------------------------------
# Auxiliary graphs


_AXIS_ORDER = {1: (1, 2, 0), 2: (0, 2, 1)}


def auxiliary_graph(h: ThreeGraph, axis: int) -> BipartiteGraph:
    """The axis-``i`` auxiliary graph, pairs (v_j, v_k) against class i: the
    axis-3 graph of ``h`` with its classes reordered to (j, k, i)."""
    if axis not in (1, 2, 3):
        raise ParameterOutOfContract("axis must be 1, 2 or 3")
    if axis == 3:
        return h.graph
    order = _AXIS_ORDER[axis]
    return ThreeGraph(tuple(h.classes[x] for x in order),
                      (tuple(v[x] for x in order)
                       for v in h.sorted_triples())).graph


# ---------------------------------------------------------------------------
# Triads and their densities


@dataclass(frozen=True)
class TriadStats:
    """Triangle count, hyperedge-triangle count, and the exact density."""

    triad: Triad
    triangle_count: int
    h_edge_count: int

    @property
    def density(self) -> Fraction:
        if self.triangle_count == 0:
            return Fraction(0)
        return Fraction(self.h_edge_count, self.triangle_count)


def _check_embedding(h: ThreeGraph, t: Triad) -> None:
    for m, cls in zip(t.embedding, h.classes):
        for v in m:
            if not 0 <= v < cls.size:
                raise FrameMismatch(
                    f"embedded vertex {v} outside class of size {cls.size}")


def _triangle_masks(h: ThreeGraph, t: Triad) -> tuple[list[int], list[int]]:
    """The triangles of ``t`` and its hyperedge triangles, per AB pair.

    Entry a * |B| + b of the first list is the bitmask of the c with
    (a, b, c) a triangle, and of the second the bitmask of those whose
    embedded triple is a hyperedge of ``h``; both are 0 off the AB edges.
    FrameMismatch unless the embedding lies inside the classes of ``h``.
    When the C embedding is a run c0, c0 + 1, ... (the identity for every
    triad read from a file), a hyperedge mask is one shift and AND of the
    3-graph row; otherwise its bits are tested one triangle at a time.
    """
    _check_embedding(h, t)
    ea, eb, ec = t.embedding
    c0 = ec[0] if ec else 0
    run = ec == tuple(range(c0, c0 + len(ec)))
    h_rows, n2 = h.graph.rows, h.classes[1].size
    ac_rows, bc_rows = t.ac.rows, t.bc.rows
    nb = t.ab.right.size
    tm = [0] * (t.ab.left.size * nb)
    hm = [0] * len(tm)
    for a, row in enumerate(t.ab.rows):
        ac, base = ac_rows[a], ea[a] * n2
        for b in iter_bits(row):
            i = a * nb + b
            tm[i] = rest = ac & bc_rows[b]
            h_row = h_rows[base + eb[b]]
            if run:
                hm[i] = rest & h_row >> c0
                continue
            hmask = 0
            while rest:
                low = rest & -rest
                if h_row >> ec[low.bit_length() - 1] & 1:
                    hmask |= low
                rest ^= low
            hm[i] = hmask
    return tm, hm


def triad_density(h: ThreeGraph, t: Triad) -> TriadStats:
    """d_H(P) with the zero-triangle convention d = 0."""
    tm, hm = _triangle_masks(h, t)
    return TriadStats(t, sum(map(int.bit_count, tm)),
                      sum(map(int.bit_count, hm)))


# ---------------------------------------------------------------------------
# Subtriad checks (Frankl-Rodl deviation and the two-thirds hypothesis)


def _witness_triad(t: Triad, masks: tuple[int, int, int]) -> Triad:
    """The subtriad selected by masks over the sorted edge lists."""
    ab, ac, bc = (
        BipartiteGraph(g.left, g.right, (e for i, e in enumerate(
            g.sorted_edges()) if mask >> i & 1))
        for mask, g in zip(masks, (t.ab, t.ac, t.bc)))
    return Triad(ab, ac, bc, embedding=t.embedding)


def verify_subtriad_witness(h: ThreeGraph, t: Triad,
                            masks: tuple[int, int, int], mode: int,
                            value: Fraction) -> bool:
    """Recount a claimed violating subtriad from scratch, exactly."""
    return _violates(h, t, masks, mode, value, triad_density(h, t))


def _violates(h: ThreeGraph, t: Triad, masks: tuple[int, int, int],
              mode: int, value: Fraction, full: TriadStats) -> bool:
    """``verify_subtriad_witness`` given ``full``, the counts of ``t``."""
    sub = triad_density(h, _witness_triad(t, masks))
    tf, ts = full.triangle_count, sub.triangle_count
    ef, es = full.h_edge_count, sub.h_edge_count
    if ts * value.denominator < value.numerator * tf:
        return False
    if mode == MODE_TWO_THIRDS:
        return 3 * es * tf < 2 * ef * ts
    dev = abs(es * tf - ef * ts)
    return dev * value.denominator > value.numerator * tf * ts


def _subtriad_scan_verdict(h: ThreeGraph, t: Triad, mode: int,
                           value: Fraction, params: CheckParams) -> Verdict:
    """Shared driver for the two subtriad predicates."""
    value = Fraction(value)
    if not 0 < value <= 1:
        raise ParameterOutOfContract("parameter must satisfy 0 < value <= 1")
    ab, ac, bc = (g.sorted_edges() for g in (t.ab, t.ac, t.bc))
    search = params.pick_mode(len(ab) + len(ac) + len(bc),
                              SUBTRIAD_EDGE_BUDGET, "triad edge count")
    tm, hm = _triangle_masks(h, t)
    full = TriadStats(t, sum(map(int.bit_count, tm)),
                      sum(map(int.bit_count, hm)))
    if search == "exhaustive":
        nb = t.ab.right.size
        # Per BC edge (b, c): the a whose triangle (a, b, c) is a hyperedge.
        bc_h = []
        for b, c in bc:
            amask = 0
            for a in iter_bits(t.ab.cols[b]):
                if hm[a * nb + b] >> c & 1:
                    amask |= 1 << a
            bc_h.append(amask)
        found, states = kernels.scan_subtriads(
            ab, ac, bc, nb, t.ac.right.size, bc_h, mode, value.numerator,
            value.denominator)
        witness = found[:3] if found else None
        if witness is not None and \
                not _violates(h, t, witness, mode, value, full):
            raise RuntimeError(f"scan_subtriads returned {witness}, which "
                               "does not re-verify")
        return Verdict.of_search(search, witness, {"subtriads": states})
    witness = _random_subtriad_search(h, t, (ab, ac, bc), mode, value, params,
                                      full)
    return Verdict.of_search(search, witness, {"trials": params.random_trials})


def _random_subtriad_search(h: ThreeGraph, t: Triad, edges, mode: int,
                            value: Fraction, params: CheckParams,
                            full: TriadStats
                            ) -> Optional[tuple[int, int, int]]:
    """Sample random subsets of ``edges`` and vertex-induced subtriads."""
    rng = random.Random(params.seed)
    ab, ac, bc = edges
    na, nb, nc = t.sizes
    for _ in range(params.random_trials):
        if rng.random() < Fraction(1, 2):
            masks = tuple(rng.getrandbits(len(edges)) if edges else 0
                          for edges in (ab, ac, bc))
        else:
            # Vertex-induced: keep edges inside random vertex subsets.
            amask = rng.getrandbits(na)
            bmask = rng.getrandbits(nb)
            cmask = rng.getrandbits(nc)
            masks = (
                sum(1 << i for i, (a, b) in enumerate(ab)
                    if amask >> a & 1 and bmask >> b & 1),
                sum(1 << i for i, (a, c) in enumerate(ac)
                    if amask >> a & 1 and cmask >> c & 1),
                sum(1 << i for i, (b, c) in enumerate(bc)
                    if bmask >> b & 1 and cmask >> c & 1),
            )
        if _violates(h, t, masks, mode, value, full):
            return masks
    return None


def check_fr_triad(h: ThreeGraph, t: Triad, eps: Fraction,
                   params: CheckParams = CheckParams()) -> Verdict:
    """Deviation regularity of a triad: every subtriad carrying an
    eps-fraction of the triangles has density within eps of d_H(P)."""
    return _subtriad_scan_verdict(h, t, MODE_DEVIATION, eps, params)


def check_subtriad_hypothesis(h: ThreeGraph, t: Triad, delta: Fraction,
                              params: CheckParams = CheckParams()) -> Verdict:
    """One-sided hypothesis: every subtriad with t(P') >= delta * t(P)
    keeps at least two thirds of the density."""
    return _subtriad_scan_verdict(h, t, MODE_TWO_THIRDS, delta, params)


# ---------------------------------------------------------------------------
# Partition plumbing shared by the partition-level checks


def _frame_of(h: ThreeGraph) -> ThreePartiteFrame:
    return ThreePartiteFrame(h.classes)


def is_delta_good(tp: TwoPartition, delta, params: CheckParams = CheckParams()
                  ) -> PartitionVerdict:
    """Every graph (i, j, block) of ``tp.graphs`` is delta-regular."""
    return PartitionVerdict.of({
        key: check_delta_regular(g, delta, params)
        for key, g in sorted(tp.graphs.items())})


def _unknown_caveats(labelled: Iterable[tuple[str, str]], counted_as: str
                     ) -> list[str]:
    """One caveat per (label, status) pair whose status is unknown."""
    return [f"{label}: unknown verdict counted as {counted_as}"
            for label, status in labelled if status == UNKNOWN]


@dataclass(frozen=True)
class ThreePartitionReport:
    goodness: PartitionVerdict
    axes: tuple[EditResult, EditResult, EditResult]  # axes 1, 2, 3
    passed: bool
    caveats: tuple[str, ...]


def check_delta_regular_3partition(h: ThreeGraph, tp: TwoPartition, delta,
                                   params: CheckParams = CheckParams()
                                   ) -> ThreePartitionReport:
    """Goodness of (Z, E) plus, per axis i, the edit-budgeted regularity of
    the combined partition of the auxiliary graph of axis i (edge family on
    the product side, clusters on the class side)."""
    zs, es = sub_partitions(tp, _frame_of(h))
    goodness = is_delta_good(tp, delta, params)
    axes = []
    caveats: list[str] = []
    for axis in (1, 2, 3):
        res = check_delta_partition_with_edits(
            auxiliary_graph(h, axis), es[axis - 1], zs[axis - 1], delta,
            params)
        axes.append(res)
        caveats += _unknown_caveats(
            ((f"axis {axis} pair {key}", v.status)
             for key, v in res.pair_verdicts.items()), "regular")
    passed = (goodness.status != IRREGULAR
              and all(res.status != NOT_CERTIFIED for res in axes))
    if goodness.status == UNKNOWN:
        caveats.append("goodness: unknown verdicts counted as regular")
    return ThreePartitionReport(goodness, tuple(axes), passed,
                                tuple(caveats))


@dataclass(frozen=True)
class EquipartitionReport:
    """Order, equitability, density windows and regularity of the family."""

    order_ok: bool
    equitable: bool
    density_violations: tuple[tuple[int, int, int], ...]
    member_verdicts: dict[tuple[int, int, int], Verdict]
    passed: bool
    caveats: tuple[str, ...]


def check_equipartition_params(tp: TwoPartition, ell: int, t: int,
                               eps2: Fraction,
                               params: CheckParams = CheckParams()
                               ) -> EquipartitionReport:
    """Verify the (ell, t, eps2) shape: |Z| = t equitable, and every member
    of the edge family eps2-regular of density within eps2 of 1/ell."""
    if ell < 1 or t < 1:
        raise ParameterOutOfContract("ell and t must be >= 1")
    eps2 = Fraction(eps2)
    if eps2 <= 0:
        raise ParameterOutOfContract("eps2 must be positive")
    order_ok = tp.z.order == t
    equitable = is_equitable(tp.z)
    target = Fraction(1, ell)
    bad_density = []
    verdicts = {}
    for key, g in sorted(tp.graphs.items()):
        d = density(g)
        if not target - eps2 <= d <= target + eps2:
            bad_density.append(key)
        verdicts[key] = check_eps_regular(g, eps2, params)
    caveats = _unknown_caveats(((f"member {key}", v.status)
                                for key, v in verdicts.items()), "regular")
    passed = (order_ok and equitable and not bad_density
              and all(v.status != IRREGULAR for v in verdicts.values()))
    return EquipartitionReport(order_ok, equitable, tuple(bad_density),
                               verdicts, passed, tuple(caveats))


# ---------------------------------------------------------------------------
# Triad enumeration over a 2-partition


@dataclass(frozen=True)
class PartitionTriad:
    """One triad of a 2-partition: a cluster triple (one per frame class)
    and one edge-family member per cluster pair, reindexed locally with an
    embedding back into the 3-graph's classes."""

    clusters: tuple[int, int, int]
    block_ids: tuple[int, int, int]
    triad: Triad


def iter_partition_triads(h: ThreeGraph, tp: TwoPartition
                          ) -> Iterator[PartitionTriad]:
    """All triads with one cluster per class of ``h``.

    Cluster triples not meeting every class carry no hyperedges (the
    3-graph is 3-partite), so every subtriad there has density 0 and the
    triad is regular by convention; they are skipped.  FrameMismatch
    unless the clusters refine the frame of ``h``.
    """
    layout = _frame_of(h).cluster_layout(tp.z)
    by_class = [[i for i, (cls, _) in enumerate(layout) if cls == c]
                for c in range(3)]
    pairs: dict[tuple[int, int], list[tuple[int, BipartiteGraph]]] = {}
    for (i, j, k), g in sorted(tp.graphs.items()):
        pairs.setdefault((i, j), []).append((k, g))

    def oriented(i: int, j: int) -> list[tuple[int, BipartiteGraph]]:
        """The blocks of pair {i, j} as graphs from cluster i to cluster j;
        a pair is transposed on its first use only."""
        if i > j and (i, j) not in pairs:
            pairs[(i, j)] = [(k, g.transpose())
                             for k, g in pairs.get((j, i), ())]
        return pairs.get((i, j), [])

    for ia in by_class[0]:
        for ib in by_class[1]:
            for ic in by_class[2]:
                emb = (layout[ia][1], layout[ib][1], layout[ic][1])
                for bi, gab in oriented(ia, ib):
                    for bj, gac in oriented(ia, ic):
                        for bk, gbc in oriented(ib, ic):
                            yield PartitionTriad(
                                (ia, ib, ic), (bi, bj, bk),
                                Triad(gab, gac, gbc, embedding=emb))


@dataclass(frozen=True)
class TriadJudgment:
    clusters: tuple[int, int, int]
    block_ids: tuple[int, int, int]
    triangle_count: int
    verdict_status: str


@dataclass(frozen=True)
class MassReport:
    """Partition-level judgment: triangle mass on failing triads vs bound."""

    equip: EquipartitionReport
    judgments: tuple[TriadJudgment, ...]
    irregular_mass: int
    bound: Fraction
    passed: bool
    caveats: tuple[str, ...]


def _judge_triads(h: ThreeGraph, tp: TwoPartition,
                  judge: Callable[[Triad], str], counted_as: str
                  ) -> tuple[tuple[TriadJudgment, ...], list[str]]:
    """Every triad of ``tp`` with its triangle count and ``judge``'s
    status, and a caveat per unknown status counted as ``counted_as``."""
    judgments = []
    for pt in iter_partition_triads(h, tp):
        t = pt.triad
        count = kernels.triangle_count(t.ab.rows, t.ac.rows, t.bc.rows)
        judgments.append(TriadJudgment(pt.clusters, pt.block_ids, count,
                                       judge(t)))
    caveats = _unknown_caveats(
        ((f"triad {j.clusters}/{j.block_ids}", j.verdict_status)
         for j in judgments), counted_as)
    return tuple(judgments), caveats


def _mass_report(h: ThreeGraph, tp: TwoPartition, ell: int, t: int,
                 eps2: Fraction, threshold: Fraction,
                 judge: Callable[[Triad], str],
                 params: CheckParams) -> MassReport:
    equip = check_equipartition_params(tp, ell, t, eps2, params)
    caveats = list(equip.caveats)
    if not equip.passed:
        caveats.append("equipartition precondition failed")
    judgments, unknown = _judge_triads(h, tp, judge, "regular")
    caveats += unknown
    mass = sum(j.triangle_count for j in judgments
               if j.verdict_status == IRREGULAR)
    n_total = _frame_of(h).total
    bound = Fraction(threshold) * n_total ** 3
    passed = equip.passed and mass <= bound
    return MassReport(equip, judgments, mass, bound, passed, tuple(caveats))


def check_fr_partition(h: ThreeGraph, tp: TwoPartition, ell: int, t: int,
                       eps2: Fraction, eps: Fraction,
                       params: CheckParams = CheckParams()) -> MassReport:
    """Partition form of deviation regularity: the triangle mass on triads
    that fail the eps-check must not exceed eps * |V|^3."""
    eps = Fraction(eps)

    def judge(triad: Triad) -> str:
        return check_fr_triad(h, triad, eps, params).status

    return _mass_report(h, tp, ell, t, eps2, eps, judge, params)


def check_quasirandom_partition(h: ThreeGraph, tp: TwoPartition, ell: int,
                                t: int, eps2: Fraction, alpha: Fraction,
                                params: CheckParams = CheckParams()
                                ) -> MassReport:
    """Partition form of quasirandomness: triangle mass on triads that are
    not alpha-quasirandom must not exceed alpha * |V|^3."""
    alpha = Fraction(alpha)

    def judge(triad: Triad) -> str:
        report = check_quasirandom_triad(h, triad, alpha)
        return CERTIFIED if report.verdict else IRREGULAR

    return _mass_report(h, tp, ell, t, eps2, alpha, judge, params)


# ---------------------------------------------------------------------------
# Octahedron sums and quasirandomness


def _scaled_f(h: ThreeGraph, t: Triad) -> tuple[int, int, int,
                                                list[int], list[int]]:
    """(n, tau, ecount, hyperedge masks, triangle masks) for scaled f.

    tau = t(P); the scaled function tau*f takes tau - e on hyperedge
    triangles, -e on the other triangles, and 0 off the triangle support,
    where e = |E(H) intersect T(P)|.  Requires equal class sizes.
    """
    na, nb, nc = t.sizes
    if not na == nb == nc:
        raise ClassSizeMismatch(
            f"octahedron sum needs equal class sizes, got {t.sizes}")
    tm, hm = _triangle_masks(h, t)
    return (na, sum(map(int.bit_count, tm)), sum(map(int.bit_count, hm)),
            hm, tm)


def octahedron_sum_naive(h: ThreeGraph, t: Triad) -> Fraction:
    """The full six-index octahedron sum, computed literally in O(n^6).

    Serves as the independent oracle for the fast version; do not reuse
    its loop structure there.
    """
    n, tau, ecount, hm, tm = _scaled_f(h, t)
    if tau == 0:
        return Fraction(0)
    hi = tau - ecount
    lo = -ecount
    vals = [[0] * n for _ in range(n * n)]
    for xy in range(n * n):
        for z in range(n):
            if tm[xy] >> z & 1:
                vals[xy][z] = hi if hm[xy] >> z & 1 else lo
    total = 0
    for x0 in range(n):
        for x1 in range(n):
            for y0 in range(n):
                for y1 in range(n):
                    v00 = vals[x0 * n + y0]
                    v01 = vals[x0 * n + y1]
                    v10 = vals[x1 * n + y0]
                    v11 = vals[x1 * n + y1]
                    for z0 in range(n):
                        for z1 in range(n):
                            total += (v00[z0] * v00[z1] * v01[z0] * v01[z1]
                                      * v10[z0] * v10[z1] * v11[z0] * v11[z1])
    return Fraction(total, tau ** 8)


def octahedron_sum_fast(h: ThreeGraph, t: Triad) -> Fraction:
    """Same value as the naive sum, via the z-collapse and the
    bit-sliced kernel: O(n^4) popcounts of the S, U, V triangle masks."""
    n, tau, ecount, hm, tm = _scaled_f(h, t)
    if tau == 0:
        return Fraction(0)
    scaled = kernels.octahedron_fast_scaled(n, tau, ecount, hm, tm)
    return Fraction(scaled, tau ** 8)


@dataclass(frozen=True)
class QuasirandomReport:
    octahedron_sum: Fraction
    bound: Fraction
    verdict: bool
    d0: Fraction
    d1: Fraction
    d2: Fraction
    unequal_densities: bool


def check_quasirandom_triad(h: ThreeGraph, t: Triad, alpha: Fraction
                            ) -> QuasirandomReport:
    """Octahedron sum against alpha * d^12 * n^6, exactly.

    When the three side densities differ (outside the definition's stated
    domain) the density term becomes (d0*d1*d2)^4, which coincides with
    d^12 when they agree; the report is flagged.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ParameterOutOfContract("alpha must be nonnegative")
    d0 = density(t.ab)
    d1 = density(t.ac)
    d2 = density(t.bc)
    unequal = not (d0 == d1 == d2)
    density_term = (d0 * d1 * d2) ** 4
    n = t.sizes[0]
    total = octahedron_sum_fast(h, t)
    bound = alpha * density_term * n ** 6
    return QuasirandomReport(total, bound, total <= bound, d0, d1, d2,
                             unequal)


# ---------------------------------------------------------------------------
# Schacht hypothesis and the counting band


def schacht_predicate(t: Triad, h: ThreeGraph, eps: Fraction, C: int,
                      params: CheckParams = CheckParams()) -> bool:
    """Hypothesis side of the quasirandomness-to-regularity implication:
    the triad is eps^C-quasirandom and each side graph is d^C-regular.

    ``C`` has no default: only its existence is asserted, so the caller
    must choose.  Unknown side verdicts make the hypothesis unaffirmed
    (returns False), keeping downstream implication tests sound.
    """
    if C < 1:
        raise ParameterOutOfContract("C must be >= 1")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ParameterOutOfContract("eps must satisfy 0 < eps <= 1")
    qr = check_quasirandom_triad(h, t, eps ** C)
    if not qr.verdict:
        return False
    for g in (t.ab, t.ac, t.bc):
        d = density(g)
        if d == 0:
            continue  # zero-density sides are regular for any parameter
        delta = d ** C
        if delta > 1:
            delta = Fraction(1)
        v = check_delta_regular(g, delta, params)
        if v.status != CERTIFIED:
            return False
    return True


@dataclass(frozen=True)
class CountingBand:
    triangle_count: int
    lower: Fraction
    upper: Fraction
    in_band: bool


def triangle_count_bound(t: Triad, eps: Fraction) -> CountingBand:
    """t(P) against the product-density band with slack 7 * eps."""
    eps = Fraction(eps)
    na, nb, nc = t.sizes
    count = kernels.triangle_count(t.ab.rows, t.ac.rows, t.bc.rows)
    prod = density(t.ab) * density(t.ac) * density(t.bc)
    volume = na * nb * nc
    lower = (prod - 7 * eps) * volume
    upper = (prod + 7 * eps) * volume
    return CountingBand(count, lower, upper, lower <= count <= upper)


# ---------------------------------------------------------------------------
# The reduction pipeline


@dataclass(frozen=True)
class SubtriadHypothesisReport:
    judgments: tuple[TriadJudgment, ...]
    holds: bool
    caveats: tuple[str, ...]


def subtriad_hypothesis_check(h: ThreeGraph, tp: TwoPartition,
                              delta: Fraction,
                              params: CheckParams = CheckParams()
                              ) -> SubtriadHypothesisReport:
    """The two-thirds hypothesis over every triad of the 2-partition."""
    delta = Fraction(delta)

    def judge(triad: Triad) -> str:
        return check_subtriad_hypothesis(h, triad, delta, params).status

    judgments, caveats = _judge_triads(h, tp, judge, "holding")
    holds = all(j.verdict_status != IRREGULAR for j in judgments)
    return SubtriadHypothesisReport(judgments, holds, tuple(caveats))


@dataclass(frozen=True)
class IdentityCheck:
    """Exact identities for triads of the form (E, A x C, B x C)."""

    block_key: tuple[int, int, int]
    cluster_c: int
    t_equals_e_times_c: bool
    densities_equal: bool


@dataclass(frozen=True)
class ReductionReport:
    equip: EquipartitionReport
    hypothesis: SubtriadHypothesisReport
    eps2_bound_ok: bool
    identities: tuple[IdentityCheck, ...]
    partition_verdict: PartitionVerdict
    passed: bool
    caveats: tuple[str, ...]


def reduction_check(h: ThreeGraph, tp: TwoPartition, delta: Fraction,
                    ell: int, t: int, eps2: Fraction,
                    params: CheckParams = CheckParams()) -> ReductionReport:
    """The reduction to graph regularity on axis 3.

    Preconditions: the (ell, t, eps2) shape, the two-thirds subtriad
    hypothesis, and eps2 <= (delta^2 / 88) / ell^3.  Conclusion checked:
    the axis-3 edge family and clusters form a perfectly 2*sqrt(delta)-
    regular partition of the axis-3 auxiliary graph, with the irrational
    threshold handled by comparing squares.  Also verifies, for every
    (E, C) pair, the exact identities t(P) = |E| * |C| and
    d_aux(E, C) = d_H(E, A x C, B x C).
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ParameterOutOfContract("delta must satisfy 0 < delta <= 1")
    zs, es = sub_partitions(tp, _frame_of(h))
    equip = check_equipartition_params(tp, ell, t, eps2, params)
    hypothesis = subtriad_hypothesis_check(h, tp, delta, params)
    eps2_ok = Fraction(eps2) <= (delta ** 2 / 88) * Fraction(1, ell ** 3)

    caveats = list(equip.caveats) + list(hypothesis.caveats)
    if not equip.passed:
        caveats.append("equipartition precondition failed")
    if not hypothesis.holds:
        caveats.append("subtriad hypothesis precondition failed")
    if not eps2_ok:
        caveats.append("eps2 exceeds (delta^2/88) * ell^-3")

    identities = _reduction_identities(h, tp)

    threshold = Threshold.sqrt_of(4 * delta)  # 2*sqrt(delta) = sqrt(4*delta)
    if not threshold.le_one():
        threshold = Threshold(Fraction(1))
    pv = check_perfect_delta_partition(auxiliary_graph(h, 3), es[2], zs[2],
                                       threshold, params)
    caveats += _unknown_caveats(((f"axis 3 pair {key}", v.status)
                                 for key, v in pv.pair_verdicts.items()),
                                "regular")
    passed = (equip.passed and hypothesis.holds and eps2_ok
              and all(i.t_equals_e_times_c and i.densities_equal
                      for i in identities)
              and pv.status != IRREGULAR)
    return ReductionReport(equip, hypothesis, eps2_ok, identities, pv,
                           passed, tuple(caveats))


def _reduction_identities(h: ThreeGraph, tp: TwoPartition
                          ) -> tuple[IdentityCheck, ...]:
    """For each axis-3 family member E between clusters (A, B) and each
    cluster C of the third class: t(E, A x C, B x C) = |E| * |C| and the
    auxiliary-graph density of (E, C) equals d_H of that triad."""
    layout = _frame_of(h).cluster_layout(tp.z)
    checks = []
    c_clusters = [i for i, (cls, _) in enumerate(layout) if cls == 2]
    for key, g in sorted(tp.graphs.items()):
        i, j, _ = key
        if (layout[i][0], layout[j][0]) == (1, 0):
            i, j, g = j, i, g.transpose()
        (cls_a, a_vs), (cls_b, b_vs) = layout[i], layout[j]
        if (cls_a, cls_b) != (0, 1) or g.edge_count == 0:
            continue
        for ci in c_clusters:
            t_ok, d_ok = _reduction_identity(h, g.sorted_edges(), a_vs, b_vs,
                                             layout[ci][1])
            checks.append(IdentityCheck(key, ci, t_ok, d_ok))
    return tuple(checks)


def _reduction_identity(h: ThreeGraph, e_edges: Iterable[tuple[int, int]],
                        a_vs: Sequence[int], b_vs: Sequence[int],
                        c_vs: Sequence[int]) -> tuple[bool, bool]:
    """For E (edges on local indices into the class-1 vertices ``a_vs`` and
    the class-2 vertices ``b_vs`` of ``h``) and C (class-3 vertices
    ``c_vs``): whether t(E, A x C, B x C) = |E| * |C|, and whether the
    axis-3 auxiliary-graph density of (E, C) equals d_H of that triad."""
    a_cls = VertexClass(0, len(a_vs))
    b_cls = VertexClass(1, len(b_vs))
    c_cls = VertexClass(2, len(c_vs))
    e = BipartiteGraph(a_cls, b_cls, e_edges)
    triad = Triad(e, BipartiteGraph.complete(a_cls, c_cls),
                  BipartiteGraph.complete(b_cls, c_cls),
                  embedding=(a_vs, b_vs, c_vs))
    stats = triad_density(h, triad)
    pairs = e.edge_count * len(c_vs)
    n2, cmask = h.classes[1].size, subset_mask(c_vs, h.classes[2].size)
    hits = sum((h.graph.rows[a_vs[a] * n2 + b_vs[b]] & cmask).bit_count()
               for a, b in e.sorted_edges())
    return (stats.triangle_count == pairs,
            Fraction(hits, pairs) == stats.density)
