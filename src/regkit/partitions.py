"""Vertex partitions, 2-partitions and their projection onto a 3-partite
frame, and the exact and approximate refinement algebra.

All set arithmetic is exact.  The approximate containment ``S c_beta T``
means ``|S \\ T| < beta * |S|`` (strict, as defined), with the degenerate
reading that ``S c_0 T`` iff ``S`` is an ordinary subset of ``T``; so
approximate refinement at ``beta = 0`` is exact refinement.  It is decided
for ``0 <= beta <= 1/2`` only, where a set is beta-inside at most one block
of a partition: the block holding more than half of it, read off as the
most common label over the set (on a tie no block qualifies).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (DegenerateInput, FrameMismatch, GroundMismatch,
                     NotDisjoint, ParameterOutOfContract, PreconditionFailed)
from .graphs import BipartiteGraph, Value, VertexClass, induced_subgraph

HALF = Fraction(1, 2)


class VertexPartition(Value):
    """A partition of 0..ground.size-1 into disjoint nonempty blocks."""

    __slots__ = _fields = ("ground", "blocks")

    def __init__(self, ground: VertexClass,
                 blocks: tuple[frozenset[int], ...]):
        if not blocks:
            raise DegenerateInput("partition with no blocks")
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise DegenerateInput("empty partition block")
            if block & seen:
                raise NotDisjoint("partition blocks overlap")
            seen |= block
        if seen != set(range(ground.size)):
            raise DegenerateInput("partition blocks do not cover the ground")
        self.ground = ground
        self.blocks = blocks

    @property
    def order(self) -> int:
        return len(self.blocks)

    def labels(self) -> list[int]:
        out = [0] * self.ground.size
        for i, block in enumerate(self.blocks):
            for v in block:
                out[v] = i
        return out

    @staticmethod
    def from_labels(ground: VertexClass, labels: Sequence[int]
                    ) -> "VertexPartition":
        if len(labels) != ground.size:
            raise DegenerateInput("label vector length != ground size")
        k = max(labels, default=-1) + 1
        blocks = [set() for _ in range(k)]
        for v, lab in enumerate(labels):
            blocks[lab].add(v)
        return VertexPartition(ground, tuple(frozenset(b) for b in blocks
                                             if b))


class ThreePartiteFrame(NamedTuple):
    """Three disjoint vertex classes sharing one combined index space.

    Class ``i`` occupies combined indices ``offset(i) .. offset(i)+n_i``.
    """

    classes: tuple[VertexClass, VertexClass, VertexClass]

    def offset(self, i: int) -> int:
        return sum(c.size for c in self.classes[:i])

    @property
    def total(self) -> int:
        return sum(c.size for c in self.classes)

    def combined_class(self, label: int = -2) -> VertexClass:
        return VertexClass(label, self.total)

    def class_of(self, v: int) -> int:
        off = 0
        for i, c in enumerate(self.classes):
            if v < off + c.size:
                return i
            off += c.size
        raise IndexError(f"combined index {v} out of range")

    def to_combined(self, i: int, v: int) -> int:
        return v + self.offset(i)

    def cluster_layout(self, z: VertexPartition
                       ) -> list[tuple[int, tuple[int, ...]]]:
        """Per block of ``z``: its frame class and its sorted vertices as
        indices local to that class.

        FrameMismatch unless ``z`` has the frame's ground size (its class
        id is advisory; loaded files use 0) and refines the frame.
        """
        if z.ground.size != self.total:
            raise FrameMismatch("2-partition ground differs from the frame")
        layout = []
        for block in z.blocks:
            vs = sorted(block)
            cls = self.class_of(vs[0])
            if self.class_of(vs[-1]) != cls:
                raise FrameMismatch(
                    "vertex partition does not refine the frame")
            off = self.offset(cls)
            layout.append((cls, tuple(v - off for v in vs)))
        return layout

    def place(self, tp: TwoPartition) -> tuple[tuple, tuple]:
        """``cluster_layout(tp.z)`` and every graph of ``tp.graphs`` between
        clusters of two different classes, as ``(key, ci, cj, g)`` in
        ``tp.graphs`` order: ``g`` runs from cluster ci, the one in the
        lower class, to cluster cj.  This is the one place that orients a
        block across classes.

        Worked out once per frame (its classes) and kept on ``tp``, so
        both parts are tuples; a FrameMismatch is raised on every call and
        never kept.
        """
        placement = tp._placements.get(self.classes)
        if placement is None:
            layout = tuple(self.cluster_layout(tp.z))
            blocks = []
            for (i, j, k), g in tp.graphs.items():
                if layout[i][0] < layout[j][0]:
                    blocks.append(((i, j, k), i, j, g))
                elif layout[i][0] > layout[j][0]:
                    blocks.append(((i, j, k), j, i, g.transpose()))
            placement = tp._placements[self.classes] = (layout, tuple(blocks))
        return placement

    def frame_partition(self) -> VertexPartition:
        blocks = []
        off = 0
        for c in self.classes:
            blocks.append(frozenset(range(off, off + c.size)))
            off += c.size
        return VertexPartition(self.combined_class(), tuple(blocks))


class TwoPartition(Value):
    """A vertex partition ``z`` (the clusters) plus an edge family that cuts
    the complete bipartite graph of every cluster pair into blocks.

    Each block is ``(i, j, g)`` with ``i < j``: ``g`` is a bipartite graph
    from cluster i to cluster j on the classes ``VertexClass(i, |Z_i|)`` and
    ``VertexClass(j, |Z_j|)``, on indices into the clusters' sorted vertex
    lists.  The blocks of a pair are edge-disjoint and cover its product;
    anything else raises DegenerateInput naming the pair.
    ``ThreePartiteFrame.place`` keeps the 2-partition's placement on each
    frame here, as ``graphs`` is kept.  Neither enters equality, hash or
    repr.
    """

    _fields = ("z", "blocks")

    def __init__(self, z: VertexPartition,
                 blocks: tuple[tuple[int, int, BipartiteGraph], ...]):
        sides = [VertexClass(i, len(b)) for i, b in enumerate(z.blocks)]
        by_pair: dict[tuple[int, int], list[BipartiteGraph]] = {}
        for i, j, g in blocks:
            if not 0 <= i < j < len(sides):
                raise DegenerateInput(
                    f"edge block tagged with bad pair ({i},{j})")
            if (g.left, g.right) != (sides[i], sides[j]):
                raise DegenerateInput(
                    f"pair ({i},{j}): graph on classes {g.left} and "
                    f"{g.right}, not {sides[i]} and {sides[j]}")
            by_pair.setdefault((i, j), []).append(g)
        problems = []
        for i, j in combinations(range(len(sides)), 2):
            gs = by_pair.get((i, j), ())
            covered = sum(reduce(or_, rows).bit_count()
                          for rows in zip(*(g.rows for g in gs)))
            if covered != sum(g.edge_count for g in gs):
                problems.append(
                    f"pair ({i},{j}): duplicated edge (NotDisjoint)")
            missing = sides[i].size * sides[j].size - covered
            if missing:
                problems.append(
                    f"pair ({i},{j}): {missing} product edge(s) missing")
        if problems:
            raise DegenerateInput("; ".join(problems))
        self.z = z
        self.blocks = blocks
        self._placements: dict = {}

    @cached_property
    def graphs(self) -> Mapping[tuple[int, int, int], BipartiteGraph]:
        """The blocks keyed (i, j, k), the k-th block of pair (i, j) in
        ``blocks`` order; keys come in ``blocks`` order.  Read-only."""
        seen: dict[tuple[int, int], int] = {}
        graphs = {}
        for i, j, g in self.blocks:
            k = seen.get((i, j), 0)
            seen[(i, j)] = k + 1
            graphs[(i, j, k)] = g
        return MappingProxyType(graphs)


def complete_two_partition(z: VertexPartition) -> TwoPartition:
    """The 2-partition whose edge family has one complete graph per pair."""
    sides = [VertexClass(i, len(b)) for i, b in enumerate(z.blocks)]
    return TwoPartition(z, tuple(
        (i, j, BipartiteGraph.complete(sides[i], sides[j]))
        for i, j in combinations(range(z.order), 2)))


# ---------------------------------------------------------------------------
# Refinement algebra


def _refinement_hosts(q: VertexPartition, p: VertexPartition,
                      beta: Fraction) -> Optional[list[Optional[int]]]:
    """Per block of q, the index of the p-block it is beta-inside, or None;
    the list is None as a whole unless q beta-refines p."""
    if q.ground != p.ground:
        raise GroundMismatch(f"grounds differ: {q.ground} vs {p.ground}")
    beta = Fraction(beta)
    if beta > HALF:
        raise ParameterOutOfContract("beta must be <= 1/2")
    if beta < 0:
        raise ParameterOutOfContract("beta must be >= 0")
    num, den = beta.numerator, beta.denominator
    owner = p.labels()
    hosts = []
    for s in q.blocks:
        label, held = Counter(map(owner.__getitem__, s)).most_common(1)[0]
        astray = len(s) - held
        inside = astray == 0 or astray * den < num * len(s)
        hosts.append(label if inside else None)
    stray = sum(len(s) for s, host in zip(q.blocks, hosts) if host is None)
    return hosts if stray * den <= num * q.ground.size else None


def approx_refines(q: VertexPartition, p: VertexPartition,
                   beta: Fraction) -> bool:
    """Mass of q-blocks not beta-inside any p-block is at most beta*n."""
    return _refinement_hosts(q, p, beta) is not None


def is_equitable(p: VertexPartition) -> bool:
    sizes = {len(b) for b in p.blocks}
    return len(sizes) == 1


def refinement_union_extract(q: VertexPartition, p: VertexPartition,
                             delta: Fraction
                             ) -> tuple[frozenset[int], frozenset[int]]:
    """A block P of p and the union Q of q-blocks delta-inside it, with
    |P symdiff Q| <= 3*delta*|P|.

    Constructive form of the refinement-union bound: among all blocks the one
    minimizing the relative symmetric difference is returned (an averaging
    argument shows the bound holds for it).
    """
    delta = Fraction(delta)
    return _union_extract(q, p, delta, _refinement_hosts(q, p, delta))


def _union_extract(q: VertexPartition, p: VertexPartition, delta: Fraction,
                   hosts: Optional[list[Optional[int]]]
                   ) -> tuple[frozenset[int], frozenset[int]]:
    """``refinement_union_extract`` given ``_refinement_hosts(q, p, delta)``,
    for a caller that has already computed the hosts."""
    if hosts is None:
        raise PreconditionFailed("q is not an approximate refinement of p")
    unions: list[set[int]] = [set() for _ in p.blocks]
    for qb, host in zip(q.blocks, hosts):
        if host is not None:
            unions[host] |= qb
    best = None
    for pb, union in zip(p.blocks, unions):
        sym = len(pb ^ union)
        key = Fraction(sym, len(pb))
        if best is None or key < best[0]:
            best = (key, pb, frozenset(union))
    if best is None:
        raise DegenerateInput("partition with no blocks")
    _, pb, union = best
    if Fraction(len(pb ^ union)) > 3 * delta * len(pb):
        # Cannot happen when the precondition holds; guard against misuse.
        raise PreconditionFailed("no block meets the symmetric-difference bound")
    return pb, union


def restrict_vertex_partition(p: VertexPartition,
                              sub: Iterable[int]) -> VertexPartition:
    """Traces of p's blocks on ``sub`` (empty traces dropped).

    The restricted ground is reindexed 0..|sub|-1 in the order of the
    original indices.
    """
    sub = sorted(set(sub))
    if not sub:
        raise DegenerateInput("restriction to an empty subset")
    for v in sub:
        if not 0 <= v < p.ground.size:
            raise IndexError(f"subset vertex {v} out of range")
    pos = {v: i for i, v in enumerate(sub)}
    ground = VertexClass(p.ground.id, len(sub))
    blocks = tuple(frozenset(pos[v] for v in block if v in pos)
                   for block in p.blocks)
    return VertexPartition(ground, tuple(b for b in blocks if b))


def restrict_two_partition(tp: TwoPartition,
                           sub: Iterable[int]) -> TwoPartition:
    """Restriction of a 2-partition to a subset of the combined ground.

    Vertex blocks become traces; edge blocks become the subgraphs induced
    on the surviving vertices, and blocks left empty are dropped.  The
    ground is reindexed to 0..|sub|-1.
    """
    sub = sorted(set(sub))
    if not sub:
        raise DegenerateInput("restriction to an empty subset")
    zr = restrict_vertex_partition(tp.z, sub)
    keep = set(sub)
    # Old cluster index -> new index and the surviving local vertices.
    traces: dict[int, tuple[int, list[int]]] = {}
    for i, block in enumerate(tp.z.blocks):
        local = [x for x, v in enumerate(sorted(block)) if v in keep]
        if local:
            traces[i] = (len(traces), local)
    blocks = []
    for i, j, g in tp.blocks:
        if i in traces and j in traces:
            (ni, a_sub), (nj, b_sub) = traces[i], traces[j]
            kept = induced_subgraph(g, a_sub, b_sub, ni, nj)
            if kept.edge_count:
                blocks.append((ni, nj, kept))
    return TwoPartition(zr, tuple(blocks))


def sub_partitions(tp: TwoPartition, frame: ThreePartiteFrame
                   ) -> tuple[tuple[VertexPartition, VertexPartition,
                                    VertexPartition],
                              tuple[VertexPartition, VertexPartition,
                                    VertexPartition]]:
    """Project a 2-partition onto a 3-partite frame.

    Returns (Z_1, Z_2, Z_3) as partitions of the individual classes (local
    indices) and (E_1, E_2, E_3), where E_i partitions V_j x V_k,
    {i, j, k} = {1, 2, 3} and j < k, read as the left side of the axis-i
    auxiliary graph: the pair (v_j, v_k) is vertex v_j * |V_k| + v_k of the
    ground ``VertexClass(-1, |V_j| * |V_k|)``.  E_i has one block per
    nonempty graph of ``tp.graphs`` between classes j and k, in that order.
    """
    layout, placed = frame.place(tp)
    zs = [VertexPartition(frame.classes[i],
                          tuple(frozenset(vs) for cls, vs in layout
                                if cls == i))
          for i in range(3)]

    es = []
    for j, k in ((1, 2), (0, 2), (0, 1)):
        nk = frame.classes[k].size
        blocks = []
        for _, ci, cj, g in placed:
            (cls_i, vs_i), (cls_j, vs_j) = layout[ci], layout[cj]
            if (cls_i, cls_j) == (j, k) and g.edge_count:
                blocks.append(frozenset(vs_i[a] * nk + vs_j[b]
                                        for a, b in g.sorted_edges()))
        es.append(VertexPartition(
            VertexClass(-1, frame.classes[j].size * nk), tuple(blocks)))
    return (tuple(zs), tuple(es))
