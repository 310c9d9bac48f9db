"""Immutable graph types and exact density/counting primitives.

Vertex classes are plain index spaces 0..size-1.  Bipartite adjacency is kept
as one packed bitmask per left vertex, so degrees and codegrees reduce to mask
intersection plus popcount.  All densities are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ClassMismatch, DegenerateInput, NotDisjoint


@dataclass(frozen=True)
class VertexClass:
    """An index space of ``size`` vertices with a small integer label."""

    id: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise DegenerateInput(f"vertex class {self.id} has negative size")

    def indices(self) -> range:
        return range(self.size)


def _check_index(v: int, n: int, what: str) -> None:
    if not 0 <= v < n:
        raise IndexError(f"{what} index {v} out of range [0, {n})")


def subset_mask(sub: Iterable[int], n: int, what: str = "vertex") -> int:
    """Pack a vertex subset into a bitmask, bounds-checked."""
    mask = 0
    for v in sub:
        _check_index(v, n, what)
        mask |= 1 << v
    return mask


def mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BipartiteGraph:
    """Immutable bipartite graph between two vertex classes.

    ``rows[a]`` is the bitmask of right-neighbours of left vertex ``a``;
    ``cols[b]`` the bitmask of left-neighbours of right vertex ``b``.
    """

    __slots__ = ("left", "right", "edges", "rows", "cols", "_hash")

    def __init__(self, left: VertexClass, right: VertexClass,
                 edges: Iterable[tuple[int, int]]):
        if left.size == 0 or right.size == 0:
            raise DegenerateInput("bipartite graph with an empty side")
        edges = frozenset((int(a), int(b)) for a, b in edges)
        na, nb = left.size, right.size
        rows = [0] * na
        cols = [0] * nb
        for a, b in edges:
            if not (0 <= a < na and 0 <= b < nb):
                _check_index(a, na, "left")
                _check_index(b, nb, "right")
            rows[a] |= 1 << b
            cols[b] |= 1 << a
        self.left = left
        self.right = right
        self.edges = edges
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self._hash = hash((left, right, edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges

    def same_classes(self, other: "BipartiteGraph") -> bool:
        return self.left == other.left and self.right == other.right

    def transpose(self) -> "BipartiteGraph":
        return BipartiteGraph(self.right, self.left,
                              ((b, a) for a, b in self.edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @staticmethod
    def complete(left: VertexClass, right: VertexClass) -> "BipartiteGraph":
        return BipartiteGraph(
            left, right,
            ((a, b) for a in range(left.size) for b in range(right.size)))

    @staticmethod
    def empty(left: VertexClass, right: VertexClass) -> "BipartiteGraph":
        return BipartiteGraph(left, right, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"BipartiteGraph({self.left.size}x{self.right.size}, "
                f"{self.edge_count} edges)")


@dataclass(frozen=True)
class ProductSide:
    """The vertex class V1 x V2, linearized row-major: idx = v1*|V2| + v2."""

    first: VertexClass
    second: VertexClass

    @property
    def size(self) -> int:
        return self.first.size * self.second.size

    def index(self, v1: int, v2: int) -> int:
        _check_index(v1, self.first.size, "first")
        _check_index(v2, self.second.size, "second")
        return v1 * self.second.size + v2

    def pair(self, idx: int) -> tuple[int, int]:
        _check_index(idx, self.size, "product")
        return divmod(idx, self.second.size)

    def as_vertex_class(self, label: int = -1) -> VertexClass:
        return VertexClass(label, self.size)


@dataclass(frozen=True)
class ThreeGraph:
    """A 3-partite 3-uniform hypergraph on three vertex classes."""

    classes: tuple[VertexClass, VertexClass, VertexClass]
    triples: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        n1, n2, n3 = (c.size for c in self.classes)
        if n1 == 0 or n2 == 0 or n3 == 0:
            raise DegenerateInput("3-graph with an empty class")
        for (v1, v2, v3) in self.triples:
            _check_index(v1, n1, "class-1")
            _check_index(v2, n2, "class-2")
            _check_index(v3, n3, "class-3")

    @property
    def edge_count(self) -> int:
        return len(self.triples)

    @property
    def density(self) -> Fraction:
        n1, n2, n3 = (c.size for c in self.classes)
        return Fraction(len(self.triples), n1 * n2 * n3)

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        return sorted(self.triples)

    @staticmethod
    def complete(classes: tuple[VertexClass, VertexClass, VertexClass]
                 ) -> "ThreeGraph":
        n1, n2, n3 = (c.size for c in classes)
        return ThreeGraph(classes, frozenset(
            (a, b, c) for a in range(n1) for b in range(n2) for c in range(n3)))


class Triad:
    """Three vertex classes (A, B, C) with bipartite edge sets on each pair.

    ``embedding``, when given, maps the triad's local vertex indices into the
    classes of an enclosing 3-graph (one index tuple per class); by default it
    is the identity.
    """

    __slots__ = ("ab", "ac", "bc", "embedding")

    def __init__(self, ab: BipartiteGraph, ac: BipartiteGraph,
                 bc: BipartiteGraph,
                 embedding: Optional[tuple[Sequence[int], Sequence[int],
                                           Sequence[int]]] = None):
        if ac.left != ab.left:
            raise ClassMismatch("A-class of E_AC does not match E_AB")
        if bc.left != ab.right:
            raise ClassMismatch("B-class of E_BC does not match E_AB")
        if bc.right != ac.right:
            raise ClassMismatch("C-classes of E_AC and E_BC do not match")
        self.ab = ab
        self.ac = ac
        self.bc = bc
        if embedding is None:
            embedding = (tuple(range(ab.left.size)),
                         tuple(range(ab.right.size)),
                         tuple(range(ac.right.size)))
        else:
            embedding = tuple(tuple(int(v) for v in m) for m in embedding)
            sizes = (ab.left.size, ab.right.size, ac.right.size)
            for m, n in zip(embedding, sizes):
                if len(m) != n:
                    raise ClassMismatch("embedding length != class size")
        self.embedding = embedding

    @property
    def classes(self) -> tuple[VertexClass, VertexClass, VertexClass]:
        return (self.ab.left, self.ab.right, self.ac.right)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.ab.left.size, self.ab.right.size, self.ac.right.size)

    @staticmethod
    def complete(a: VertexClass, b: VertexClass, c: VertexClass) -> "Triad":
        return Triad(BipartiteGraph.complete(a, b),
                     BipartiteGraph.complete(a, c),
                     BipartiteGraph.complete(b, c))

    def __repr__(self) -> str:
        na, nb, nc = self.sizes
        return f"Triad({na},{nb},{nc})"


# ---------------------------------------------------------------------------
# Operations


def density(g: BipartiteGraph) -> Fraction:
    """Exact edge density of ``g``: e / (|left| * |right|)."""
    return Fraction(g.edge_count, g.left.size * g.right.size)


def induced_density(g: BipartiteGraph, a_sub: Iterable[int],
                    b_sub: Iterable[int]) -> Fraction:
    """Exact density of ``g`` restricted to the given subsets."""
    amask = subset_mask(a_sub, g.left.size, "left")
    bmask = subset_mask(b_sub, g.right.size, "right")
    ka = amask.bit_count()
    kb = bmask.bit_count()
    if ka == 0 or kb == 0:
        raise DegenerateInput("induced density over an empty subset")
    e = 0
    for a in iter_bits(amask):
        e += (g.rows[a] & bmask).bit_count()
    return Fraction(e, ka * kb)


def degree_into(g: BipartiteGraph, x: int, y_sub: Iterable[int]) -> int:
    """Number of neighbours of left vertex ``x`` inside ``y_sub``."""
    _check_index(x, g.left.size, "left")
    ymask = subset_mask(y_sub, g.right.size, "right")
    return (g.rows[x] & ymask).bit_count()


def edge_disjoint_union(gs: Sequence[BipartiteGraph]) -> BipartiteGraph:
    """Union of pairwise edge-disjoint graphs on identical classes."""
    if not gs:
        raise DegenerateInput("union of an empty family")
    first = gs[0]
    edges: set[tuple[int, int]] = set()
    for g in gs:
        if not g.same_classes(first):
            raise ClassMismatch("union members on different vertex classes")
        shared = edges & g.edges
        if shared:
            raise NotDisjoint(f"shared edge {min(shared)}")
        edges |= g.edges
    return BipartiteGraph(first.left, first.right, edges)


def count_edges_between(g: BipartiteGraph, amask: int, bmask: int) -> int:
    """Edges of ``g`` with both ends inside the given subset masks."""
    e = 0
    for a in iter_bits(amask):
        e += (g.rows[a] & bmask).bit_count()
    return e


def induced_subgraph(g: BipartiteGraph, a_sub: Sequence[int],
                     b_sub: Sequence[int],
                     left_id: int = -1, right_id: int = -1) -> BipartiteGraph:
    """Subgraph induced on ordered subsets, reindexed to 0..k-1 per side."""
    a_sub = list(a_sub)
    b_sub = list(b_sub)
    if not a_sub or not b_sub:
        raise DegenerateInput("induced subgraph over an empty subset")
    a_pos = {v: i for i, v in enumerate(a_sub)}
    b_pos = {v: i for i, v in enumerate(b_sub)}
    if len(a_pos) != len(a_sub) or len(b_pos) != len(b_sub):
        raise DegenerateInput("induced subgraph with repeated vertices")
    bmask = subset_mask(b_sub, g.right.size, "right")
    edges = [(a_pos[a], b_pos[b]) for a in a_sub
             for b in iter_bits(g.rows[a] & bmask)]
    return BipartiteGraph(VertexClass(left_id, len(a_sub)),
                          VertexClass(right_id, len(b_sub)), edges)


def codegree(t: Triad, a: int, b: int) -> int:
    """Number of common C-neighbours of A-vertex ``a`` and B-vertex ``b``."""
    _check_index(a, t.ab.left.size, "A")
    _check_index(b, t.ab.right.size, "B")
    return (t.ac.rows[a] & t.bc.rows[b]).bit_count()
