"""Immutable graph types and exact density/counting primitives.

Vertex classes are plain index spaces 0..size-1.  A bipartite graph is its
adjacency masks, one packed bitmask per vertex, so degrees and codegrees
reduce to mask intersection plus popcount; ``BipartiteGraph.from_rows``
builds one from its rows, and its edge set is derived from them on access.
The column masks are the rows transposed as one bit matrix, by masked
block swaps on a single int when the matrix is dense enough to pay (see
``_block_swap``), one bit at a time otherwise.  A 3-graph is its axis-3
auxiliary graph, and ``ThreeGraph.from_rows`` builds one from those rows,
as every 3-graph is built: from a triple set by setting its bits, and
complete as full rows.  Induced subgraphs are cut from the rows too, with
no edge list between.  All densities are exact rationals.

``Value`` is the base of regkit's validated types: they take ``==``, hash
and repr from it over the fields each names in ``_fields``.  ``Verdict``
and ``Report`` opt out of hashing, and ``BipartiteGraph``, ``Triad`` and
``Threshold`` keep their own repr.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ClassMismatch, DegenerateInput, NotDisjoint


class Value:
    """Base of the validated value types: ``==``, hash and repr over the
    attributes a subclass names in ``_fields`` (two or more), in order.

    ``==`` holds between instances of one class whose fields are equal (an
    instance equals itself without a look at them), and is NotImplemented
    against any other class.  The hash is that of the field tuple, so a
    subclass whose fields may change sets ``__hash__ = None``.  The repr
    is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{self.__class__.__name__}({fields})"


class VertexClass(Value):
    """An index space of ``size`` vertices with a small integer label."""

    __slots__ = _fields = ("id", "size")

    def __init__(self, id: int, size: int):
        if size < 0:
            raise DegenerateInput(f"vertex class {id} has negative size")
        self.id = id
        self.size = size


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


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The block swap of a W x W square costs about as much as the loop does on
# 4 edges per row of W (timed from 8x8 to 1024x1024), so a sparser matrix,
# and any of fewer than 32 cells, takes the loop.  Beyond W = 1024 the
# swap's cost, and its cached masks of W*W bits each, grow faster than
# that, so larger matrices take the loop too.
_SWAP_EDGES_PER_LINE = 4
_SWAP_MAX_WIDTH = 1024


@cache
def _swap_masks(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each round of the W x W block-swap transpose: mask
    holds bit (r, c), at r*W + c, iff r & s == 0 and c & s != 0, for
    s = W/2, ..., 1, and its partner (r + s, c - s) lies shift bits up."""
    step = w >> 3
    out = []
    s = w >> 1
    while s:
        # A row of runs of s zeros and s ones, then s such rows and s empty
        # ones, repeated down the square.
        line = ((((1 << s) - 1) << s) * ((1 << w) - 1)
                // ((1 << 2 * s) - 1)).to_bytes(step, "little")
        rows = (line * s + bytes(step * s)) * (w // (2 * s))
        out.append((s * (w - 1), int.from_bytes(rows, "little")))
        s >>= 1
    return tuple(out)


def _block_swap(rows: Sequence[int], n: int, w: int) -> tuple[int, ...]:
    """The n column masks of a bit matrix with the given rows, each below
    2^n, for W = ``w`` a power of two >= 8 that bounds both sides.

    The rows are packed with stride W into one W*W-bit int, transposed
    there by log2(W) masked swaps of the off-diagonal blocks (Warren,
    *Hacker's Delight*, 2nd ed., 7-3) and unpacked.
    """
    step = w >> 3
    x = int.from_bytes(b"".join(row.to_bytes(step, "little")
                                for row in rows), "little")
    for shift, mask in _swap_masks(w):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    buf = x.to_bytes(step * w, "little")
    return tuple(int.from_bytes(buf[k:k + step], "little")
                 for k in range(0, step * n, step))


class BipartiteGraph(Value):
    """Immutable bipartite graph between two vertex classes.

    ``rows[a]`` is the bitmask of right-neighbours of left vertex ``a``;
    ``cols[b]`` the bitmask of left-neighbours of right vertex ``b``.
    These masks are all that is stored; the classes and the rows decide
    equality.
    """

    __slots__ = ("left", "right", "rows", "cols", "edge_count")
    _fields = ("left", "right", "rows")

    def __init__(self, left: VertexClass, right: VertexClass,
                 edges: Iterable[tuple[int, int]]):
        na, nb = left.size, right.size
        rows = [0] * na
        # An empty side is refused by _store before any edge is read.
        for a, b in edges if na and nb else ():
            a, b = int(a), int(b)
            if not (0 <= a < na and 0 <= b < nb):
                _check_index(a, na, "left")
                _check_index(b, nb, "right")
            rows[a] |= 1 << b
        self._store(left, right, rows)

    @classmethod
    def from_rows(cls, left: VertexClass, right: VertexClass,
                  rows: Sequence[int]) -> "BipartiteGraph":
        """The graph whose left vertex ``a`` has the right-neighbour mask
        ``rows[a]``; one row per left vertex, each in [0, 2^|right|)."""
        g = cls.__new__(cls)
        g._store(left, right, rows)
        return g

    def _store(self, left: VertexClass, right: VertexClass,
               rows: Sequence[int]) -> None:
        if left.size == 0 or right.size == 0:
            raise DegenerateInput("bipartite graph with an empty side")
        rows = tuple(rows)
        if len(rows) != left.size:
            raise ValueError(f"{len(rows)} rows for a left side of size "
                             f"{left.size}")
        limit = 1 << right.size
        if not (0 <= min(rows) and max(rows) < limit):
            for a, row in enumerate(rows):
                if not 0 <= row < limit:
                    raise ValueError(f"row {a} is {row}, not in [0, {limit})")
        edge_count = sum(map(int.bit_count, rows))
        w = 8
        while w < left.size or w < right.size:
            w <<= 1
        if w <= _SWAP_MAX_WIDTH and edge_count >= _SWAP_EDGES_PER_LINE * w:
            cols = _block_swap(rows, right.size, w)
        else:
            cols = [0] * right.size
            for a, row in enumerate(rows):
                bit = 1 << a
                while row:
                    low = row & -row
                    cols[low.bit_length() - 1] |= bit
                    row ^= low
        self.left = left
        self.right = right
        self.rows = rows
        self.cols = tuple(cols)
        self.edge_count = edge_count

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set, built from ``rows`` on each access."""
        return frozenset(self.sorted_edges())

    def same_classes(self, other: "BipartiteGraph") -> bool:
        return self.left == other.left and self.right == other.right

    def transpose(self) -> "BipartiteGraph":
        return BipartiteGraph.from_rows(self.right, self.left, self.cols)

    def sorted_edges(self) -> list[tuple[int, int]]:
        out = []
        for a, row in enumerate(self.rows):
            while row:
                low = row & -row
                out.append((a, low.bit_length() - 1))
                row ^= low
        return out

    @staticmethod
    def complete(left: VertexClass, right: VertexClass) -> "BipartiteGraph":
        return BipartiteGraph.from_rows(left, right,
                                        [(1 << right.size) - 1] * left.size)

    @staticmethod
    def empty(left: VertexClass, right: VertexClass) -> "BipartiteGraph":
        return BipartiteGraph.from_rows(left, right, [0] * left.size)

    def __repr__(self) -> str:
        return (f"BipartiteGraph({self.left.size}x{self.right.size}, "
                f"{self.edge_count} edges)")


class ThreeGraph(Value):
    """A 3-partite 3-uniform hypergraph on three vertex classes, stored as
    its axis-3 auxiliary graph: ``graph.rows[v1*|V2| + v2]`` is the mask of
    the v3 with (v1, v2, v3) a hyperedge; ``triples`` is derived from it."""

    __slots__ = _fields = ("classes", "graph")

    def __init__(self, classes: tuple[VertexClass, VertexClass, VertexClass],
                 triples: Iterable[tuple[int, int, int]]):
        n1, n2, n3 = (c.size for c in classes)
        rows = [0] * (n1 * n2)
        # An empty class is refused by _store before any triple is read.
        for (v1, v2, v3) in triples if n1 and n2 and n3 else ():
            if not (0 <= v1 < n1 and 0 <= v2 < n2 and 0 <= v3 < n3):
                _check_index(v1, n1, "class-1")
                _check_index(v2, n2, "class-2")
                _check_index(v3, n3, "class-3")
            rows[v1 * n2 + v2] |= 1 << v3
        self._store(classes, rows)

    @classmethod
    def from_rows(cls, classes: tuple[VertexClass, VertexClass, VertexClass],
                  rows: Sequence[int]) -> "ThreeGraph":
        """The 3-graph whose pair (v1, v2) has the class-3 mask
        ``rows[v1*|V2| + v2]``; one row per pair, each in [0, 2^|V3|)."""
        h = cls.__new__(cls)
        h._store(classes, rows)
        return h

    def _store(self, classes: tuple[VertexClass, VertexClass, VertexClass],
               rows: Sequence[int]) -> None:
        n1, n2, n3 = (c.size for c in classes)
        if n1 == 0 or n2 == 0 or n3 == 0:
            raise DegenerateInput("3-graph with an empty class")
        self.classes = tuple(classes)
        self.graph = BipartiteGraph.from_rows(VertexClass(-1, n1 * n2),
                                              classes[2], rows)

    @property
    def triples(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self.sorted_triples())

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @property
    def density(self) -> Fraction:
        n1, n2, n3 = (c.size for c in self.classes)
        return Fraction(self.graph.edge_count, n1 * n2 * n3)

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        n2 = self.classes[1].size
        return [(p // n2, p % n2, v3) for p, v3 in self.graph.sorted_edges()]

    @staticmethod
    def complete(classes: tuple[VertexClass, VertexClass, VertexClass]
                 ) -> "ThreeGraph":
        n1, n2, n3 = (c.size for c in classes)
        return ThreeGraph.from_rows(classes, [(1 << n3) - 1] * (n1 * n2))


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


def edge_disjoint_union(gs: Sequence[BipartiteGraph]) -> BipartiteGraph:
    """Union of pairwise edge-disjoint graphs on identical classes."""
    if not gs:
        raise DegenerateInput("union of an empty family")
    first = gs[0]
    rows = [0] * first.left.size
    for g in gs:
        if not g.same_classes(first):
            raise ClassMismatch("union members on different vertex classes")
        for a, (row, new) in enumerate(zip(rows, g.rows)):
            shared = row & new
            if shared:
                b = (shared & -shared).bit_length() - 1
                raise NotDisjoint(f"shared edge {(a, b)}")
            rows[a] = row | new
    return BipartiteGraph.from_rows(first.left, first.right, rows)


def count_edges_between(g: BipartiteGraph, amask: int, bmask: int) -> int:
    """Edges of ``g`` with both ends inside the given subset masks."""
    e = 0
    for a in iter_bits(amask):
        e += (g.rows[a] & bmask).bit_count()
    return e


def induced_subgraph(g: BipartiteGraph, a_sub: Sequence[int],
                     b_sub: Sequence[int],
                     left_id: int = -1, right_id: int = -1) -> BipartiteGraph:
    """Subgraph induced on ordered subsets, reindexed to 0..k-1 per side:
    row i is row ``a_sub[i]`` with bit ``b_sub[j]`` moved to bit j."""
    a_sub = list(a_sub)
    b_sub = list(b_sub)
    if not a_sub or not b_sub:
        raise DegenerateInput("induced subgraph over an empty subset")
    if len(set(a_sub)) != len(a_sub) or len(set(b_sub)) != len(b_sub):
        raise DegenerateInput("induced subgraph with repeated vertices")
    for sub, n, what in ((a_sub, g.left.size, "left"),
                         (b_sub, g.right.size, "right")):
        if min(sub) < 0 or max(sub) >= n:
            subset_mask(sub, n, what)  # names the first index out of range
    bmask = sum(map((1).__lshift__, b_sub))
    moved = [0] * g.right.size  # the bit each kept column moves to
    for j, b in enumerate(b_sub):
        moved[b] = 1 << j
    rows = []
    for a in a_sub:
        row, out = g.rows[a] & bmask, 0
        while row:
            low = row & -row
            out |= moved[low.bit_length() - 1]
            row ^= low
        rows.append(out)
    return BipartiteGraph.from_rows(VertexClass(left_id, len(a_sub)),
                                    VertexClass(right_id, len(b_sub)), rows)
