import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regkit import graphs
from regkit.errors import ClassMismatch, DegenerateInput, NotDisjoint
from regkit.graphs import (BipartiteGraph, ThreeGraph, Triad, VertexClass,
                           _check_index, count_edges_between,
                           density, edge_disjoint_union, induced_subgraph,
                           iter_bits, subset_mask)

A = VertexClass(0, 4)
B = VertexClass(1, 3)


def mask_to_set(mask: int) -> frozenset[int]:
    """The vertex set of a mask, as witnesses and tests read it back."""
    return frozenset(iter_bits(mask))


def test_masks_round_trip():
    mask = subset_mask([0, 2, 3], 5)
    assert mask == 0b1101
    assert mask_to_set(mask) == frozenset({0, 2, 3})
    assert list(iter_bits(mask)) == [0, 2, 3]


def test_subset_mask_rejects_out_of_range():
    with pytest.raises(IndexError):
        subset_mask([5], 5)


@pytest.mark.parametrize("edge, text", [
    ((4, 0), "left index 4 out of range [0, 4)"),
    ((-1, 2), "left index -1 out of range [0, 4)"),
    ((3, 3), "right index 3 out of range [0, 3)"),
    ((0, -2), "right index -2 out of range [0, 3)"),
    ((7, 9), "left index 7 out of range [0, 4)"),
])
def test_graph_rejects_out_of_range_edges(edge, text):
    with pytest.raises(IndexError) as err:
        BipartiteGraph(A, B, [(0, 0), edge])
    assert str(err.value) == text


def test_graph_rows_and_cols():
    g = BipartiteGraph(A, B, [(0, 1), (2, 0), (2, 2)])
    assert g.rows[0] == 0b010
    assert g.rows[2] == 0b101
    assert g.cols[0] == 0b0100
    assert g.edge_count == 3
    assert g.rows[2] >> 2 & 1 and not g.rows[1] >> 1 & 1


def test_graph_rejects_empty_side():
    with pytest.raises(DegenerateInput):
        BipartiteGraph(VertexClass(0, 0), B, [])


def test_complete_and_empty():
    assert density(BipartiteGraph.complete(A, B)) == 1
    assert density(BipartiteGraph.empty(A, B)) == 0


def test_transpose_involution():
    rng = random.Random(3)
    g = BipartiteGraph(A, B, [(a, b) for a in range(4) for b in range(3)
                              if rng.random() < .5])
    assert g.transpose().transpose() == g


def test_three_graph_density():
    cls = (VertexClass(0, 2), VertexClass(1, 2), VertexClass(2, 2))
    h = ThreeGraph(cls, frozenset({(0, 0, 0), (1, 1, 1)}))
    assert h.density == Fraction(1, 4)
    assert ThreeGraph.complete(cls).density == 1


@pytest.mark.parametrize("triple, text", [
    ((2, 0, 0), "class-1 index 2 out of range [0, 2)"),
    ((0, 3, 0), "class-2 index 3 out of range [0, 3)"),
    ((1, 2, 4), "class-3 index 4 out of range [0, 4)"),
    ((0, -1, 0), "class-2 index -1 out of range [0, 3)"),
    ((5, 7, 9), "class-1 index 5 out of range [0, 2)"),
])
def test_three_graph_rejects_out_of_range_triples(triple, text):
    cls = (VertexClass(0, 2), VertexClass(1, 3), VertexClass(2, 4))
    with pytest.raises(IndexError) as err:
        ThreeGraph(cls, frozenset({(0, 0, 0), triple}))
    assert str(err.value) == text


def test_triad_class_checks():
    a, b, c = (VertexClass(i, 2) for i in range(3))
    with pytest.raises(ClassMismatch):
        Triad(BipartiteGraph.complete(a, b),
              BipartiteGraph.complete(b, c),
              BipartiteGraph.complete(b, c))
    t = Triad.complete(a, b, c)
    assert t.sizes == (2, 2, 2)


def test_count_edges_between():
    g = BipartiteGraph(A, B, [(0, 0), (0, 1), (1, 0), (3, 2)])
    assert count_edges_between(g, 0b0011, 0b011) == 3
    assert count_edges_between(g, 0b1000, 0b100) == 1


def test_induced_subgraph_reindexes():
    g = BipartiteGraph(A, B, [(0, 0), (3, 2), (3, 0)])
    sub = induced_subgraph(g, [0, 3], [0, 2])
    assert sub.left.size == 2 and sub.right.size == 2
    assert sub.edges == frozenset({(0, 0), (1, 1), (1, 0)})


@pytest.mark.parametrize("a_sub, b_sub, text", [
    ([-1], [0, 1], "left index -1 out of range [0, 3)"),
    ([3], [0, 1], "left index 3 out of range [0, 3)"),
    ([0, 1], [0, 3], "right index 3 out of range [0, 3)"),
    ([0, 1], [-1], "right index -1 out of range [0, 3)"),
])
def test_induced_subgraph_range_checks_both_sides(a_sub, b_sub, text):
    """A left index out of range is refused as a right one is: -1 does not
    stand for the last row, and 3 names itself."""
    g = BipartiteGraph.complete(VertexClass(0, 3), VertexClass(1, 3))
    with pytest.raises(IndexError) as err:
        induced_subgraph(g, a_sub, b_sub)
    assert str(err.value) == text


# ``induced_subgraph`` as it was when it built an edge list, kept verbatim
# as the oracle for the row-built subgraph.


def _ref_induced_subgraph(g: BipartiteGraph, a_sub, b_sub,
                          left_id: int = -1,
                          right_id: int = -1) -> BipartiteGraph:
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


@st.composite
def _ordered_subsets(draw, n: int) -> list[int]:
    """A subset of 0..n-1: a run 0..k-1, sorted, or in any order."""
    k = draw(st.integers(1, n))
    how = draw(st.sampled_from(["run", "sorted", "shuffled"]))
    if how == "run":
        return list(range(k))
    sub = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                        unique=True))
    return sorted(sub) if how == "sorted" else sub


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2 ** 32),
       st.data())
def test_induced_subgraph_matches_the_edge_list_oracle(na, nb, seed, data):
    """Rows, columns, classes and errors equal those of the subgraph built
    from an edge list, for runs, sorted and shuffled subsets."""
    rng = random.Random(seed)
    p = rng.choice([0., .3, .7, 1.])
    g = BipartiteGraph(VertexClass(0, na), VertexClass(1, nb),
                       [(a, b) for a in range(na) for b in range(nb)
                        if rng.random() < p])
    a_sub = data.draw(_ordered_subsets(na))
    b_sub = data.draw(_ordered_subsets(nb))
    ids = data.draw(st.tuples(st.integers(-2, 3), st.integers(-2, 3)))
    got = induced_subgraph(g, a_sub, b_sub, *ids)
    want = _ref_induced_subgraph(g, a_sub, b_sub, *ids)
    assert (got.left, got.right, got.rows, got.cols, got.edge_count) == \
        (want.left, want.right, want.rows, want.cols, want.edge_count)
    repeated = a_sub + a_sub[:1]
    for make in (induced_subgraph, _ref_induced_subgraph):
        with pytest.raises(DegenerateInput, match="repeated"):
            make(g, repeated, b_sub)
        with pytest.raises(IndexError, match="right index"):
            make(g, a_sub, b_sub + [nb])


def test_edge_disjoint_union():
    g1 = BipartiteGraph(A, B, [(0, 0)])
    g2 = BipartiteGraph(A, B, [(1, 1)])
    u = edge_disjoint_union([g1, g2])
    assert u.edges == frozenset({(0, 0), (1, 1)})
    with pytest.raises(NotDisjoint):
        edge_disjoint_union([g1, g1])


@pytest.mark.parametrize("rows, error, text", [
    ([0, 0, 0], ValueError, "3 rows for a left side of size 4"),
    ([0, 0, 0, 0, 0], ValueError, "5 rows for a left side of size 4"),
    ([0, -1, 0, 0], ValueError, "row 1 is -1, not in [0, 8)"),
    ([0, 0, 0b1000, 0], ValueError, "row 2 is 8, not in [0, 8)"),
    ([1 << 9, 0, 0, 0], ValueError, "row 0 is 512, not in [0, 8)"),
    ([0, 1 << 9, -1, 0], ValueError, "row 1 is 512, not in [0, 8)"),
])
def test_from_rows_refuses_bad_rows(rows, error, text):
    with pytest.raises(error) as err:
        BipartiteGraph.from_rows(A, B, rows)
    assert str(err.value) == text


def test_from_rows_refuses_an_empty_side():
    with pytest.raises(DegenerateInput):
        BipartiteGraph.from_rows(VertexClass(0, 0), B, [])
    with pytest.raises(DegenerateInput):
        BipartiteGraph.from_rows(A, VertexClass(1, 0), [0] * 4)


def test_from_rows_is_the_edge_constructor():
    g = BipartiteGraph(A, B, [(0, 1), (2, 0), (2, 2)])
    h = BipartiteGraph.from_rows(A, B, [0b010, 0, 0b101, 0])
    assert g == h and hash(g) == hash(h)
    assert (h.rows, h.cols, h.edge_count) == (g.rows, g.cols, 3)
    assert h.edges == frozenset({(0, 1), (2, 0), (2, 2)})


# ``BipartiteGraph`` as it was when it also stored its edge set, kept
# verbatim but for its name as the oracle for the property test below.


class _EdgeSetGraph:
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
        self._set(left, right, edges, rows, cols)

    @classmethod
    def _from_checked(cls, left: VertexClass, right: VertexClass,
                      edges: frozenset[tuple[int, int]]
                      ) -> "_EdgeSetGraph":
        """A graph on edges that the file reader has already checked: int
        pairs in range of two non-empty sides, as a frozenset."""
        rows = [0] * left.size
        cols = [0] * right.size
        for a, b in edges:
            rows[a] |= 1 << b
            cols[b] |= 1 << a
        g = cls.__new__(cls)
        g._set(left, right, edges, rows, cols)
        return g

    def _set(self, left: VertexClass, right: VertexClass,
             edges: frozenset[tuple[int, int]], rows: list[int],
             cols: list[int]) -> None:
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

    def same_classes(self, other: "_EdgeSetGraph") -> bool:
        return self.left == other.left and self.right == other.right

    def transpose(self) -> "_EdgeSetGraph":
        return _EdgeSetGraph(self.right, self.left,
                             ((b, a) for a, b in self.edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @staticmethod
    def complete(left: VertexClass, right: VertexClass) -> "_EdgeSetGraph":
        return _EdgeSetGraph(
            left, right,
            ((a, b) for a in range(left.size) for b in range(right.size)))

    @staticmethod
    def empty(left: VertexClass, right: VertexClass) -> "_EdgeSetGraph":
        return _EdgeSetGraph(left, right, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _EdgeSetGraph):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"_EdgeSetGraph({self.left.size}x{self.right.size}, "
                f"{self.edge_count} edges)")


def _state(g) -> tuple:
    return (g.left, g.right, g.edges, g.sorted_edges(), g.rows, g.cols,
            g.edge_count)


@st.composite
def edge_lists(draw):
    """Sides of 1-70 vertices and an edge list in random order: empty,
    complete, sparse or of random density."""
    left = VertexClass(draw(st.integers(-1, 2)), draw(st.integers(1, 70)))
    right = VertexClass(draw(st.integers(-1, 2)), draw(st.integers(1, 70)))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([rng.random(), .02, 0., 1.]))
    edges = [(a, b) for a in range(left.size) for b in range(right.size)
             if p == 1. or rng.random() < p]
    rng.shuffle(edges)
    return left, right, edges


@given(edge_lists(), st.data())
def test_graph_matches_the_edge_set_graph(case, data):
    """Every answer of the mask-only graph is that of the graph that also
    stored its edge set: state, transpose, complete, empty, equality and
    hashes, and the IndexError of an out-of-range edge."""
    left, right, edges = case
    na, nb = left.size, right.size
    g, ref = BipartiteGraph(left, right, edges), _EdgeSetGraph(left, right,
                                                               edges)
    assert _state(g) == _state(ref)
    assert BipartiteGraph.from_rows(left, right, g.rows) == g
    assert _state(g.transpose()) == _state(ref.transpose())
    assert g.transpose().transpose() == g
    for make in ("complete", "empty"):
        assert _state(getattr(BipartiteGraph, make)(left, right)) == \
            _state(getattr(_EdgeSetGraph, make)(left, right))

    # A second graph: the same edges in another order, one edge toggled,
    # or the same edges on sides with other ids.
    how = data.draw(st.sampled_from(["reordered", "toggled", "relabelled"]))
    other = list(reversed(edges))
    left2 = left
    if how == "toggled":
        e = (data.draw(st.integers(0, na - 1)),
             data.draw(st.integers(0, nb - 1)))
        other = [x for x in other if x != e] + ([] if e in edges else [e])
    elif how == "relabelled":
        left2 = VertexClass(left.id + 5, na)
    g2 = BipartiteGraph(left2, right, other)
    ref2 = _EdgeSetGraph(left2, right, other)
    assert (g == g2, g2 == g, g != g2) == (ref == ref2, ref2 == ref,
                                           ref != ref2)
    assert (g == g2) == (how == "reordered")
    if g == g2:
        assert hash(g) == hash(g2)

    bad = data.draw(st.sampled_from([(na, 0), (-1, 0), (0, nb), (0, -1)]))
    with pytest.raises(IndexError) as got:
        BipartiteGraph(left, right, edges + [bad])
    with pytest.raises(IndexError) as want:
        _EdgeSetGraph(left, right, edges + [bad])
    assert str(got.value) == str(want.value)


def _shape_cases():
    """(left, right, edges): shapes wider than the hypothesis sides, and
    squares around the sides where the block width W doubles, each at
    density 0, 1/2 and 1 and, where the shape holds that many, at one edge
    below, at and above the block-swap cutoff."""
    rng = random.Random(70)
    shapes = ((1, 200), (200, 1), (129, 129), (130, 3), (3, 130),
              (8, 8), (9, 9), (16, 16), (17, 17), (64, 64), (65, 65))
    for na, nb in shapes:
        w = 8
        while w < max(na, nb):
            w <<= 1
        cut = graphs._SWAP_EDGES_PER_LINE * w
        cells = [(a, b) for a in range(na) for b in range(nb)]
        counts = {0, len(cells) // 2, len(cells)}
        counts |= {k for k in (cut - 1, cut, cut + 1) if k <= len(cells)}
        for k in sorted(counts):
            yield pytest.param(VertexClass(0, na), VertexClass(1, nb),
                               rng.sample(cells, k), id=f"{na}x{nb}-{k}")


@pytest.mark.parametrize("left, right, edges", _shape_cases())
def test_transpose_matches_the_edge_set_graph_beyond_hypothesis(
        left, right, edges):
    """The graph, with the transpose the cutoff picks, and the block swap
    forced at the least width W and at 2W give the columns of the graph
    that stored its edge set."""
    g, ref = BipartiteGraph(left, right, edges), _EdgeSetGraph(left, right,
                                                               edges)
    assert _state(g) == _state(ref)
    assert _state(g.transpose()) == _state(ref.transpose())
    w = 8
    while w < max(left.size, right.size):
        w <<= 1
    for width in (w, 2 * w):
        assert graphs._block_swap(g.rows, right.size, width) == ref.cols


@pytest.mark.parametrize("k, row", [(5, -1), (128, 1 << 129),
                                    (0, (1 << 130) - 1)])
def test_from_rows_refuses_bad_rows_of_a_dense_graph(k, row):
    """A dense 129 x 129 graph, which the block swap transposes, refuses a
    bad row with the message of the loop."""
    side = VertexClass(0, 129)
    rows = [(1 << 129) - 1] * 129
    rows[k] = row
    with pytest.raises(ValueError) as err:
        BipartiteGraph.from_rows(side, side, rows)
    assert str(err.value) == f"row {k} is {row}, not in [0, {1 << 129})"


@given(st.data())
def test_equality_matches_the_edge_set_graph(data):
    """Two graphs on small sides, often with as many edges but others:
    equal, unequal and hashed as the graph that stored its edge set."""
    na, nb = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    right = VertexClass(1, nb)
    edge_sets = st.sets(st.tuples(st.integers(0, na - 1),
                                  st.integers(0, nb - 1)))
    graphs = []
    for _ in range(2):
        left = VertexClass(data.draw(st.integers(0, 1)), na)
        edges = data.draw(edge_sets)
        graphs.append((BipartiteGraph(left, right, edges),
                       _EdgeSetGraph(left, right, edges)))
    (g1, f1), (g2, f2) = graphs
    assert (g1 == g2, g2 == g1, g1 != g2) == (f1 == f2, f2 == f1, f1 != f2)
    if g1 == g2:
        assert hash(g1) == hash(g2)


def test_edge_disjoint_union_names_the_least_shared_edge():
    g1 = BipartiteGraph(A, B, [(0, 2), (2, 1), (2, 2), (3, 0)])
    g2 = BipartiteGraph(A, B, [(1, 1)])
    g3 = BipartiteGraph(A, B, [(3, 0), (2, 2), (2, 1), (0, 0)])
    with pytest.raises(NotDisjoint) as err:
        edge_disjoint_union([g1, g2, g3])
    assert str(err.value) == "shared edge (2, 1)"
    u = edge_disjoint_union([g1, g2])
    assert u.edges == g1.edges | g2.edges


# ``ThreeGraph`` as it was when it stored its triple set, kept verbatim but
# for its name as the oracle for the mask-stored 3-graph.


@dataclass(frozen=True)
class _TripleSetThreeGraph:
    """A 3-partite 3-uniform hypergraph on three vertex classes."""

    classes: tuple[VertexClass, VertexClass, VertexClass]
    triples: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        n1, n2, n3 = (c.size for c in self.classes)
        if n1 == 0 or n2 == 0 or n3 == 0:
            raise DegenerateInput("3-graph with an empty class")
        for (v1, v2, v3) in self.triples:
            if not (0 <= v1 < n1 and 0 <= v2 < n2 and 0 <= v3 < n3):
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
                 ) -> "_TripleSetThreeGraph":
        n1, n2, n3 = (c.size for c in classes)
        return _TripleSetThreeGraph(classes, frozenset(
            (a, b, c) for a in range(n1) for b in range(n2) for c in range(n3)))


def _three_state(h) -> tuple:
    return (h.classes, h.triples, h.sorted_triples(), h.edge_count,
            h.density)


@st.composite
def triple_sets(draw):
    """Classes of 1-9 vertices and a triple set: empty, complete, sparse
    or of random density."""
    classes = tuple(VertexClass(i, draw(st.integers(1, 9))) for i in range(3))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([rng.random(), .02, 0., 1.]))
    n1, n2, n3 = (c.size for c in classes)
    triples = frozenset((a, b, c) for a in range(n1) for b in range(n2)
                        for c in range(n3) if p == 1. or rng.random() < p)
    return classes, triples


@given(triple_sets(), st.data())
def test_three_graph_matches_the_triple_set_graph(case, data):
    """Every answer of the mask-stored 3-graph is that of the 3-graph that
    stored its triple set: state, complete, equality both ways and hashes,
    and the IndexError of an out-of-range triple."""
    classes, triples = case
    n1, n2, n3 = (c.size for c in classes)
    h, ref = ThreeGraph(classes, triples), _TripleSetThreeGraph(classes,
                                                                triples)
    assert _three_state(h) == _three_state(ref)
    assert _three_state(ThreeGraph.complete(classes)) == \
        _three_state(_TripleSetThreeGraph.complete(classes))
    assert ThreeGraph.from_rows(classes, h.graph.rows) == h
    assert h.graph.left == VertexClass(-1, n1 * n2)
    assert h.graph.right == classes[2]

    # A second 3-graph: the same triples, one triple toggled, or the same
    # triples on classes with other ids.
    how = data.draw(st.sampled_from(["same", "toggled", "relabelled"]))
    other, classes2 = set(triples), classes
    if how == "toggled":
        other ^= {tuple(data.draw(st.integers(0, n - 1))
                        for n in (n1, n2, n3))}
    elif how == "relabelled":
        classes2 = (VertexClass(5, n1),) + classes[1:]
    h2 = ThreeGraph(classes2, other)
    ref2 = _TripleSetThreeGraph(classes2, frozenset(other))
    assert (h == h2, h2 == h, h != h2) == (ref == ref2, ref2 == ref,
                                           ref != ref2)
    assert (h == h2) == (how == "same")
    if h == h2:
        assert hash(h) == hash(h2)

    bad = data.draw(st.sampled_from([(n1, 0, 0), (-1, 0, 0), (0, n2, 0),
                                     (0, -1, 0), (0, 0, n3), (0, 0, -1)]))
    with pytest.raises(IndexError) as got:
        ThreeGraph(classes, triples | {bad})
    with pytest.raises(IndexError) as want:
        _TripleSetThreeGraph(classes, triples | {bad})
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sizes, rows, error, text", [
    ((2, 0, 3), [], DegenerateInput, "3-graph with an empty class"),
    ((2, 2, 0), [0] * 4, DegenerateInput, "3-graph with an empty class"),
    ((2, 2, 3), [0] * 3, ValueError, "3 rows for a left side of size 4"),
    ((2, 2, 3), [0] * 5, ValueError, "5 rows for a left side of size 4"),
    ((2, 2, 3), [0, 7, 8, 0], ValueError, "row 2 is 8, not in [0, 8)"),
    ((2, 2, 3), [-1, 0, 0, 0], ValueError, "row 0 is -1, not in [0, 8)"),
])
def test_three_graph_from_rows_refuses_bad_rows(sizes, rows, error, text):
    """One row per pair (v1, v2) of classes 1 and 2, each a mask of class
    3; the rows are those of the axis-3 auxiliary graph, which names the
    pairs its left side."""
    classes = tuple(VertexClass(i, n) for i, n in enumerate(sizes))
    with pytest.raises(error) as err:
        ThreeGraph.from_rows(classes, rows)
    assert str(err.value) == text


def test_three_graph_from_rows_reads_pair_rows():
    classes = (VertexClass(0, 2), VertexClass(1, 3), VertexClass(2, 2))
    h = ThreeGraph.from_rows(classes, [0, 0b10, 0, 0, 0, 0b11])
    assert h == ThreeGraph(classes, {(0, 1, 1), (1, 2, 0), (1, 2, 1)})
    assert h.graph.left == VertexClass(-1, 6) and h.graph.right == classes[2]


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_three_graph_with_an_empty_class_is_degenerate(empty):
    """An empty class is refused before any triple is read, as by the
    3-graph that stored its triple set, and so is its complete 3-graph."""
    classes = tuple(VertexClass(i, 0 if i == empty else 2) for i in range(3))
    for make in (ThreeGraph, _TripleSetThreeGraph):
        with pytest.raises(DegenerateInput, match="3-graph with an empty "
                           "class"):
            make(classes, frozenset({(5, 5, 5)}))
        with pytest.raises(DegenerateInput):
            make.complete(classes)
