import random
from fractions import Fraction

import pytest

from regkit.errors import ClassMismatch, DegenerateInput, NotDisjoint
from regkit.graphs import (BipartiteGraph, ProductSide, ThreeGraph, Triad,
                           VertexClass, codegree, count_edges_between,
                           degree_into, density, edge_disjoint_union,
                           induced_density, induced_subgraph, iter_bits,
                           mask_to_set, subset_mask)

A = VertexClass(0, 4)
B = VertexClass(1, 3)


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
    assert g.has_edge(2, 2) and not g.has_edge(1, 1)


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


def test_product_side_row_major():
    ps = ProductSide(A, B)
    assert ps.size == 12
    assert ps.index(2, 1) == 7
    assert ps.pair(7) == (2, 1)


def test_three_graph_density():
    cls = (VertexClass(0, 2), VertexClass(1, 2), VertexClass(2, 2))
    h = ThreeGraph(cls, frozenset({(0, 0, 0), (1, 1, 1)}))
    assert h.density == Fraction(1, 4)
    assert ThreeGraph.complete(cls).density == 1


def test_triad_class_checks():
    a, b, c = (VertexClass(i, 2) for i in range(3))
    with pytest.raises(ClassMismatch):
        Triad(BipartiteGraph.complete(a, b),
              BipartiteGraph.complete(b, c),
              BipartiteGraph.complete(b, c))
    t = Triad.complete(a, b, c)
    assert t.sizes == (2, 2, 2)
    assert codegree(t, 0, 0) == 2


def test_induced_density_and_degree():
    g = BipartiteGraph(A, B, [(0, 0), (0, 1), (1, 0), (3, 2)])
    assert induced_density(g, [0, 1], [0, 1]) == Fraction(3, 4)
    assert degree_into(g, 0, [0, 1, 2]) == 2


def test_count_edges_between():
    g = BipartiteGraph(A, B, [(0, 0), (0, 1), (1, 0), (3, 2)])
    assert count_edges_between(g, 0b0011, 0b011) == 3
    assert count_edges_between(g, 0b1000, 0b100) == 1


def test_induced_subgraph_reindexes():
    g = BipartiteGraph(A, B, [(0, 0), (3, 2), (3, 0)])
    sub = induced_subgraph(g, [0, 3], [0, 2])
    assert sub.left.size == 2 and sub.right.size == 2
    assert sub.edges == frozenset({(0, 0), (1, 1), (1, 0)})


def test_edge_disjoint_union():
    g1 = BipartiteGraph(A, B, [(0, 0)])
    g2 = BipartiteGraph(A, B, [(1, 1)])
    u = edge_disjoint_union([g1, g2])
    assert u.edges == frozenset({(0, 0), (1, 1)})
    with pytest.raises(NotDisjoint):
        edge_disjoint_union([g1, g1])
