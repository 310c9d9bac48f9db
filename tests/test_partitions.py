import random
from fractions import Fraction

import pytest

from regkit.errors import (DegenerateInput, FrameMismatch, GroundMismatch,
                           NotDisjoint, PreconditionFailed)
from regkit.graphs import BipartiteGraph, ProductSide, VertexClass
from regkit.partitions import (EdgeBlock, EdgePartition, ThreePartiteFrame,
                               TwoPartition, VertexPartition, approx_member,
                               approx_refines, approx_subset,
                               common_refinement, complete_two_partition,
                               is_equitable, refinement_union_extract,
                               refines, restrict_two_partition,
                               restrict_vertex_partition, sub_partitions,
                               validate_two_partition)

G6 = VertexClass(0, 6)


def vp(labels, ground=G6):
    return VertexPartition.from_labels(ground, labels)


def test_partition_invariants():
    with pytest.raises(NotDisjoint):
        VertexPartition(G6, (frozenset({0, 1}), frozenset({1, 2}),
                             frozenset({3, 4, 5})))
    with pytest.raises(DegenerateInput):
        VertexPartition(G6, (frozenset({0, 1}),))


def test_labels_round_trip():
    p = vp([0, 1, 0, 2, 1, 2])
    assert vp(p.labels()).blocks == p.blocks


def test_refines_and_common_refinement():
    p = vp([0, 0, 0, 1, 1, 1])
    q = vp([0, 0, 1, 2, 2, 3])
    assert refines(q, p) and not refines(p, q)
    c = common_refinement(p, vp([0, 1, 0, 1, 0, 1]))
    assert refines(c, p)
    assert c.order == 4


def test_refines_requires_same_ground():
    with pytest.raises(GroundMismatch):
        refines(vp([0, 0, 1, 1],
                   VertexClass(0, 4)), vp([0, 0, 0, 1, 1, 1]))


def test_approx_subset_degenerate_strictness():
    s = frozenset({0, 1})
    assert approx_subset(s, frozenset({0, 1, 2}), Fraction(0))
    assert not approx_subset(s, frozenset({0, 2}), Fraction(1, 2))
    assert approx_subset(s, frozenset({0, 2}), Fraction(3, 4))


def test_approx_member_and_refines():
    p = vp([0, 0, 0, 1, 1, 1])
    assert approx_member(frozenset({0, 1, 3}), p, Fraction(1, 2)) == 0
    assert approx_member(frozenset({0, 3}), p, Fraction(1, 2)) is None
    q = vp([0, 0, 1, 1, 2, 2])
    assert approx_refines(q, p, Fraction(1, 2))


def test_is_equitable():
    assert is_equitable(vp([0, 0, 1, 1, 2, 2]))
    assert not is_equitable(vp([0, 0, 0, 1, 1, 2]))


def test_refinement_union_bound():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(2, 4)
        n = k * rng.randint(3, 6)
        verts = list(range(n))
        rng.shuffle(verts)
        size = n // k
        p = VertexPartition(VertexClass(0, n), tuple(
            frozenset(verts[i * size:(i + 1) * size]) for i in range(k)))
        labels = [0] * n
        for i, blk in enumerate(p.blocks):
            for v in blk:
                labels[v] = 2 * i + (v % 2)
        q = VertexPartition.from_labels(p.ground, labels)
        delta = Fraction(1, 4)
        assert approx_refines(q, p, delta)
        pb, union = refinement_union_extract(q, p, delta)
        assert Fraction(len(pb ^ union)) <= 3 * delta * len(pb)


def test_refinement_union_requires_precondition():
    p = vp([0, 0, 0, 1, 1, 1])
    q = vp([0, 0, 1, 1, 2, 2])
    with pytest.raises(PreconditionFailed):
        refinement_union_extract(q, p, Fraction(1, 8))


def test_restrict_vertex_partition_reindexes():
    p = vp([0, 0, 1, 1, 2, 2])
    r = restrict_vertex_partition(p, [1, 2, 5])
    assert r.ground.size == 3
    assert set(map(frozenset, r.blocks)) == {frozenset({0}), frozenset({1}),
                                             frozenset({2})}


def test_frame_offsets():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2 + i) for i in range(3)))
    assert frame.total == 9
    assert frame.offset(2) == 5
    assert frame.class_of(4) == 1
    assert frame.to_local(1, 3) == 1
    assert frame.to_combined(2, 1) == 6


def test_cluster_layout():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2 + i) for i in range(3)))
    z = VertexPartition.from_labels(frame.combined_class(),
                                    [2, 2, 0, 4, 0, 3, 1, 1, 3])
    assert frame.cluster_layout(z) == [(1, (0, 2)), (2, (1, 2)), (0, (0, 1)),
                                       (2, (0, 3)), (1, (1,))]
    short = VertexPartition.from_labels(VertexClass(0, 8), [0] * 8)
    with pytest.raises(FrameMismatch, match="ground differs"):
        frame.cluster_layout(short)
    straddling = VertexPartition.from_labels(VertexClass(0, 9),
                                             [0, 1, 1, 1, 1, 2, 2, 2, 2])
    with pytest.raises(FrameMismatch, match="does not refine"):
        frame.cluster_layout(straddling)


def test_complete_two_partition_valid():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    assert validate_two_partition(tp) == []


def test_two_partition_graphs():
    """One graph per block, keyed (i, j, k) with i < j in block order,
    oriented from cluster i to cluster j on cluster-local indices, built
    once and read-only."""
    z = vp([0, 0, 1, 1, 1, 2])  # clusters {0, 1}, {2, 3, 4} and {5}
    e = (EdgeBlock((1, 0), frozenset({(2, 0), (3, 0), (4, 0)})),
         EdgeBlock((0, 2), frozenset({(0, 5), (1, 5)})),
         EdgeBlock((0, 1), frozenset({(1, 2), (1, 3), (1, 4)})),
         EdgeBlock((2, 1), frozenset({(5, 2), (5, 3), (5, 4)})))
    tp = TwoPartition(z, e)
    assert tp.validate() == []
    c0, c1, c2 = VertexClass(0, 2), VertexClass(1, 3), VertexClass(2, 1)
    want = {
        (0, 1, 0): BipartiteGraph(c0, c1, [(0, 0), (0, 1), (0, 2)]),
        (0, 2, 0): BipartiteGraph(c0, c2, [(0, 0), (1, 0)]),
        (0, 1, 1): BipartiteGraph(c0, c1, [(1, 0), (1, 1), (1, 2)]),
        (1, 2, 0): BipartiteGraph(c1, c2, [(0, 0), (1, 0), (2, 0)]),
    }
    assert list(tp.graphs) == list(want)
    for key, g in want.items():
        got = tp.graphs[key]
        assert (got.left, got.right, got.edges) == (g.left, g.right, g.edges)
    assert tp.graphs is tp.graphs
    with pytest.raises(TypeError):
        tp.graphs[(0, 1, 0)] = want[(0, 1, 0)]
    assert tp == TwoPartition(z, e) and hash(tp) == hash(TwoPartition(z, e))


def test_two_partition_detects_overlap_and_gap():
    z = vp([0, 0, 0, 1, 1, 1])
    full = frozenset((u, v) for u in z.blocks[0] for v in z.blocks[1])
    some = frozenset(list(sorted(full))[:4])
    tp = TwoPartition(z, (EdgeBlock((0, 1), some),))
    assert any("cover" in p or "missing" in p for p in tp.validate())
    tp2 = TwoPartition(z, (EdgeBlock((0, 1), full),
                           EdgeBlock((0, 1), some)))
    assert tp2.validate()


def test_sub_partitions_axes():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    zs, es = sub_partitions(tp, frame)
    assert [z.ground.size for z in zs] == [2, 2, 2]
    # E_3 partitions V1 x V2
    assert es[2].carrier.size == 4
    assert es[2].order == 1
    assert es[2].blocks[0].edge_count == 4


def test_sub_partitions_frame_mismatch():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    z = vp([0, 1, 0, 1, 2, 2])  # mixes classes 1 and 2
    with pytest.raises(FrameMismatch):
        sub_partitions(complete_two_partition(z), frame)


def test_restrict_two_partition():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    sub = [0, 2, 4]  # first vertex of each class
    r = restrict_two_partition(tp, sub)
    assert r.z.ground.size == 3
    assert validate_two_partition(r) == []


def test_edge_partition_rejects_partial_cover():
    ps = ProductSide(VertexClass(0, 2), VertexClass(1, 2))
    g = BipartiteGraph(ps.first, ps.second, [(0, 0)])
    with pytest.raises(DegenerateInput):
        EdgePartition(ps, (g,))
