import random
import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regkit import partitions, suites
from regkit.errors import (DegenerateInput, FrameMismatch, GroundMismatch,
                           NotDisjoint, ParameterOutOfContract,
                           PreconditionFailed)
from regkit.graphs import BipartiteGraph, VertexClass
from regkit.partitions import (HALF, ThreePartiteFrame, TwoPartition,
                               VertexPartition, approx_refines,
                               complete_two_partition, is_equitable,
                               refinement_union_extract,
                               restrict_two_partition,
                               restrict_vertex_partition, sub_partitions)
from test_hyperreg import (DrawnTwoPartition, EdgeBlock,
                           framed_two_partitions, run_under_python_O,
                           two_partition)

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
    # Approximate refinement at beta = 0 is exact refinement.
    p = vp([0, 0, 0, 1, 1, 1])
    q = vp([0, 0, 1, 2, 2, 3])
    assert approx_refines(q, p, 0) and not approx_refines(p, q, 0)


def test_refines_requires_same_ground():
    with pytest.raises(GroundMismatch):
        approx_refines(vp([0, 0, 1, 1], VertexClass(0, 4)),
                       vp([0, 0, 0, 1, 1, 1]), 0)


def test_approx_refines_is_strict():
    # q's second block has 1 of its 5 vertices outside p's second block: it
    # is beta-inside for 1 < 5 beta only, and q then beta-refines p.
    p = vp([0, 0, 0, 0, 1, 1, 1, 1], VertexClass(0, 8))
    q = vp([0, 0, 0, 1, 1, 1, 1, 1], VertexClass(0, 8))
    assert approx_refines(q, p, Fraction(1, 4))
    assert not approx_refines(q, p, Fraction(1, 5))
    assert not approx_refines(q, p, 0)


def test_approx_refines_hosts_by_plurality():
    p = vp([0, 0, 0, 1, 1, 1])
    half = Fraction(1, 2)
    # {0, 1, 3} is half-inside block 0, where 2 of its 3 vertices lie.
    q = vp([0, 0, 1, 0, 2, 2])
    assert approx_refines(q, p, half)
    assert refinement_union_extract(q, p, half) == (
        frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}))
    # {0, 3} is split evenly, so it is half-inside no block.
    q = vp([0, 1, 1, 0, 2, 2])
    assert approx_refines(q, p, half)
    assert refinement_union_extract(q, p, half) == (
        frozenset({0, 1, 2}), frozenset({1, 2}))


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


def test_union_extract_keeps_the_guard_for_hosts_passed_in():
    """Hosts that the precondition could never give (every q-block astray,
    yet a list) reach the symmetric-difference guard, which raises."""
    p = vp([0, 0, 0, 1, 1, 1])
    q = vp([0, 0, 1, 1, 2, 2])
    with pytest.raises(PreconditionFailed,
                       match="no block meets the symmetric-difference bound"):
        partitions._union_extract(q, p, Fraction(1, 8), [None] * q.order)
    with pytest.raises(PreconditionFailed,
                       match="q is not an approximate refinement of p"):
        partitions._union_extract(q, p, Fraction(1, 8), None)


@pytest.mark.parametrize("seed", range(6))
def test_claim_3_2_computes_the_hosts_once_per_candidate(monkeypatch, seed):
    """The suite finds the hosts of each candidate q once, the accepted one
    included, and keeps the record of extracting them afresh."""
    calls = {"hosts": 0, "candidates": 0}
    hosts, noisy = partitions._refinement_hosts, suites._noisy_refinement

    def counted_hosts(*args):
        calls["hosts"] += 1
        return hosts(*args)

    def counted_noisy(*args):
        calls["candidates"] += 1
        return noisy(*args)

    monkeypatch.setattr(partitions, "_refinement_hosts", counted_hosts)
    monkeypatch.setattr(suites, "_noisy_refinement", counted_noisy)
    rec, ok, _ = suites._suite_claim_3_2(random.Random(seed))
    assert ok
    assert calls["hosts"] == calls["candidates"] + (calls["candidates"] == 60)
    rng = random.Random(seed)
    delta = rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
    for _ in range(60):
        k = rng.randint(2, 5)
        p = suites._random_equitable(rng, k * rng.randint(4, 8), k)
        q = noisy(rng, p, rng.randint(1, 3), rng.randint(0, 2))
        if approx_refines(q, p, delta):
            break
    else:
        q = p
    pb, union = refinement_union_extract(q, p, delta)
    assert (rec["symdiff"], rec["block"]) == (len(pb ^ union), len(pb))


# A partition with no blocks, made past the constructor that rejects it; on
# an empty ground it approximately refines itself.
_BLOCKLESS_PROBE = """
from fractions import Fraction
from regkit.errors import DegenerateInput
from regkit.graphs import VertexClass
from regkit.partitions import VertexPartition, refinement_union_extract
p = object.__new__(VertexPartition)
object.__setattr__(p, "ground", VertexClass(0, 0))
object.__setattr__(p, "blocks", ())
try:
    refinement_union_extract(p, p, Fraction(1, 4))
except DegenerateInput as exc:
    print(exc)
"""


def test_refinement_union_rejects_no_blocks_also_under_python_O(capsys):
    exec(_BLOCKLESS_PROBE, {})
    assert capsys.readouterr().out == "partition with no blocks\n"
    assert run_under_python_O(_BLOCKLESS_PROBE) == "partition with no blocks\n"


# The refinement algebra that the plurality-label rule replaced: set
# differences against every block, kept verbatim but for the ``_ref_``
# names as the oracle for the property test below.


def _ref_require_same_ground(q: VertexPartition, p: VertexPartition) -> None:
    if q.ground != p.ground:
        raise GroundMismatch(
            f"grounds differ: {q.ground} vs {p.ground}")


def _ref_refines(q: VertexPartition, p: VertexPartition) -> bool:
    """True iff every block of q is contained in some block of p."""
    _ref_require_same_ground(q, p)
    owner = p.labels()
    for block in q.blocks:
        it = iter(block)
        lab = owner[next(it)]
        if any(owner[v] != lab for v in it):
            return False
    return True


def _ref_approx_subset(s: frozenset, t: frozenset, beta: Fraction) -> bool:
    """Approximate containment: |s \\ t| < beta*|s| (s subset of t if beta=0)."""
    beta = Fraction(beta)
    if beta < 0:
        raise ParameterOutOfContract("beta must be >= 0")
    if not s:
        raise DegenerateInput("approximate containment of an empty set")
    astray = len(s - t)
    if astray == 0:
        return True
    return astray < beta * len(s)


def _ref_approx_member(s: frozenset, p: VertexPartition,
                       beta: Fraction) -> Optional[int]:
    """Index of the unique block with s c_beta block, or None.

    Requires beta <= 1/2, which guarantees uniqueness of the witness.
    """
    beta = Fraction(beta)
    if beta > HALF:
        raise ParameterOutOfContract("beta must be <= 1/2 for uniqueness")
    for i, block in enumerate(p.blocks):
        if _ref_approx_subset(s, block, beta):
            return i
    return None


def _ref_approx_refines(q: VertexPartition, p: VertexPartition,
                        beta: Fraction) -> bool:
    """Mass of q-blocks not beta-inside any p-block is at most beta*n."""
    _ref_require_same_ground(q, p)
    beta = Fraction(beta)
    if beta > HALF:
        raise ParameterOutOfContract("beta must be <= 1/2")
    stray = sum(len(block) for block in q.blocks
                if _ref_approx_member(block, p, beta) is None)
    return stray <= beta * q.ground.size


def _ref_refinement_union_extract(q: VertexPartition, p: VertexPartition,
                                  delta: Fraction
                                  ) -> tuple[frozenset[int], frozenset[int]]:
    """A block P of p and the union Q of q-blocks delta-inside it, with
    |P symdiff Q| <= 3*delta*|P|.

    Constructive form of the refinement-union bound: among all blocks the one
    minimizing the relative symmetric difference is returned (an averaging
    argument shows the bound holds for it).
    """
    delta = Fraction(delta)
    if not _ref_approx_refines(q, p, delta):
        raise PreconditionFailed("q is not an approximate refinement of p")
    best = None
    for pb in p.blocks:
        union: set[int] = set()
        for qb in q.blocks:
            if _ref_approx_subset(qb, pb, delta):
                union |= qb
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


@st.composite
def refinement_cases(draw):
    """(q, p, beta): q cuts p's blocks into pieces and moves a few vertices
    anywhere; beta is mostly in [0, 1/2], sometimes outside; q's ground now
    and then differs from p's in its id or its size."""
    n = draw(st.integers(1, 12))
    rng = draw(st.randoms(use_true_random=False))
    p_labels = [rng.randrange(4) for _ in range(n)]
    q_labels = [3 * lab + rng.randrange(3) for lab in p_labels]
    for v in rng.sample(range(n), rng.randint(0, n)):
        q_labels[v] = rng.randrange(15)
    q_ground = VertexClass(0, n)
    ground = draw(st.sampled_from(["same"] * 9 + ["id", "size"] + ["same"] * 9))
    if ground == "id":
        q_ground = VertexClass(1, n)
    elif ground == "size":
        q_ground = VertexClass(0, n + 1)
        q_labels.append(0)
    beta = draw(st.one_of(
        st.fractions(0, HALF, max_denominator=12),
        st.sampled_from([0, Fraction(-1, 3), Fraction(3, 5),
                         HALF + Fraction(1, 100)])))
    return (VertexPartition.from_labels(q_ground, q_labels),
            VertexPartition.from_labels(VertexClass(0, n), p_labels), beta)


def _outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return "returned", f(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


@settings(max_examples=500)
@given(refinement_cases())
def test_refinement_algebra_matches_the_set_difference_oracle(case):
    q, p, beta = case
    assert (_outcome(approx_refines, q, p, beta)
            == _outcome(_ref_approx_refines, q, p, beta))
    assert (_outcome(refinement_union_extract, q, p, beta)
            == _outcome(_ref_refinement_union_extract, q, p, beta))
    assert _outcome(approx_refines, q, p, 0) == _outcome(_ref_refines, q, p)


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
    c = [VertexClass(i, 2) for i in range(3)]
    assert tp.blocks == tuple(
        (i, j, BipartiteGraph.complete(c[i], c[j]))
        for i, j in ((0, 1), (0, 2), (1, 2)))


# Clusters {0, 1}, {2, 3, 4} and {5}, and their classes as block sides.
Z3 = vp([0, 0, 1, 1, 1, 2])
C0, C1, C2 = VertexClass(0, 2), VertexClass(1, 3), VertexClass(2, 1)
K01 = (0, 1, BipartiteGraph.complete(C0, C1))
K02 = (0, 2, BipartiteGraph.complete(C0, C2))
K12 = (1, 2, BipartiteGraph.complete(C1, C2))


def test_two_partition_graphs():
    """The stored graphs keyed (i, j, k) in block order, the k-th block of
    pair (i, j); built once and read-only."""
    g01a = BipartiteGraph(C0, C1, [(0, 0), (0, 1), (0, 2)])
    g01b = BipartiteGraph(C0, C1, [(1, 0), (1, 1), (1, 2)])
    blocks = ((0, 1, g01a), K02, (0, 1, g01b), K12)
    tp = TwoPartition(Z3, blocks)
    assert list(tp.graphs.items()) == [
        ((0, 1, 0), g01a), ((0, 2, 0), K02[2]), ((0, 1, 1), g01b),
        ((1, 2, 0), K12[2])]
    assert all(tp.graphs[key] is g
               for key, (_, _, g) in zip(tp.graphs, blocks))
    assert tp.graphs is tp.graphs
    with pytest.raises(TypeError):
        tp.graphs[(0, 1, 0)] = g01b
    assert tp == TwoPartition(Z3, blocks)
    assert hash(tp) == hash(TwoPartition(Z3, blocks))


def test_two_partition_detects_overlap_and_gap():
    some = (0, 1, BipartiteGraph(C0, C1, [(0, 0), (1, 2)]))
    with pytest.raises(DegenerateInput, match=r"^pair \(0,1\): 4 product "
                       r"edge\(s\) missing$"):
        TwoPartition(Z3, (some, K02, K12))
    with pytest.raises(DegenerateInput, match=r"^pair \(0,1\): duplicated "
                       r"edge \(NotDisjoint\)$"):
        TwoPartition(Z3, (K01, some, K02, K12))


@pytest.mark.parametrize("blocks, pair", [
    ((K01, K02, (1, 3, BipartiteGraph.complete(C1, VertexClass(3, 1)))),
     "(1,3)"),
    ((K01, K02, K12, (2, 2, BipartiteGraph.empty(C2, C2))), "(2,2)"),
    ((K01, K02, (-1, 2, BipartiteGraph.empty(C1, C2)), K12), "(-1,2)"),
    (((1, 0, BipartiteGraph.complete(C1, C0)), K02, K12), "(1,0)"),
    ((K01, (0, 2, BipartiteGraph.complete(VertexClass(0, 3), C2)), K12),
     "(0,2)"),
    ((K01, K02, (1, 2, BipartiteGraph.complete(VertexClass(1, 2), C2))),
     "(1,2)"),
    ((K01, (0, 2, BipartiteGraph.complete(C0, VertexClass(1, 1))), K12),
     "(0,2)"),
    ((K01, (0, 2, BipartiteGraph.complete(C2, C0)), K12), "(0,2)"),
    ((K01, K02, K12, (1, 2, BipartiteGraph(C1, C2, [(2, 0)]))), "(1,2)"),
    ((K01, K12), "(0,2)"),
    ((K01, K02, (1, 2, BipartiteGraph(C1, C2, [(0, 0), (2, 0)]))),
     "(1,2)"),
], ids=["pair out of range", "pair with itself", "negative cluster",
        "pair unordered", "side too large", "side too small", "side id",
        "sides swapped", "blocks overlap", "pair absent",
        "pair not covered"])
def test_invalid_two_partition_raises_naming_the_pair(blocks, pair):
    with pytest.raises(DegenerateInput, match=re.escape(pair)):
        TwoPartition(Z3, blocks)


def test_sub_partitions_axes():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    zs, es = sub_partitions(tp, frame)
    assert [z.ground.size for z in zs] == [2, 2, 2]
    # E_3 partitions V1 x V2, pair (v1, v2) at v1 * |V2| + v2
    assert es[2] == VertexPartition(VertexClass(-1, 4),
                                    (frozenset({0, 1, 2, 3}),))


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
    assert r == complete_two_partition(restrict_vertex_partition(tp.z, sub))


# ``restrict_two_partition`` as it was when blocks were stored on combined
# indices, kept verbatim as the oracle for the property test below; it
# reads the drawn blocks.  It returns drawn blocks, which the test builds
# into a ``TwoPartition``; that replaces its last call, to the deleted
# ``require_valid()``.


def _ref_restrict_two_partition(tp: DrawnTwoPartition,
                                sub) -> DrawnTwoPartition:
    sub = sorted(set(sub))
    if not sub:
        raise DegenerateInput("restriction to an empty subset")
    pos = {v: i for i, v in enumerate(sub)}
    zr = restrict_vertex_partition(tp.z, sub)
    # Map old cluster index -> new cluster index (None if the trace is empty).
    newidx: dict[int, int] = {}
    k = 0
    for i, block in enumerate(tp.z.blocks):
        if any(v in pos for v in block):
            newidx[i] = k
            k += 1
    blocks = []
    for eb in tp.e:
        i, j = eb.pair
        if i not in newidx or j not in newidx:
            continue
        kept = frozenset((pos[u], pos[v]) for u, v in eb.edges
                         if u in pos and v in pos)
        if kept:
            blocks.append(EdgeBlock((newidx[i], newidx[j]), kept))
    return DrawnTwoPartition(zr, tuple(blocks))


@given(framed_two_partitions(), st.data())
def test_restriction_matches_the_combined_index_restriction(case, data):
    """Any non-empty subset, including ones that empty a cluster or a
    block."""
    frame, drawn, tp = case
    sub = data.draw(st.sets(st.integers(0, frame.total - 1), min_size=1))
    want = two_partition(_ref_restrict_two_partition(drawn, sub))
    assert restrict_two_partition(tp, sub) == want

