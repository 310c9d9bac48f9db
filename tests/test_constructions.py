from fractions import Fraction

import pytest

import regkit.constructions as cn
from regkit.errors import ParameterOutOfContract, PreconditionFailed
from regkit.graphs import ProductSide, ThreeGraph, VertexClass
from regkit.partitions import is_equitable, refines


def test_bigcount_basics():
    four = cn.BigCount.of(4)
    assert four.as_int() == 4
    assert cn.BigCount.pow2(cn.BigCount.of(10)).as_int() == 1024
    assert four.mul_pow2(3).as_int() == 32
    assert four.div_pow2(2).as_int() == 1
    with pytest.raises(ParameterOutOfContract):
        cn.BigCount.of(3).div_pow2(1)


def test_bigcount_symbolic_compare():
    huge = cn.BigCount.pow2(cn.BigCount.of(1 << 300))
    huger = cn.BigCount.pow2(cn.BigCount.of(1 << 300), shift=1)
    assert huge.as_int() is None
    assert huge.cmp(huger) < 0
    assert huge.cmp(huge) == 0
    assert huge.cmp(cn.BigCount.of(10 ** 100)) > 0


def test_schedule_pinned_values():
    assert cn.func_e(3).as_int() == 8192
    assert cn.func_t(1).as_int() == 1 << 250
    assert cn.func_t(2) == cn.BigCount.pow2(cn.BigCount.of(1 << 239))
    assert cn.func_w(1).as_int() == 1
    assert cn.func_w(2).as_int() == 1 << 239
    assert cn.func_twr(1).as_int() == 2
    assert cn.func_twr(3).as_int() == 16
    assert cn.func_wow(1).as_int() == 2
    assert cn.func_wow(2).as_int() == 4
    assert cn.func_wow(3).as_int() == 65536
    assert not cn.func_wow(4).exact  # saturated lower bound


def test_schedule_growth_and_shape():
    prev = cn.func_t(1)
    for i in range(2, 7):
        ti = cn.func_t(i)
        assert ti.is_power_of_two()
        assert ti.cmp(prev.mul_pow2(2)) >= 0  # t(i) >= 4 t(i-1)
        prev = ti


def test_fstar_dominates_f():
    for i in range(1, 5):
        fs = cn.func_fstar(lambda j: j, i)
        assert fs.cmp(cn.BigCount.of(i)) >= 0
    with pytest.raises(PreconditionFailed):
        cn.func_fstar(lambda j: j - 1, 2)


def test_w_dominates_wow_where_exact():
    for i in (2, 3):
        assert cn.func_w(i).cmp(cn.func_wow(i)) >= 0


def test_random_refinement_chain():
    chain = cn.random_refinement_chain(48, [2, 4, 12], seed=9)
    assert [p.order for p in chain] == [2, 4, 12]
    for fine, coarse in zip(chain[1:], chain):
        assert refines(fine, coarse)
    for p in chain:
        assert is_equitable(p)


def test_random_refinement_chain_contract():
    with pytest.raises(ParameterOutOfContract):
        cn.random_refinement_chain(10, [3], seed=0)  # 3 does not divide 10
    with pytest.raises(ParameterOutOfContract):
        cn.random_refinement_chain(12, [4, 2], seed=0)  # not increasing


def test_random_edge_equipartition_chain():
    carrier = ProductSide(VertexClass(0, 8), VertexClass(1, 8))
    ec = cn.random_edge_equipartition_chain(carrier, 3, seed=4)
    for j, ep in enumerate(ec.chain, start=1):
        assert ep.order == 1 << j
        sizes = {g.edge_count for g in ep.blocks}
        assert sizes == {carrier.size >> j}
    for fine, coarse in zip(ec.chain[1:], ec.chain):
        assert cn.edge_partition_refines(fine, coarse)


def test_edge_partition_refines_needs_every_edge_inside():
    """Levels of two unrelated chains: each fine block meets coarse blocks
    but sits inside none, so neither refines the other."""
    carrier = ProductSide(VertexClass(0, 8), VertexClass(1, 8))
    a = cn.random_edge_equipartition_chain(carrier, 2, seed=4).chain
    b = cn.random_edge_equipartition_chain(carrier, 2, seed=5).chain
    assert cn.edge_partition_refines(a[1], a[0])
    assert not cn.edge_partition_refines(a[1], b[0])
    assert not cn.edge_partition_refines(b[1], a[0])


def test_six_cycle_template():
    tpl = cn.tight_six_cycle()
    assert len(tpl.edges) == 6
    assert all(len(e) == 3 for e in tpl.edges)


def test_six_cycle_paste_density():
    n = 2
    parts = [ThreeGraph.complete(f) for f in cn.part_frames(n)]
    h = cn.six_cycle_paste(parts)
    assert all(c.size == 2 * n for c in h.classes)
    assert h.density == Fraction(6, 8)
    assert h.edge_count == sum(p.edge_count for p in parts)


def test_six_cycle_paste_empty_parts():
    n = 3
    parts = [ThreeGraph(f, frozenset()) for f in cn.part_frames(n)]
    h = cn.six_cycle_paste(parts)
    assert h.edge_count == 0


def test_key_argument_scenario():
    sc = cn.build_key_argument_scenario(s=2, n=4, seed=3)
    aux_edges = sc.h.edge_count
    assert sc.g_prime.edge_count == aux_edges


def test_theorem_main_scenario():
    sc = cn.build_theorem_main_scenario(s=2, n=2, seed=5)
    assert sc.h.density == Fraction(6, 8) * Fraction(1, 2)
    assert sc.v0.order == 6


def test_validate_core_assumptions_flags_small_start():
    r_chain = tuple(cn.random_refinement_chain(8, [2, 4], seed=1))
    l_chain = tuple(cn.random_refinement_chain(8, [2, 4], seed=2))
    pair = cn.ChainPair(l_side=VertexClass(0, 8), r_side=VertexClass(1, 8),
                        l_chain=l_chain, r_chain=r_chain)
    problems = cn.validate_core_assumptions(pair)
    assert any("2^200" in p for p in problems)
