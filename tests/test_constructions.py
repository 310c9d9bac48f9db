from fractions import Fraction

import pytest

import regkit.constructions as cn
from regkit.errors import (ClassSizeMismatch, ParameterOutOfContract,
                           PreconditionFailed)
from regkit.graphs import ThreeGraph


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


def test_six_cycle_paste_needs_one_class_size():
    parts = [ThreeGraph.complete(f) for f in cn.part_frames(2)]
    parts[4] = ThreeGraph.complete(cn.part_frames(3)[4])
    with pytest.raises(ClassSizeMismatch, match="^part 4 has class size 3, "
                       "expected 2$"):
        cn.six_cycle_paste(parts)
