import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The schedule functions before they returned early once saturated, kept
# verbatim but for their names as the oracle for their values.


def _ref_func_e(i: int) -> cn.BigCount:
    """e(i) = 2^(i+10)."""
    if i < 0:
        raise ParameterOutOfContract("e(i) needs i >= 0")
    return cn.BigCount.of(1 << (i + 10))


def _ref_func_w(i: int) -> cn.BigCount:
    """w(1) = 1, w(i+1) = t(w(i)) / e(i).

    w(1) and w(2) are exact; from w(3) on the index of t is astronomical
    and a flagged lower bound is returned.
    """
    if i < 1:
        raise ParameterOutOfContract("w(i) needs i >= 1")
    w = cn.BigCount.of(1)
    for j in range(1, i):
        w = cn.func_t(w).div_pow2(j + 10)
    return w


def _ref_func_wow(x: int) -> cn.BigCount:
    """x-fold iterated tower of 1: wow(x) = twr(twr(...twr(1)...)).

    wow(0..3) are exact (1, 2, 4, 65536); beyond that the tower height
    itself is astronomical and a flagged lower bound is returned.
    """
    if x < 0:
        raise ParameterOutOfContract("wow(x) needs x >= 0")
    v = cn.BigCount.of(1)
    for step in range(x):
        h = v.as_int(64)
        if h is None or h > cn._DEPTH_CAP:
            h = cn._DEPTH_CAP
            v = cn.func_twr(h)
            v = cn.BigCount(v.leaf, v.base, v.shift, False)
        else:
            inexact = not v.exact
            v = cn.func_twr(h)
            if inexact:
                v = cn.BigCount(v.leaf, v.base, v.shift, False)
    return v


@pytest.mark.parametrize("func, ref", [
    (cn.func_e, _ref_func_e), (cn.func_w, _ref_func_w),
    (cn.func_wow, _ref_func_wow)], ids=["e", "w", "wow"])
def test_schedule_values_match_the_stepwise_oracle(func, ref):
    def outcome(f, i):
        try:
            v = f(i)
        except ParameterOutOfContract as err:
            return str(err)
        return repr(v), v.exact

    for i in [*range(-1, 80), 200, 1000, 5000]:
        assert outcome(func, i) == outcome(ref, i)


def test_schedule_answers_at_once_at_index_10_to_the_18():
    i = 10 ** 18
    start = time.perf_counter()
    e, w, wow = cn.func_e(i), cn.func_w(i), cn.func_wow(i)
    assert time.perf_counter() - start < 1
    assert repr(e) == f"2^({i + 10}+0)" and e.exact
    assert w == cn.func_w(3).div_pow2(i - 3) and not w.exact
    assert repr(wow) == repr(cn.func_wow(4)) and not wow.exact


def test_e_compares_across_the_materialization_budget():
    b = cn._MAT_BITS - 10  # the first e(i) held as a node
    assert cn.func_e(b - 1).leaf is not None and cn.func_e(b).leaf is None
    assert repr(cn.func_e(b - 1)) == f"2^{b - 1 + 10}"
    for i, j in [(b - 1, b), (b, b + 1), (b + 1, 5_000_000)]:
        assert cn.func_e(i).cmp(cn.func_e(j)) == -1
        assert cn.func_e(j).cmp(cn.func_e(i)) == 1
        assert cn.func_e(j).cmp(cn.func_e(j)) == 0


def test_leaves_past_the_budget_compare_exactly():
    """``mul_pow2`` on the last e(i) held as a leaf gives a leaf beyond the
    materialization budget.  It compares with itself, with other leaves as
    an integer, and with nodes, shifted ones and a huge one included, by
    its bit length."""
    e = cn._MAT_BITS + 4
    big = cn.func_e(cn._MAT_BITS - 11).mul_pow2(5)  # 2^e
    assert big.leaf == 1 << e and big.as_int() is None
    assert big.cmp(big) == 0 and big == big
    above, below = cn.BigCount.of(big.leaf + 1), cn.BigCount.of(big.leaf - 1)
    for leaf, want in [(above, -1), (below, 1), (cn.BigCount.of(3), 1)]:
        assert big.cmp(leaf) == want and leaf.cmp(big) == -want
    for node, want in [
            (cn.BigCount.pow2(cn.BigCount.of(e - 1)), 1),
            (cn.BigCount.pow2(cn.BigCount.of(e)), 0),
            (cn.BigCount.pow2(cn.BigCount.of(e - 7), shift=7), 0),
            (cn.BigCount.pow2(cn.BigCount.of(e + 1)), -1),
            (cn.BigCount.pow2(cn.BigCount.of(1 << 300)), -1)]:
        assert node.as_int() is None
        assert big.cmp(node) == want and node.cmp(big) == -want
    node = cn.BigCount.pow2(cn.BigCount.of(e))
    assert above.cmp(node) == 1 and below.cmp(node) == -1
    assert cn.BigCount.of(0).cmp(node) == -1



@pytest.mark.parametrize("x, y", [
    (cn.func_e(cn._MAT_BITS).mul_pow2(5), cn.func_e(cn._MAT_BITS + 5)),
    (cn.func_e(cn._MAT_BITS - 11).mul_pow2(5),
     cn.BigCount.pow2(cn.BigCount.of(cn._MAT_BITS + 4)))],
    ids=["two nodes past the budget", "a leaf and a node past the budget"])
def test_equal_values_past_the_budget_compare_and_hash_alike(x, y):
    """2^(4194314+5) against 2^(4194319+0), and the leaf 2^4194308
    against the node 2^(4194308+0)."""
    assert x.as_int() is None and y.as_int() is None
    assert x.cmp(y) == 0 and y.cmp(x) == 0 and x == y
    assert hash(x) == hash(y) and len({x, y}) == 1
    assert x.mul_pow2(1).cmp(y) == 1 and y.cmp(x.mul_pow2(1)) == -1
    assert x.div_pow2(1).cmp(y) == -1 and y.cmp(x.div_pow2(1)) == 1


def _pow2_forms(e: int) -> list:
    """2^e built in different ways: nodes on an int, shifted either way,
    a node on a node and, while 2^e fits in memory, leaves."""
    of, pow2 = cn.BigCount.of, cn.BigCount.pow2
    forms = [pow2(of(e)), pow2(of(e - 7), shift=7),
             pow2(of(e + 3)).div_pow2(3), pow2(of(e - 5)).mul_pow2(5),
             pow2(pow2(of(4)), shift=e - 16)]
    if e <= cn._MAT_BITS + 64:
        forms += [of(1 << e), of(1 << (e - 9)).mul_pow2(9)]
    return forms


def _tower_forms(t: int, s: int) -> list:
    """2^(2^t + s) for 2^t past the budget: its exponent is no int here."""
    of, pow2 = cn.BigCount.of, cn.BigCount.pow2
    return [pow2(pow2(of(t)), shift=s), pow2(pow2(of(t - 3), shift=3), s),
            pow2(pow2(of(t + 2)).div_pow2(2)).mul_pow2(s)]


_EXPONENTS = st.one_of(st.integers(16, 300),
                       st.integers(cn._MAT_BITS - 70, cn._MAT_BITS + 70),
                       st.sampled_from([1 << 40, (1 << 300) + 1]))


@st.composite
def _big_values(draw):
    """A BigCount with the key of its value: (0, e) for 2^e and
    (1, t, s) for 2^(2^t + s), ordered as the values are."""
    if draw(st.booleans()):
        e = draw(_EXPONENTS)
        return (0, e), draw(st.sampled_from(_pow2_forms(e)))
    t = draw(st.integers(cn._MAT_BITS + 1, cn._MAT_BITS + 3))
    s = draw(st.integers(-2, 2))
    return (1, t, s), draw(st.sampled_from(_tower_forms(t, s)))


@settings(max_examples=60, deadline=None)
@given(_big_values(), _big_values())
def test_bigcount_order_equality_and_hash_agree(a, b):
    """Values built in different ways compare by value, and equal ones
    hash alike."""
    (ka, x), (kb, y) = a, b
    want = (ka > kb) - (ka < kb)
    assert x.cmp(y) == want and y.cmp(x) == -want
    assert (x == y) == (want == 0)
    if x == y:
        assert hash(x) == hash(y) and len({x, y}) == 1

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
