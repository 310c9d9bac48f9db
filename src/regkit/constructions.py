"""Growth-schedule arithmetic and tight 6-cycle pasting.

The schedule functions (e, t, f*, w, twr, wow) outgrow machine integers
almost immediately, so values are kept as exact base-2 exponent towers:
a BigCount is either a plain integer or a node meaning 2^(base + shift)
with a BigCount base and an integer shift.  All schedule values are
powers of two, so the divisions the recurrences need stay exact.  Where
a value is genuinely uncomputable (t at an astronomically large index,
wow beyond height 3) a lower bound is returned with ``exact=False``.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

from .errors import (ClassSizeMismatch, DegenerateInput,
                     ParameterOutOfContract, PreconditionFailed)
from .graphs import ThreeGraph, VertexClass

# Largest value materialized as a plain int during comparisons: 2^(2^22).
_MAT_BITS = 1 << 22
# Beyond this many recurrence steps, t and wow saturate to lower bounds.
_DEPTH_CAP = 64


class BigCount:
    """Exact nonnegative count, possibly as a base-2 exponent tower.

    Leaf form holds a plain integer.  Node form represents
    2^(base + shift).  ``exact`` is False for saturated lower bounds.
    """

    __slots__ = ("leaf", "base", "shift", "exact")

    def __init__(self, leaf: Optional[int], base: Optional["BigCount"],
                 shift: int, exact: bool):
        self.leaf = leaf
        self.base = base
        self.shift = shift
        self.exact = exact

    @staticmethod
    def of(value: int, exact: bool = True) -> "BigCount":
        if value < 0:
            raise ParameterOutOfContract("BigCount must be nonnegative")
        return BigCount(value, None, 0, exact)

    @staticmethod
    def pow2(exponent: "BigCount", shift: int = 0) -> "BigCount":
        """2^(exponent + shift)."""
        return BigCount(None, exponent, shift, exponent.exact)

    def as_int(self, max_bits: int = _MAT_BITS) -> Optional[int]:
        """The exact integer value if it fits in ``max_bits`` bits."""
        if self.leaf is not None:
            return self.leaf if self.leaf.bit_length() <= max_bits else None
        e = self.base.as_int(64)
        if e is None:
            return None
        e += self.shift
        if e < 0 or e > max_bits:
            return None
        return 1 << e

    def mul_pow2(self, k: int) -> "BigCount":
        """Exact multiplication by 2^k (k may be negative for division).

        Division must be exact; leaves that are not divisible raise.
        """
        if self.leaf is not None:
            if k >= 0:
                return BigCount.of(self.leaf << k, self.exact)
            if self.leaf % (1 << -k):
                raise ParameterOutOfContract(
                    f"{self.leaf} is not divisible by 2^{-k}")
            return BigCount.of(self.leaf >> -k, self.exact)
        return BigCount(None, self.base, self.shift + k, self.exact)

    def div_pow2(self, k: int) -> "BigCount":
        return self.mul_pow2(-k)

    def is_power_of_two(self) -> bool:
        if self.leaf is not None:
            return self.leaf > 0 and self.leaf & (self.leaf - 1) == 0
        return True

    def _log2(self) -> Optional[int]:
        """E with self = 2^E, for a power-of-two leaf and for a node whose
        base materializes; None otherwise."""
        if self.leaf is None:
            e = self.base.as_int()
            return None if e is None else e + self.shift
        return self.leaf.bit_length() - 1 if self.is_power_of_two() else None

    def cmp(self, other: "BigCount") -> int:
        """-1, 0 or 1.  Exact for the schedule's power-of-two domain.

        Leaves and nodes that materialize compare as integers.  An integer
        L > 0 of n bits against a node 2^E that does not materialize
        compares n - 1 with E, as 2^(n-1) <= L < 2^n; so do two such nodes
        whose exponents are integers.  Otherwise the exponents are compared
        recursively: distinct huge operands are powers of two whose gap
        dwarfs any shift, so base order decides.
        """
        a = self.leaf if self.leaf is not None else self.as_int()
        b = other.leaf if other.leaf is not None else other.as_int()
        if a is not None and b is not None:
            return (a > b) - (a < b)
        if b is not None:
            return -other.cmp(self)
        e = other._log2()
        if a is not None:
            if a == 0 or e is None:
                return -1
            n = a.bit_length() - 1
            return (n > e) - (n < e) or int(a & (a - 1) != 0)
        d = self._log2()
        if d is not None and e is not None:
            return (d > e) - (d < e)
        c = self.base.cmp(other.base)
        return c or (self.shift > other.shift) - (self.shift < other.shift)

    def __ge__(self, other: "BigCount") -> bool:
        return self.cmp(other) >= 0

    def __le__(self, other: "BigCount") -> bool:
        return self.cmp(other) <= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigCount):
            return NotImplemented
        return self.cmp(other) == 0

    def __hash__(self) -> int:
        """Equal values hash alike: a power of two 2^E with E a known int
        hashes E, leaf or node; any other leaf hashes its int, and any
        other node its base's hash and its shift."""
        e = self._log2()
        if e is not None:
            return hash(("2^", e))
        return hash((self.leaf, hash(self.base), self.shift))

    def __repr__(self) -> str:
        tag = "" if self.exact else ">="
        if self.leaf is not None:
            if self.leaf.bit_length() > 64 and self.is_power_of_two():
                return f"{tag}2^{self.leaf.bit_length() - 1}"
            return f"{tag}{self.leaf}"
        return f"{tag}2^({self.base!r}{self.shift:+d})"


BigLike = BigCount | int


def _as_big(x: BigLike) -> BigCount:
    return x if isinstance(x, BigCount) else BigCount.of(x)


def func_e(i: int) -> BigCount:
    """e(i) = 2^(i+10), a plain integer below the materialization budget
    and a node from there on."""
    if i < 0:
        raise ParameterOutOfContract("e(i) needs i >= 0")
    if i + 10 >= _MAT_BITS:
        return BigCount.pow2(BigCount.of(i + 10))
    return BigCount.of(1 << (i + 10))


def func_t(i: BigLike) -> BigCount:
    """The tower-type schedule: t(1) = 2^250, t(i+1) = 2^(t(i)/e(i)).

    For indices too large to iterate (beyond the depth cap, including
    symbolic indices) the monotone lower bound t(cap) is returned with
    ``exact=False``.
    """
    idx = _as_big(i)
    iv = idx.as_int(64)
    exact = idx.exact
    if iv is not None and iv < 1:
        raise ParameterOutOfContract("t(i) needs i >= 1")
    if iv is None or iv > _DEPTH_CAP:
        iv = _DEPTH_CAP
        exact = False
    t = BigCount.of(1 << 250)
    for j in range(1, iv):
        t = BigCount.pow2(t.div_pow2(j + 10))
    if not exact:
        t = BigCount(t.leaf, t.base, t.shift, False)
    return t


def func_fstar(f: Callable[[int], int], i: int) -> BigCount:
    """f*(i) = t(f(i)) / e(i), for f with f(i) >= i."""
    fi = f(i)
    if fi < i:
        raise PreconditionFailed(f"f({i}) = {fi} < {i}")
    return func_t(fi).div_pow2(i + 10)


def func_w(i: int) -> BigCount:
    """w(1) = 1, w(i+1) = t(w(i)) / e(i).

    w(1) and w(2) are exact; from w(3) on the index of t is astronomical
    and a flagged lower bound is returned.  t of such an index is the
    saturated t(cap), so the remaining steps only change the divisor.
    """
    if i < 1:
        raise ParameterOutOfContract("w(i) needs i >= 1")
    w = BigCount.of(1)
    for j in range(1, i):
        if not w.exact:
            return func_t(w).div_pow2(i - 1 + 10)
        w = func_t(w).div_pow2(j + 10)
    return w


def func_twr(x: int) -> BigCount:
    """Tower of exponents of height x, with twr(1) = 2."""
    if x < 0:
        raise ParameterOutOfContract("twr(x) needs x >= 0")
    exact = True
    if x > _DEPTH_CAP:
        x = _DEPTH_CAP
        exact = False
    t = BigCount.of(1)
    for _ in range(x):
        t = BigCount.pow2(t)
    if not exact:
        t = BigCount(t.leaf, t.base, t.shift, False)
    return t


def func_wow(x: int) -> BigCount:
    """x-fold iterated tower of 1: wow(x) = twr(twr(...twr(1)...)).

    wow(0..3) are exact (1, 2, 4, 65536); beyond that the tower height
    itself is astronomical and a flagged lower bound is returned, the
    saturated twr(cap), which every further step maps to itself.
    """
    if x < 0:
        raise ParameterOutOfContract("wow(x) needs x >= 0")
    v = BigCount.of(1)
    for _ in range(x):
        h = v.as_int(64)
        if h is None or h > _DEPTH_CAP:
            v = func_twr(_DEPTH_CAP)
            return BigCount(v.leaf, v.base, v.shift, False)
        v = func_twr(h)
    return v


# ---------------------------------------------------------------------------
# Tight 6-cycle pasting


def six_cycle_paste(parts: Sequence[ThreeGraph]) -> ThreeGraph:
    """Edge-disjoint union of six 3-graphs along the tight 6-cycle.

    The tight 6-cycle on 0..5 has the edges {x, x+1, x+2} mod 6 and is
    3-partite with classes {0,3}, {1,4}, {2,5}.  ``parts[x]`` lives on classes (V^x, V^{x+1}, V^{x+2}) (indices mod
    6); all six V^j must have one common size n.  The result lives on
    the 3-partition (V^0 u V^3, V^1 u V^4, V^2 u V^5) with classes of
    size 2n; V^j occupies the low half when j < 3, the high half else.
    """
    if len(parts) != 6:
        raise DegenerateInput("need exactly six parts")
    n = parts[0].classes[0].size
    for x, part in enumerate(parts):
        for c in part.classes:
            if c.size != n:
                raise ClassSizeMismatch(
                    f"part {x} has class size {c.size}, expected {n}")
    classes = tuple(VertexClass(i, 2 * n) for i in range(3))
    triples: set[tuple[int, int, int]] = set()
    for x, part in enumerate(parts):
        positions = [x % 6, (x + 1) % 6, (x + 2) % 6]
        for triple in part.triples:
            out = [0, 0, 0]
            for slot, j in enumerate(positions):
                cls = j % 3
                offset = 0 if j < 3 else n
                out[cls] = triple[slot] + offset
            t = (out[0], out[1], out[2])
            if t in triples:
                raise DegenerateInput("pasting produced a duplicate triple")
            triples.add(t)
    return ThreeGraph(classes, frozenset(triples))


def part_frames(n: int) -> list[tuple[VertexClass, VertexClass, VertexClass]]:
    """Class triples (V^x, V^{x+1}, V^{x+2}) for the six pasting slots."""
    return [tuple(VertexClass((x + d) % 6, n) for d in range(3))
            for x in range(6)]
