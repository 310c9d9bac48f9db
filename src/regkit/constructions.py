"""Growth-schedule arithmetic, refinement-chain surrogates, tight 6-cycle
pasting, and toy-scale scenario builders.

The schedule functions (e, t, f*, w, twr, wow) outgrow machine integers
almost immediately, so values are kept as exact base-2 exponent towers:
a BigCount is either a plain integer or a node meaning 2^(base + shift)
with a BigCount base and an integer shift.  All schedule values are
powers of two, so the divisions the recurrences need stay exact.  Where
a value is genuinely uncomputable (t at an astronomically large index,
wow beyond height 3) a lower bound is returned with ``exact=False``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (ClassSizeMismatch, DegenerateInput,
                     ParameterOutOfContract, PreconditionFailed)
from .graphs import BipartiteGraph, ProductSide, ThreeGraph, VertexClass
from .partitions import (EdgePartition, VertexPartition, is_equitable,
                         refines)

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

    def cmp(self, other: "BigCount") -> int:
        """-1, 0 or 1.  Exact for the schedule's power-of-two domain.

        When both sides exceed the materialization budget the exponents
        are compared recursively; distinct huge operands are powers of
        two whose gap dwarfs any shift, so base order decides.
        """
        a = self.as_int()
        b = other.as_int()
        if a is not None and b is not None:
            return (a > b) - (a < b)
        if a is not None:
            return -1
        if b is not None:
            return 1
        c = self.base.cmp(other.base)
        if c != 0:
            return c
        return (self.shift > other.shift) - (self.shift < other.shift)

    def __ge__(self, other: "BigCount") -> bool:
        return self.cmp(other) >= 0

    def __le__(self, other: "BigCount") -> bool:
        return self.cmp(other) <= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigCount):
            return NotImplemented
        return self.cmp(other) == 0

    def __hash__(self) -> int:
        v = self.as_int()
        if v is not None:
            return hash(v)
        return hash((hash(self.base), self.shift))

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
    """e(i) = 2^(i+10)."""
    if i < 0:
        raise ParameterOutOfContract("e(i) needs i >= 0")
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
    and a flagged lower bound is returned.
    """
    if i < 1:
        raise ParameterOutOfContract("w(i) needs i >= 1")
    w = BigCount.of(1)
    for j in range(1, i):
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
    itself is astronomical and a flagged lower bound is returned.
    """
    if x < 0:
        raise ParameterOutOfContract("wow(x) needs x >= 0")
    v = BigCount.of(1)
    for step in range(x):
        h = v.as_int(64)
        if h is None or h > _DEPTH_CAP:
            h = _DEPTH_CAP
            v = func_twr(h)
            v = BigCount(v.leaf, v.base, v.shift, False)
        else:
            inexact = not v.exact
            v = func_twr(h)
            if inexact:
                v = BigCount(v.leaf, v.base, v.shift, False)
    return v


# ---------------------------------------------------------------------------
# Refinement chains


@dataclass(frozen=True)
class ChainPair:
    """Two matched sequences of successively refined equipartitions."""

    l_side: VertexClass
    r_side: VertexClass
    l_chain: tuple[VertexPartition, ...]
    r_chain: tuple[VertexPartition, ...]


@dataclass(frozen=True)
class EdgeChain:
    """Edge-partition chain with orders 2^1, ..., 2^s, each equitable."""

    carrier: ProductSide
    chain: tuple[EdgePartition, ...]


def validate_core_assumptions(c: ChainPair) -> list[str]:
    """Violations of the core-construction shape, as data.

    Checked per level i (1-based): |R_1| >= 2^200, every |R_i| a power of
    two, |R_{i+1}| >= 4 |R_i|, and |L_i| = 2^(|R_i| / 2^(i+10)); plus the
    chain-shape invariants (equitability, successive refinement).
    """
    out: list[str] = []
    if len(c.l_chain) != len(c.r_chain):
        out.append("chains have different lengths")
    for name, chain in (("L", c.l_chain), ("R", c.r_chain)):
        for i, p in enumerate(chain, start=1):
            if not is_equitable(p):
                out.append(f"{name}_{i} is not equitable")
        for i in range(1, len(chain)):
            if not refines(chain[i], chain[i - 1]):
                out.append(f"{name}_{i + 1} does not refine {name}_{i}")
    r_orders = [p.order for p in c.r_chain]
    l_orders = [p.order for p in c.l_chain]
    if r_orders and r_orders[0] < 1 << 200:
        out.append(f"|R_1| = {r_orders[0]} < 2^200")
    for i, r in enumerate(r_orders, start=1):
        if r & (r - 1):
            out.append(f"|R_{i}| = {r} is not a power of 2")
    for i in range(1, len(r_orders)):
        if r_orders[i] < 4 * r_orders[i - 1]:
            out.append(f"|R_{i + 1}| = {r_orders[i]} < 4 |R_{i}|")
    for i, (ll, rr) in enumerate(zip(l_orders, r_orders), start=1):
        denom = 1 << (i + 10)
        if rr % denom:
            out.append(f"|R_{i}| not divisible by 2^{i + 10}")
            continue
        expo = rr // denom
        if expo > 62 or ll != 1 << expo:
            out.append(f"|L_{i}| = {ll} != 2^(|R_{i}|/2^{i + 10})")
    return out


def random_refinement_chain(n: int, orders: Sequence[int], seed: int
                            ) -> list[VertexPartition]:
    """A uniformly random chain of successively refined equipartitions.

    Each order must divide n, orders must be strictly increasing, and
    each must divide the next (so equitable refinement is possible).
    """
    orders = list(orders)
    if not orders:
        raise DegenerateInput("empty order list")
    for k in orders:
        if k < 1 or n % k:
            raise ParameterOutOfContract(f"order {k} does not divide {n}")
    for a, b in zip(orders, orders[1:]):
        if b <= a or b % a:
            raise ParameterOutOfContract(
                f"orders must strictly increase and divide: {a} -> {b}")
    rng = random.Random(seed)
    ground = VertexClass(0, n)
    verts = list(range(n))
    rng.shuffle(verts)
    chain = []
    prev_blocks = [verts]
    prev_order = 1
    for k in orders:
        split = k // prev_order
        blocks = []
        for blk in prev_blocks:
            blk = list(blk)
            rng.shuffle(blk)
            size = len(blk) // split
            for j in range(split):
                blocks.append(blk[j * size:(j + 1) * size])
        chain.append(VertexPartition(
            ground, tuple(frozenset(b) for b in blocks)))
        prev_blocks = blocks
        prev_order = k
    return chain


def random_edge_equipartition_chain(carrier: ProductSide, s: int, seed: int
                                    ) -> EdgeChain:
    """Random equitable edge-partition chain with |G_j| = 2^j.

    Every block of level j carries exactly |carrier| / 2^j edges.  This
    is only a shape surrogate: no regularity property is claimed.
    """
    if s < 1:
        raise ParameterOutOfContract("s must be >= 1")
    size = carrier.size
    if size % (1 << s):
        raise ParameterOutOfContract(
            f"carrier size {size} not divisible by 2^{s}")
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(carrier.first.size)
             for b in range(carrier.second.size)]
    rng.shuffle(pairs)
    levels = []
    blocks = [pairs]
    for _ in range(s):
        nxt = []
        for blk in blocks:
            blk = list(blk)
            rng.shuffle(blk)
            half = len(blk) // 2
            nxt.append(blk[:half])
            nxt.append(blk[half:])
        blocks = nxt
        levels.append(EdgePartition(carrier, tuple(
            BipartiteGraph(carrier.first, carrier.second, blk)
            for blk in blocks)))
    return EdgeChain(carrier, tuple(levels))


def edge_partition_refines(fine: EdgePartition, coarse: EdgePartition
                           ) -> bool:
    """Every block of ``fine`` sits inside one block of ``coarse``."""
    for g in fine.blocks:
        if not any(all(h.has_edge(a, b) for a, b in g.sorted_edges())
                   for h in coarse.blocks):
            return False
    return True


# ---------------------------------------------------------------------------
# Tight 6-cycle pasting


@dataclass(frozen=True)
class SixCycleTemplate:
    """The tight 6-cycle on 0..5: edges {x, x+1, x+2} mod 6, 3-partite
    with classes ({0,3}, {1,4}, {2,5})."""

    edges: tuple[frozenset[int], ...]
    classes: tuple[frozenset[int], frozenset[int], frozenset[int]]


def tight_six_cycle() -> SixCycleTemplate:
    edges = tuple(frozenset({x % 6, (x + 1) % 6, (x + 2) % 6})
                  for x in range(6))
    classes = (frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5}))
    return SixCycleTemplate(edges, classes)


def six_cycle_paste(parts: Sequence[ThreeGraph]) -> ThreeGraph:
    """Edge-disjoint union of six 3-graphs along the tight 6-cycle.

    ``parts[x]`` lives on classes (V^x, V^{x+1}, V^{x+2}) (indices mod
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


# ---------------------------------------------------------------------------
# Scenario builders (toy scale)


@dataclass(frozen=True)
class KeyArgumentScenario:
    """A 3-graph pulled back from a bipartite graph on (V1 x V2, V3),
    together with the surrogate chains the argument walks over."""

    h: ThreeGraph
    g_prime: BipartiteGraph
    edge_chain: EdgeChain
    chain_pair: ChainPair
    product: ProductSide


def build_key_argument_scenario(s: int, n: int, seed: int
                                ) -> KeyArgumentScenario:
    """Toy instance of the key-argument wiring.

    Builds a random equitable edge chain between V1 x V2 and V3, takes
    the first block of the deepest level as G', and pulls the hyperedges
    of H back from G'.  The identity G' = (axis-3 auxiliary graph of H)
    then holds by construction and is re-verified here.
    """
    if (n * n * n) % (1 << s):
        raise ParameterOutOfContract("n^3 must be divisible by 2^s")
    v1, v2, v3 = (VertexClass(i, n) for i in range(3))
    product = ProductSide(v1, v2)
    carrier = ProductSide(product.as_vertex_class(), v3)
    edge_chain = random_edge_equipartition_chain(carrier, s, seed)
    g_prime = edge_chain.chain[-1].blocks[0]
    triples = frozenset(
        (*product.pair(p), z) for p, z in g_prime.sorted_edges())
    h = ThreeGraph((v1, v2, v3), triples)

    from .hyperreg import auxiliary_graph
    aux = auxiliary_graph(h, 3)
    if aux.graph.rows != g_prime.rows:
        raise DegenerateInput("pullback identity failed (internal error)")

    orders = [1 << j for j in range(1, s + 1)]
    if any(n % k for k in orders):
        orders = [k for k in orders if n % k == 0] or [1]
    l_chain = tuple(random_refinement_chain(n, orders, seed + 1))
    r_chain = tuple(random_refinement_chain(n, orders, seed + 2))
    pair = ChainPair(v1, v2, l_chain, r_chain)
    return KeyArgumentScenario(h, g_prime, edge_chain, pair, product)


@dataclass(frozen=True)
class TheoremMainScenario:
    h: ThreeGraph
    v0: VertexPartition
    parts: tuple[ThreeGraph, ...]
    part_density: Fraction


def build_theorem_main_scenario(s: int, n: int, seed: int,
                                blocks_per_class: int = 1
                                ) -> TheoremMainScenario:
    """Six surrogate parts of density 2^-(s-1) pasted along the 6-cycle.

    The pasted 3-graph has density (6/8) * 2^-(s-1) >= 2^-s.  V0 is an
    equitable partition splitting each of the six original classes into
    ``blocks_per_class`` blocks (so its order is 6 * blocks_per_class).
    """
    if s < 1:
        raise ParameterOutOfContract("s must be >= 1")
    denom = 1 << (s - 1)
    if (n * n * n) % denom:
        raise ParameterOutOfContract(
            f"n^3 must be divisible by 2^{s - 1}")
    if n % blocks_per_class:
        raise ParameterOutOfContract("blocks_per_class must divide n")
    rng = random.Random(seed)
    count = n * n * n // denom
    parts = []
    for frame in part_frames(n):
        allt = [(a, b, c) for a in range(n) for b in range(n)
                for c in range(n)]
        chosen = rng.sample(allt, count)
        parts.append(ThreeGraph(frame, frozenset(chosen)))
    h = six_cycle_paste(parts)

    # V0: each V^j split equitably; V^j sits at combined offset derived
    # from the pasting layout (class j % 3, high half iff j >= 3).
    ground = VertexClass(0, 6 * n)
    blocks = []
    for j in range(6):
        cls = j % 3
        base = cls * 2 * n + (0 if j < 3 else n)
        size = n // blocks_per_class
        for b in range(blocks_per_class):
            blocks.append(frozenset(
                range(base + b * size, base + (b + 1) * size)))
    v0 = VertexPartition(ground, tuple(blocks))
    return TheoremMainScenario(h, v0, tuple(parts), Fraction(1, denom))
