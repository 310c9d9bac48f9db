import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regkit import fileio, hyperreg, suites
from regkit.errors import (BudgetExceeded, ClassSizeMismatch, FrameMismatch,
                           ParameterOutOfContract)
from regkit.graphs import (BipartiteGraph, ThreeGraph, Triad, VertexClass,
                           density, iter_bits, subset_mask)
from regkit.hyperreg import (IdentityCheck, PartitionTriad, _frame_of,
                             triad_density)
from regkit.partitions import (ThreePartiteFrame, TwoPartition,
                               VertexPartition, complete_two_partition,
                               sub_partitions)
from regkit.regcheck import CERTIFIED, IRREGULAR, UNKNOWN, CheckParams

EXH = CheckParams(mode="exhaustive")


def rg(rng, left, right, p):
    if p >= 1:
        return BipartiteGraph.complete(left, right)
    return BipartiteGraph(left, right,
                          [(a, b) for a in range(left.size)
                           for b in range(right.size) if rng.random() < p])


def random_h(rng, sizes, p):
    cls = tuple(VertexClass(i, s) for i, s in enumerate(sizes))
    return ThreeGraph(cls, frozenset(
        (a, b, c) for a in range(sizes[0]) for b in range(sizes[1])
        for c in range(sizes[2]) if rng.random() < p))


def test_aux_graph_edge_counts_all_axes():
    rng = random.Random(31)
    h = random_h(rng, (3, 4, 2), .5)
    for axis in (1, 2, 3):
        aux = hyperreg.auxiliary_graph(h, axis)
        assert aux.edge_count == h.edge_count


def test_aux_graph_axis3_incidence():
    rng = random.Random(32)
    h = random_h(rng, (3, 3, 3), .5)
    aux = hyperreg.auxiliary_graph(h, 3)
    assert aux is h.graph
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert (aux.rows[a * 3 + b] >> c & 1 == 1) \
                    == ((a, b, c) in h.triples)


# The auxiliary-graph builder as it was when a 3-graph stored its triple
# set, verbatim but for its name, for returning the graph alone (it
# returned it wrapped with its arguments and product side) and for the
# product index v_j * |V_k| + v_k written out (it called the deleted
# ``ProductSide``), as the oracle for the mask-built graphs of every axis.

_AXIS_PAIRS = {1: (1, 2), 2: (0, 2), 3: (0, 1)}


def _ref_auxiliary_graph(h: ThreeGraph, axis: int) -> BipartiteGraph:
    """Build the axis-``i`` auxiliary graph of a 3-graph."""
    if axis not in (1, 2, 3):
        raise ParameterOutOfContract("axis must be 1, 2 or 3")
    j, k = _AXIS_PAIRS[axis]
    i = axis - 1
    nk = h.classes[k].size
    edges = []
    for triple in h.triples:
        edges.append((triple[j] * nk + triple[k], triple[i]))
    graph = BipartiteGraph(VertexClass(-1, h.classes[j].size * nk),
                           h.classes[i], edges)
    return graph


def test_aux_graph_matches_the_per_triple_builder():
    """Every axis, on class sizes 1-6 and empty, complete and random
    3-graphs, gives the graph the per-triple builder gave, byte for byte
    as a .bg file; axis 3 is the 3-graph's own graph."""
    rng = random.Random(37)
    for _ in range(60):
        sizes = tuple(rng.randint(1, 6) for _ in range(3))
        h = random_h(rng, sizes, rng.choice([0, .1, .5, 1]))
        for axis in (1, 2, 3):
            got = hyperreg.auxiliary_graph(h, axis)
            want = _ref_auxiliary_graph(h, axis)
            assert got == want
            assert got.cols == want.cols
            assert fileio.dumps_graph(got) == fileio.dumps_graph(want)
        assert hyperreg.auxiliary_graph(h, 3) is h.graph
    for axis in (0, 4):
        with pytest.raises(ParameterOutOfContract):
            hyperreg.auxiliary_graph(h, axis)


# ``hyperreg.auxiliary_graph`` as it was when it rebuilt the 3-graph from
# its re-sorted, reordered triples, kept verbatim but for its name as the
# oracle for the row-built graphs of axes 1 and 2.

_AXIS_ORDER = {1: (1, 2, 0), 2: (0, 2, 1)}


def _ref_triples_auxiliary_graph(h: ThreeGraph, axis: int) -> BipartiteGraph:
    """The axis-``i`` auxiliary graph, pairs (v_j, v_k) against class i: the
    axis-3 graph of ``h`` with its classes reordered to (j, k, i)."""
    if axis not in (1, 2, 3):
        raise ParameterOutOfContract("axis must be 1, 2 or 3")
    if axis == 3:
        return h.graph
    order = _AXIS_ORDER[axis]
    return ThreeGraph(tuple(h.classes[x] for x in order),
                      (tuple(v[x] for x in order)
                       for v in h.sorted_triples())).graph


@given(st.tuples(*[st.integers(1, 10)] * 3), st.integers(0, 2 ** 32),
       st.integers(1, 2))
def test_aux_graph_matches_the_resorted_triples_oracle(sizes, seed, axis):
    """Rows, columns and classes of axes 1 and 2 equal those of the graph
    built from the re-sorted triples, on classes up to 10 wide, so rows of
    both axes cross 8 bits."""
    rng = random.Random(seed)
    h = random_h(rng, sizes, rng.choice([0, .05, .5, 1]))
    got = hyperreg.auxiliary_graph(h, axis)
    want = _ref_triples_auxiliary_graph(h, axis)
    assert (got.left, got.right, got.rows, got.cols, got.edge_count) == \
        (want.left, want.right, want.rows, want.cols, want.edge_count)


@pytest.mark.parametrize("fill", ["empty", "complete"])
def test_every_triad_path_rejects_an_embedding_off_the_3graph(fill):
    """An embedding past a class, or negative, is a FrameMismatch on every
    path that reads the 3-graph through a triad, whether or not a witness
    is found; none of them reads an alias or another row instead."""
    cls = tuple(VertexClass(i, 2) for i in range(3))
    h = ThreeGraph(cls, ()) if fill == "empty" else ThreeGraph.complete(cls)
    paths = {
        "triad_density": hyperreg.triad_density,
        "octahedron_sum_naive": hyperreg.octahedron_sum_naive,
        "quasirandom": lambda h, t: hyperreg.check_quasirandom_triad(
            h, t, Fraction(1, 100)),
        "hypothesis": lambda h, t: hyperreg.check_subtriad_hypothesis(
            h, t, Fraction(1, 2)),
        "hypothesis-randomized": lambda h, t:
            hyperreg.check_subtriad_hypothesis(
                h, t, Fraction(1, 2), CheckParams(mode="randomized",
                                                  random_trials=1)),
        "fr": lambda h, t: hyperreg.check_fr_triad(h, t, Fraction(1, 2)),
    }
    for embedding, vertex in [(((0, 1), (0, 1), (0, 2)), 2),
                              (((0, 1), (-1, 0), (0, 1)), -1),
                              (((2, 1), (0, 1), (0, 1)), 2),
                              (((0, 1), (0, 1), (-1, 1)), -1)]:
        t = Triad(BipartiteGraph.complete(cls[0], cls[1]),
                  BipartiteGraph.complete(cls[0], cls[2]),
                  BipartiteGraph.complete(cls[1], cls[2]), embedding=embedding)
        for name, path in paths.items():
            with pytest.raises(FrameMismatch) as err:
                path(h, t)
            assert str(err.value) == (f"embedded vertex {vertex} outside "
                                      "class of size 2"), name


def test_triad_density_product_form():
    """d(E, AxC, BxC) equals the aux-graph density, t(P) = |E| |C|."""
    rng = random.Random(33)
    for _ in range(20):
        na, nb, nc = (rng.randint(2, 5) for _ in range(3))
        h = random_h(rng, (na, nb, nc), .5)
        a, b = h.classes[0], h.classes[1]
        e_edges = [(x, y) for x in range(na) for y in range(nb)
                   if rng.random() < .6] or [(0, 0)]
        c_sub = sorted(rng.sample(range(nc), rng.randint(1, nc)))
        c_cls = VertexClass(2, len(c_sub))
        triad = Triad(BipartiteGraph(a, b, e_edges),
                      BipartiteGraph.complete(a, c_cls),
                      BipartiteGraph.complete(b, c_cls),
                      embedding=(tuple(range(na)), tuple(range(nb)),
                                 tuple(c_sub)))
        stats = hyperreg.triad_density(h, triad)
        assert stats.triangle_count == len(e_edges) * len(c_sub)
        hits = sum(1 for (x, y) in e_edges for c in c_sub
                   if (x, y, c) in h.triples)
        assert stats.density == Fraction(hits, len(e_edges) * len(c_sub))


# ``hyperreg._triangle_masks`` as it was when it tested one bit of the
# 3-graph row per triangle for every embedding, kept verbatim (renamed,
# its signature wrapped, ``_check_embedding`` called through the module)
# as the oracle for the shift-and-AND form of a run of C vertices.
def _ref_triangle_masks(h: ThreeGraph, t: Triad
                        ) -> tuple[list[int], list[int]]:
    """The triangles of ``t`` and its hyperedge triangles, per AB pair.

    Entry a * |B| + b of the first list is the bitmask of the c with
    (a, b, c) a triangle, and of the second the bitmask of those whose
    embedded triple is a hyperedge of ``h``; both are 0 off the AB edges.
    FrameMismatch unless the embedding lies inside the classes of ``h``.
    """
    hyperreg._check_embedding(h, t)
    ea, eb, ec = t.embedding
    h_rows, n2 = h.graph.rows, h.classes[1].size
    ac_rows, bc_rows = t.ac.rows, t.bc.rows
    nb = t.ab.right.size
    tm = [0] * (t.ab.left.size * nb)
    hm = [0] * len(tm)
    for a, row in enumerate(t.ab.rows):
        ac, base = ac_rows[a], ea[a] * n2
        for b in iter_bits(row):
            i = a * nb + b
            tm[i] = rest = ac & bc_rows[b]
            h_row = h_rows[base + eb[b]]
            hmask = 0
            while rest:
                low = rest & -rest
                if h_row >> ec[low.bit_length() - 1] & 1:
                    hmask |= low
                rest ^= low
            hm[i] = hmask
    return tm, hm


def test_triangle_masks_match_the_bit_loop():
    """Identity, shifted-run and non-contiguous C embeddings (and A and B
    embeddings off the identity) give the masks of the per-bit loop."""
    rng = random.Random(34)
    kinds = set()
    for _ in range(300):
        sizes = [rng.randint(1, 9) for _ in range(3)]
        h = random_h(rng, sizes, rng.choice([0, .3, .7, 1]))
        na, nb, nc = (rng.randint(1, s) for s in sizes)
        ea = tuple(rng.sample(range(sizes[0]), na))
        eb = tuple(rng.sample(range(sizes[1]), nb))
        kind = rng.choice(["identity", "run", "any"])
        if kind == "identity":
            nc = sizes[2]
            ec = tuple(range(nc))
        elif kind == "run":
            c0 = rng.randint(0, sizes[2] - nc)
            ec = tuple(range(c0, c0 + nc))
        else:
            ec = tuple(rng.sample(range(sizes[2]), nc))
        kinds.add((kind, ec == tuple(range(ec[0], ec[0] + nc))))
        cls = VertexClass(0, na), VertexClass(1, nb), VertexClass(2, nc)
        p = rng.choice([.2, .6, 1])
        t = Triad(rg(rng, cls[0], cls[1], p), rg(rng, cls[0], cls[2], p),
                  rg(rng, cls[1], cls[2], p), embedding=(ea, eb, ec))
        assert hyperreg._triangle_masks(h, t) == _ref_triangle_masks(h, t)
    assert {("identity", True), ("run", True), ("any", False)} <= kinds


def _octahedron_oracle(h, t):
    """Definition-literal 8-fold product sum, written independently."""
    n = t.sizes[0]
    ea, eb, ec = t.embedding
    ab, ac, bc = t.ab.edges, t.ac.edges, t.bc.edges
    tau = 0
    e = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x, y) in ab and (x, z) in ac and (y, z) in bc:
                    tau += 1
                    if (ea[x], eb[y], ec[z]) in h.triples:
                        e += 1
    if tau == 0:
        return Fraction(0)
    d = Fraction(e, tau)
    total = Fraction(0)
    for xs in itertools.product(range(n), repeat=2):
        for ys in itertools.product(range(n), repeat=2):
            for zs in itertools.product(range(n), repeat=2):
                prod = Fraction(1)
                for x in xs:
                    for y in ys:
                        for z in zs:
                            if (x, y) in ab and (x, z) in ac and \
                                    (y, z) in bc:
                                ind = 1 if (ea[x], eb[y], ec[z]) in h.triples \
                                    else 0
                                prod *= Fraction(ind) - d
                            else:
                                prod = Fraction(0)
                if prod:
                    total += prod
    return total


def test_octahedron_naive_matches_fast_and_oracle():
    # At n = 1 every term of the symmetry fold is diagonal (x0 == x1,
    # y0 == y1); the complete 3-graph holds every triangle (hm == tm) and
    # the empty one none.
    rng = random.Random(34)
    for n in (1, 2, 3, 4, 5):
        cls = tuple(VertexClass(i, n) for i in range(3))
        t = Triad(rg(rng, cls[0], cls[1], .7), rg(rng, cls[0], cls[2], .7),
                  rg(rng, cls[1], cls[2], .7))
        for h in (random_h(rng, (n, n, n), .5), ThreeGraph.complete(cls),
                  ThreeGraph(cls, frozenset())):
            naive = hyperreg.octahedron_sum_naive(h, t)
            fast = hyperreg.octahedron_sum_fast(h, t)
            assert naive == fast
            assert naive == _octahedron_oracle(h, t)
            assert naive >= 0


def test_octahedron_boundaries():
    cls = tuple(VertexClass(i, 3) for i in range(3))
    h = ThreeGraph.complete(cls)
    t = Triad.complete(*cls)
    assert hyperreg.octahedron_sum_naive(h, t) == 0
    assert hyperreg.octahedron_sum_fast(h, t) == 0
    h0 = ThreeGraph(cls, frozenset())
    assert hyperreg.octahedron_sum_fast(h0, t) == 0


# ``hyperreg.octahedron_sum_naive`` as it was when it multiplied out every
# one of the n^6 terms, zero or not, kept verbatim (renamed, ``_scaled_f``
# called through the module) as the oracle for the loop that skips the
# terms with a factor off the triangles.  It stays beside that loop's own
# successor because it reaches n = 6, which ``_octahedron_oracle`` does
# not.
def _ref_octahedron_sum_naive(h: ThreeGraph, t: Triad) -> Fraction:
    """The full six-index octahedron sum, computed literally in O(n^6).

    Serves as the independent oracle for the fast version; do not reuse
    its loop structure there.
    """
    n, tau, ecount, hm, tm = hyperreg._scaled_f(h, t)
    if tau == 0:
        return Fraction(0)
    hi = tau - ecount
    lo = -ecount
    vals = [[0] * n for _ in range(n * n)]
    for xy in range(n * n):
        for z in range(n):
            if tm[xy] >> z & 1:
                vals[xy][z] = hi if hm[xy] >> z & 1 else lo
    total = 0
    for x0 in range(n):
        for x1 in range(n):
            for y0 in range(n):
                for y1 in range(n):
                    v00 = vals[x0 * n + y0]
                    v01 = vals[x0 * n + y1]
                    v10 = vals[x1 * n + y0]
                    v11 = vals[x1 * n + y1]
                    for z0 in range(n):
                        for z1 in range(n):
                            total += (v00[z0] * v00[z1] * v01[z0] * v01[z1]
                                      * v10[z0] * v10[z1] * v11[z0] * v11[z1])
    return Fraction(total, tau ** 8)


# ``hyperreg.octahedron_sum_naive`` as it was when it multiplied out the
# eight factors of each kept term, kept verbatim (renamed, ``_scaled_f``
# called through the module) as the oracle for the loop that forms each
# z's four-corner product once.
def _ref2_octahedron_sum_naive(h: ThreeGraph, t: Triad) -> Fraction:
    """The full six-index octahedron sum, term by term, O(n^6) at worst.

    A term is zero unless all eight of its corners (x_i, y_j, z_k) are
    triangles, so only terms with a zero factor are skipped: for each x0,
    y0 and y1 the loop takes the z that both x0 pairs share in ``tm``,
    skips y1 when there are none, and then lets z0 and z1 run only over
    those that both x1 pairs share too.  Every term it keeps is the
    product of its eight ``vals`` entries, and every ordered pair stays on
    each axis: no symmetry fold, no sum over z before the product and
    nothing from ``kernels``.  So it stays an oracle independent of the
    fast version; do not reuse its loop structure there.
    """
    n, tau, ecount, hm, tm = hyperreg._scaled_f(h, t)
    if tau == 0:
        return Fraction(0)
    hi = tau - ecount
    lo = -ecount
    vals = [[0] * n for _ in range(n * n)]
    for xy in range(n * n):
        for z in range(n):
            if tm[xy] >> z & 1:
                vals[xy][z] = hi if hm[xy] >> z & 1 else lo
    total = 0
    for x0 in range(n):
        for y0 in range(n):
            v00, t00 = vals[x0 * n + y0], tm[x0 * n + y0]
            for y1 in range(n):
                shared = t00 & tm[x0 * n + y1]
                if not shared:
                    continue
                v01 = vals[x0 * n + y1]
                for x1 in range(n):
                    live = shared & tm[x1 * n + y0] & tm[x1 * n + y1]
                    if not live:
                        continue
                    v10 = vals[x1 * n + y0]
                    v11 = vals[x1 * n + y1]
                    zs = [z for z in range(n) if live >> z & 1]
                    for z0 in zs:
                        f0 = v00[z0] * v01[z0] * v10[z0] * v11[z0]
                        for z1 in zs:
                            total += (f0 * v00[z1] * v01[z1]
                                      * v10[z1] * v11[z1])
    return Fraction(total, tau ** 8)


def _octahedron_case(n: int, dens: tuple[float, float, float], fill: str,
                     c_kind: str, extra: int, seed: int
                     ) -> tuple[ThreeGraph, Triad]:
    """A triad with three sides of n vertices and the given densities, in
    a 3-graph that is empty, complete or random.  Its C side is the
    3-graph's class (``c_kind`` "identity") or sits in one ``extra``
    vertices larger, as a run starting past 0 or as a set that is not a
    run."""
    rng = random.Random(seed)
    nc = n if c_kind == "identity" else n + extra
    cls = (VertexClass(0, n), VertexClass(1, n), VertexClass(2, nc))
    if c_kind == "identity":
        ec = tuple(range(n))
    elif c_kind == "run":
        c0 = rng.randint(1, extra)
        ec = tuple(range(c0, c0 + n))
    else:
        ec = tuple(rng.sample(range(nc), n))
        if ec == tuple(range(ec[0], ec[0] + n)):
            ec = ec[::-1]
    if fill == "empty":
        h = ThreeGraph(cls, frozenset())
    elif fill == "complete":
        h = ThreeGraph.complete(cls)
    else:
        h = random_h(rng, (n, n, nc), .5)
    side = tuple(VertexClass(i, n) for i in range(3))
    t = Triad(rg(rng, side[0], side[1], dens[0]),
              rg(rng, side[0], side[2], dens[1]),
              rg(rng, side[1], side[2], dens[2]),
              embedding=(tuple(range(n)), tuple(range(n)), ec))
    return h, t


_DENSITY = st.sampled_from([0.0, 0.5, 0.75, 0.9, 1.0]) | st.floats(0, 1)


@example(n=3, dens=(0.0, 1.0, 1.0), fill="complete", c_kind="identity",
         extra=1, seed=0)
@example(n=6, dens=(1.0, 1.0, 1.0), fill="random", c_kind="identity",
         extra=1, seed=0)
@example(n=1, dens=(1.0, 1.0, 1.0), fill="complete", c_kind="identity",
         extra=1, seed=0)
@example(n=4, dens=(0.8, 0.8, 0.8), fill="random", c_kind="run",
         extra=3, seed=1)
@example(n=4, dens=(0.8, 0.8, 0.8), fill="random", c_kind="any",
         extra=3, seed=1)
@settings(max_examples=300)
@given(n=st.integers(1, 6), dens=st.tuples(_DENSITY, _DENSITY, _DENSITY),
       fill=st.sampled_from(["empty", "complete", "random"]),
       c_kind=st.sampled_from(["identity", "run", "any"]),
       extra=st.integers(1, 3), seed=st.integers(0, 1 << 16))
def test_octahedron_naive_matches_the_term_by_term_sum(n, dens, fill, c_kind,
                                                       extra, seed):
    """Skipping the terms with a factor off the triangles, and forming
    each z's four-corner product once, leaves the sum of every term and
    the sum of the loop before it: side densities from 0 (tau = 0) to 1,
    an empty, complete or random 3-graph, and a C side embedded as the
    identity, a run past 0 or a set that is not a run."""
    assume(n > 1 or c_kind != "any")  # one vertex is always a run
    h, t = _octahedron_case(n, dens, fill, c_kind, extra, seed)
    ec = t.embedding[2]
    assert (c_kind == "run") == (ec[0] > 0 and
                                 ec == tuple(range(ec[0], ec[0] + n)))
    assert (c_kind == "any") == (ec != tuple(range(ec[0], ec[0] + n)))
    naive = hyperreg.octahedron_sum_naive(h, t)
    assert naive == _ref_octahedron_sum_naive(h, t)
    assert naive == _ref2_octahedron_sum_naive(h, t)


def test_octahedron_naive_rejects_what_the_literal_sum_rejects():
    """Unequal sides are a ClassSizeMismatch and an embedding off the
    3-graph a FrameMismatch, as in the term-by-term sum."""
    cls = tuple(VertexClass(i, 3) for i in range(3))
    h = ThreeGraph.complete(cls)
    small = VertexClass(2, 2)
    unequal = Triad(BipartiteGraph.complete(cls[0], cls[1]),
                    BipartiteGraph.complete(cls[0], small),
                    BipartiteGraph.complete(cls[1], small))
    off = Triad(BipartiteGraph.complete(cls[0], cls[1]),
                BipartiteGraph.complete(cls[0], cls[2]),
                BipartiteGraph.complete(cls[1], cls[2]),
                embedding=((0, 1, 2), (0, 1, 2), (1, 2, 3)))
    for t, error in ((unequal, ClassSizeMismatch), (off, FrameMismatch)):
        for oracle in (hyperreg.octahedron_sum_naive,
                       _ref_octahedron_sum_naive,
                       _ref2_octahedron_sum_naive):
            with pytest.raises(error):
                oracle(h, t)


def _subtriad_oracle_deviation(h, t, eps):
    """Enumerate all subtriads explicitly; None if eps-regular."""
    full = hyperreg.triad_density(h, t)
    for ab_sub in _powerset(sorted(t.ab.edges)):
        for ac_sub in _powerset(sorted(t.ac.edges)):
            for bc_sub in _powerset(sorted(t.bc.edges)):
                sub = Triad(
                    BipartiteGraph(t.ab.left, t.ab.right, ab_sub),
                    BipartiteGraph(t.ac.left, t.ac.right, ac_sub),
                    BipartiteGraph(t.bc.left, t.bc.right, bc_sub),
                    embedding=t.embedding)
                stats = hyperreg.triad_density(h, sub)
                if Fraction(stats.triangle_count) \
                        < eps * full.triangle_count:
                    continue
                if abs(stats.density - full.density) > eps:
                    return (ab_sub, ac_sub, bc_sub)
    return None


def _powerset(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def test_fr_triad_matches_brute_force():
    rng = random.Random(35)
    for _ in range(6):
        n = 2
        cls = tuple(VertexClass(i, n) for i in range(3))
        h = random_h(rng, (n, n, n), .5)
        t = Triad(rg(rng, cls[0], cls[1], .6), rg(rng, cls[0], cls[2], .6),
                  rg(rng, cls[1], cls[2], .6))
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            verdict = hyperreg.check_fr_triad(h, t, eps, EXH)
            oracle = _subtriad_oracle_deviation(h, t, eps)
            assert (verdict.status == CERTIFIED) == (oracle is None)
            if verdict.status == IRREGULAR:
                assert hyperreg.verify_subtriad_witness(
                    h, t, verdict.witness[:3], hyperreg.MODE_DEVIATION, eps)


def test_exhaustive_budget_enforced():
    cls = tuple(VertexClass(i, 3) for i in range(3))
    h = ThreeGraph.complete(cls)
    t = Triad.complete(*cls)  # 27 edges > budget of 20
    with pytest.raises(BudgetExceeded):
        hyperreg.check_fr_triad(h, t, Fraction(1, 2), EXH)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_under_python_O(probe: str) -> str:
    """The output of ``probe`` run by ``python -O``, which strips asserts."""
    run = subprocess.run([sys.executable, "-O", "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return run.stdout


# A kernel that names the full 2x2x2 triad (all four edges of each pair)
# as its witness: the full triad never deviates from itself.
_NONVIOLATING_KERNEL_PROBE = """
from fractions import Fraction
from regkit import hyperreg, kernels
from regkit.graphs import ThreeGraph, Triad, VertexClass
from regkit.regcheck import CheckParams
kernels.scan_subtriads = lambda *args: ((0b1111, 0b1111, 0b1111, 0, 0), 1)
cls = tuple(VertexClass(i, 2) for i in range(3))
try:
    hyperreg.check_fr_triad(ThreeGraph.complete(cls), Triad.complete(*cls),
                            Fraction(1, 2), CheckParams(mode="exhaustive"))
except RuntimeError as exc:
    print(exc)
"""


def test_kernel_witness_is_reverified_also_under_python_O(monkeypatch,
                                                          capsys):
    """An exhaustive witness that does not re-verify raises, in-process
    and in an interpreter that strips asserts."""
    # The probe replaces the kernel; monkeypatch puts it back afterwards.
    monkeypatch.setattr("regkit.kernels.scan_subtriads",
                        hyperreg.kernels.scan_subtriads)
    exec(_NONVIOLATING_KERNEL_PROBE, {})
    message = ("scan_subtriads returned (15, 15, 15), which does not "
               "re-verify\n")
    assert capsys.readouterr().out == message
    assert run_under_python_O(_NONVIOLATING_KERNEL_PROBE) == message


def test_quasirandom_flags_unequal_densities():
    rng = random.Random(36)
    cls = tuple(VertexClass(i, 3) for i in range(3))
    h = random_h(rng, (3, 3, 3), .5)
    t = Triad(BipartiteGraph.complete(cls[0], cls[1]),
              rg(rng, cls[0], cls[2], .5), rg(rng, cls[1], cls[2], .5))
    rep = hyperreg.check_quasirandom_triad(h, t, Fraction(1, 2))
    assert rep.octahedron_sum >= 0
    if not (rep.d0 == rep.d1 == rep.d2):
        assert rep.unequal_densities


def test_schacht_predicate_contract():
    cls = tuple(VertexClass(i, 2) for i in range(3))
    h = ThreeGraph.complete(cls)
    t = Triad.complete(*cls)
    with pytest.raises(ParameterOutOfContract):
        hyperreg.schacht_predicate(t, h, Fraction(1, 2), 0)
    assert hyperreg.schacht_predicate(t, h, Fraction(1, 2), 2, EXH)


def test_counting_band_complete_sides_exact():
    rng = random.Random(37)
    a, b, c = (VertexClass(i, 4) for i in range(3))
    ab = rg(rng, a, b, .5)
    t = Triad(ab, BipartiteGraph.complete(a, c),
              BipartiteGraph.complete(b, c))
    band = hyperreg.triangle_count_bound(t, Fraction(0))
    assert band.in_band
    assert band.triangle_count == density(ab) * 4 * 4 * 4


def _spec_counting_band(t, eps, count):
    """The band as stated: (d_AB * d_AC * d_BC -+ 7 * eps) * |A||B||C| in
    Fractions, and whether ``count`` lies in it."""
    volume = t.sizes[0] * t.sizes[1] * t.sizes[2]
    prod = density(t.ab) * density(t.ac) * density(t.bc)
    lower = (prod - 7 * eps) * volume
    upper = (prod + 7 * eps) * volume
    return lower, upper, lower <= count <= upper


def _assert_band_is_spec(t, eps):
    band = hyperreg.triangle_count_bound(t, eps)
    lower, upper, in_band = _spec_counting_band(t, eps,
                                                band.triangle_count)
    assert type(band.lower) is Fraction and type(band.upper) is Fraction
    assert (band.lower, band.upper, band.in_band) == (lower, upper, in_band)
    return band


def test_counting_band_matches_fraction_formula():
    """Sides 1-12 and the bench's 32-64 at eps 0, 1/10 and 10^-9, and at
    the eps that puts the count on the band's edge, where ``in_band``
    turns, and just inside and outside it.  When the count is the band's
    middle the edge is eps = 0, and no eps lies below it."""
    rng = random.Random(38)
    shapes = [tuple(rng.randint(1, 12) for _ in range(3)) for _ in range(40)]
    shapes += [(n, n, n) for n in (32, 40, 48, 56, 64)]
    turned = set()
    for sizes in shapes:
        a, b, c = (VertexClass(i, n) for i, n in enumerate(sizes))
        p = rng.choice([.1, .3, .5, .7, .9, 1])
        t = Triad(rg(rng, a, b, p), rg(rng, a, c, p), rg(rng, b, c, p))
        band = None
        for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 10 ** 9)):
            band = _assert_band_is_spec(t, eps)
        volume = sizes[0] * sizes[1] * sizes[2]
        prod = density(t.ab) * density(t.ac) * density(t.bc)
        edge = abs(band.triangle_count - prod * volume) / (7 * volume)
        tiny = Fraction(1, 10 ** 12)
        below = [edge - tiny] if edge else []
        turned.add(tuple(_assert_band_is_spec(t, e).in_band
                         for e in below + [edge, edge + tiny]))
    assert turned == {(False, True, True), (True, True)}


@pytest.mark.parametrize("eps", [Fraction(-1, 10), Fraction(-1, 10 ** 9),
                                 -1])
def test_counting_band_refuses_a_negative_eps(eps):
    """A negative eps would put the band's lower end above its upper one;
    it is refused, as a negative alpha is by ``check_quasirandom_triad``.
    eps = 0 stays allowed."""
    cls = tuple(VertexClass(i, 2) for i in range(3))
    t = Triad.complete(*cls)
    with pytest.raises(ParameterOutOfContract):
        hyperreg.triangle_count_bound(t, eps)
    assert hyperreg.triangle_count_bound(t, Fraction(0)).in_band


def _triad_in_order(graphs, order):
    """The triad whose axes are the classes ``order`` of a triad held as
    ``graphs[i, j]`` (i < j), each side transposed where needed."""
    def side(i, j):
        return graphs[i, j] if i < j else graphs[j, i].transpose()
    i, j, k = order
    return Triad(side(i, j), side(i, k), side(j, k))


def _relabelled_graph(g, left, right):
    rows = [0] * g.left.size
    for x, row in enumerate(g.rows):
        rows[left[x]] = sum(1 << right[y] for y in iter_bits(row))
    return BipartiteGraph.from_rows(g.left, g.right, rows)


@given(st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
       st.sampled_from([.2, .5, .9, 1]),
       st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 10 ** 9)]),
       st.integers(0, 2 ** 32))
def test_counting_band_is_invariant_under_axis_order_and_labels(
        sizes, p, eps, seed):
    """Each of the six orders of the axes, and a relabelling of every
    class, give the same band."""
    rng = random.Random(seed)
    cls = [VertexClass(i, n) for i, n in enumerate(sizes)]
    graphs = {(i, j): rg(rng, cls[i], cls[j], p)
              for i, j in ((0, 1), (0, 2), (1, 2))}
    want = hyperreg.triangle_count_bound(_triad_in_order(graphs, (0, 1, 2)),
                                         eps)
    for order in itertools.permutations(range(3)):
        assert hyperreg.triangle_count_bound(
            _triad_in_order(graphs, order), eps) == want
    labels = [rng.sample(range(n), n) for n in sizes]
    relabelled = {(i, j): _relabelled_graph(g, labels[i], labels[j])
                  for (i, j), g in graphs.items()}
    assert hyperreg.triangle_count_bound(
        _triad_in_order(relabelled, (0, 1, 2)), eps) == want


@given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
       st.sampled_from([.2, .5, .9, 1]), st.sampled_from([.3, .7, 1]),
       st.integers(0, 2 ** 32))
def test_triad_density_is_invariant_under_axis_order_and_labels(
        sizes, p, ph, seed):
    """``triad_density`` counts the same triangles and hyperedge triangles
    under each of the six orders of the axes, the 3-graph's triples
    reordered alike, and under a relabelling of every class, the 3-graph
    relabelled alike; or with only the 3-graph relabelled and the triad
    embedded by the labels, which takes the bit-by-bit hyperedge test."""
    rng = random.Random(seed)
    cls = [VertexClass(i, n) for i, n in enumerate(sizes)]
    graphs = {(i, j): rg(rng, cls[i], cls[j], p)
              for i, j in ((0, 1), (0, 2), (1, 2))}
    triples = [t for t in itertools.product(*map(range, sizes))
               if rng.random() < ph]

    def counts(graphs, triples, order=(0, 1, 2), embedding=None):
        h = ThreeGraph(tuple(cls[i] for i in order),
                       [tuple(t[i] for i in order) for t in triples])
        t = _triad_in_order(graphs, order)
        if embedding is not None:
            t = Triad(t.ab, t.ac, t.bc, embedding)
        stats = hyperreg.triad_density(h, t)
        return stats.triangle_count, stats.h_edge_count

    want = counts(graphs, triples)
    for order in itertools.permutations(range(3)):
        assert counts(graphs, triples, order) == want
    labels = [rng.sample(range(n), n) for n in sizes]
    moved = [tuple(labels[i][v] for i, v in enumerate(t)) for t in triples]
    relabelled = {(i, j): _relabelled_graph(g, labels[i], labels[j])
                  for (i, j), g in graphs.items()}
    assert counts(relabelled, moved) == want
    assert counts(graphs, moved, embedding=labels) == want


@given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
       st.sampled_from([.3, .7, 1]), st.sampled_from([.3, .7, 1]),
       st.booleans(), st.integers(0, 2 ** 32))
def test_reduction_identities_are_invariant_under_labels(sizes, p, ph, run,
                                                         seed):
    """Both reduction identities hold for an E on random class-1 and
    class-2 vertices and a class-3 subset C (a run or not), and still hold,
    with the density of the triad (E, A x C, B x C) unmoved, when every
    class of the 3-graph is relabelled and the three vertex lists are
    mapped alike: by random labels, by the reversal and by a rotation.
    Labels that leave C out of order take the bit-by-bit hyperedge test of
    ``_triangle_masks``."""
    rng = random.Random(seed)
    cls = tuple(VertexClass(i, n) for i, n in enumerate(sizes))
    triples = [t for t in itertools.product(*map(range, sizes))
               if rng.random() < ph]
    a_vs = rng.sample(range(sizes[0]), rng.randint(1, sizes[0]))
    b_vs = rng.sample(range(sizes[1]), rng.randint(1, sizes[1]))
    nc = rng.randint(1, sizes[2])
    c_vs = (list(range(rng.randint(0, sizes[2] - nc), sizes[2]))[:nc] if run
            else rng.sample(range(sizes[2]), nc))
    e = rg(rng, VertexClass(0, len(a_vs)), VertexClass(1, len(b_vs)), p)
    assume(e.edge_count)
    c_cls = VertexClass(2, nc)

    def answers(labels):
        h = ThreeGraph(cls, [tuple(labels[i][v] for i, v in enumerate(t))
                             for t in triples])
        vs = [[labels[i][v] for v in m] for i, m in enumerate(
            (a_vs, b_vs, c_vs))]
        triad = Triad(e, BipartiteGraph.complete(e.left, c_cls),
                      BipartiteGraph.complete(e.right, c_cls), embedding=vs)
        stats = hyperreg.triad_density(h, triad)
        return (hyperreg._reduction_identity(h, e, *vs),
                stats.triangle_count, stats.h_edge_count)

    want = answers([range(n) for n in sizes])
    assert want[0] == (True, True)
    assert want[1] == e.edge_count * nc
    for labels in ([rng.sample(range(n), n) for n in sizes],
                   [range(n - 1, -1, -1) for n in sizes],
                   [[(v + 1) % n for v in range(n)] for n in sizes]):
        assert answers(labels) == want


def test_partition_triads_enumeration():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    h = ThreeGraph.complete(frame.classes)
    triads = list(hyperreg.iter_partition_triads(h, tp))
    assert len(triads) == 1  # one cluster triple, ell = 1


def test_is_delta_good_complete():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    assert hyperreg.is_delta_good(tp, Fraction(1, 4), EXH).status == CERTIFIED


def test_full_reduction_pipeline_complete_instance():
    cls = tuple(VertexClass(i, 2) for i in range(3))
    frame = ThreePartiteFrame(cls)
    tp = complete_two_partition(frame.frame_partition())
    h = ThreeGraph.complete(cls)
    delta = Fraction(1, 16)
    eps2 = delta ** 2 / 88
    report = hyperreg.reduction_check(h, tp, delta, 1, 3, eps2, EXH)
    assert report.equip.passed
    assert report.hypothesis.holds
    assert report.eps2_bound_ok
    assert all(i.t_equals_e_times_c and i.densities_equal
               for i in report.identities)
    assert report.passed


def test_reduction_rejects_oversized_eps2():
    cls = tuple(VertexClass(i, 2) for i in range(3))
    frame = ThreePartiteFrame(cls)
    tp = complete_two_partition(frame.frame_partition())
    h = ThreeGraph.complete(cls)
    report = hyperreg.reduction_check(h, tp, Fraction(1, 16), 1, 3,
                                      Fraction(1, 2), EXH)
    assert not report.eps2_bound_ok
    assert not report.passed


RND = CheckParams(mode="randomized")


def frame_instance(h_triples=None):
    """The frame 2-partition of three classes of size 2 (one triad, three
    complete members) and a 3-graph on it, complete by default."""
    cls = tuple(VertexClass(i, 2) for i in range(3))
    tp = complete_two_partition(ThreePartiteFrame(cls).frame_partition())
    if h_triples is None:
        return ThreeGraph.complete(cls), tp
    return ThreeGraph(cls, frozenset(h_triples)), tp


MEMBER_CAVEATS = [f"member {key}: unknown verdict counted as regular"
                  for key in ((0, 1, 0), (0, 2, 0), (1, 2, 0))]


def test_unknown_caveats_in_randomized_mode():
    """Randomized searches find no witness on complete members, so every
    verdict is unknown and each is named in a caveat, in a fixed order."""
    h, tp = frame_instance()
    report = hyperreg.check_delta_regular_3partition(h, tp, Fraction(1, 4),
                                                     RND)
    assert report.goodness.status == UNKNOWN
    assert report.passed
    assert list(report.caveats) == [
        "axis 1 pair (0, 0): unknown verdict counted as regular",
        "axis 2 pair (0, 0): unknown verdict counted as regular",
        "axis 3 pair (0, 0): unknown verdict counted as regular",
        "goodness: unknown verdicts counted as regular"]

    equip = hyperreg.check_equipartition_params(tp, 1, 3, Fraction(1, 4),
                                                RND)
    assert equip.passed
    assert list(equip.caveats) == MEMBER_CAVEATS

    triad_holding = "triad (0, 1, 2)/(0, 0, 0): unknown verdict counted " \
        "as holding"
    hyp = hyperreg.subtriad_hypothesis_check(h, tp, Fraction(1, 4), RND)
    assert hyp.holds
    assert list(hyp.caveats) == [triad_holding]

    delta = Fraction(1, 16)
    red = hyperreg.reduction_check(h, tp, delta, 1, 3, delta ** 2 / 88, RND)
    assert red.passed
    assert list(red.caveats) == MEMBER_CAVEATS + [
        triad_holding,
        "axis 3 pair (0, 0): unknown verdict counted as regular"]

    fr = hyperreg.check_fr_partition(h, tp, 1, 3, Fraction(1, 4),
                                     Fraction(1, 4), RND)
    assert fr.passed
    assert [j.verdict_status for j in fr.judgments] == [UNKNOWN]
    assert fr.irregular_mass == 0
    assert list(fr.caveats) == MEMBER_CAVEATS + [
        "triad (0, 1, 2)/(0, 0, 0): unknown verdict counted as regular"]


def mass_of(report):
    return sum(j.triangle_count for j in report.judgments
               if j.verdict_status == IRREGULAR)


@pytest.mark.parametrize("check", [hyperreg.check_fr_partition,
                                   hyperreg.check_quasirandom_partition])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ell, threshold", [
    (1, Fraction(1, 4)), (1, Fraction(1, 10 ** 6)), (2, Fraction(1, 4))])
def test_mass_reports_add_up(check, seed, ell, threshold):
    """The irregular mass is the triangle count of the failing triads, and
    the partition passes iff the equipartition does and the mass is within
    the bound threshold * |V|^3."""
    rng = random.Random(seed)
    h, tp = frame_instance((a, b, c) for a in range(2) for b in range(2)
                           for c in range(2) if rng.random() < .5)
    report = check(h, tp, ell, 3, Fraction(1, 4), threshold, EXH)
    assert len(report.judgments) == 1
    assert report.judgments[0].triangle_count == 8
    assert report.irregular_mass == mass_of(report)
    assert report.bound == threshold * 6 ** 3
    assert report.passed == (report.equip.passed
                             and report.irregular_mass <= report.bound)
    assert report.equip.passed == (ell == 1)
    # Exhaustive checks leave no unknown verdict to name.
    assert list(report.caveats) == \
        ([] if ell == 1 else ["equipartition precondition failed"])


def test_mass_reports_on_the_complete_instance():
    h, tp = frame_instance()
    fr = hyperreg.check_fr_partition(h, tp, 1, 3, Fraction(1, 4),
                                     Fraction(1, 4), EXH)
    qr = hyperreg.check_quasirandom_partition(h, tp, 1, 3, Fraction(1, 4),
                                              Fraction(1, 4), EXH)
    for report in (fr, qr):
        assert report.passed
        assert report.irregular_mass == 0
        assert report.caveats == ()
        assert [j.verdict_status for j in report.judgments] == [CERTIFIED]


def test_mass_report_with_an_irregular_triad():
    """A random 3-graph on the frame: the one triad (8 triangles) fails
    both checks, which passes against the bound 54 and fails against a
    bound below 8."""
    rng = random.Random(0)
    h, tp = frame_instance((a, b, c) for a in range(2) for b in range(2)
                           for c in range(2) if rng.random() < .5)
    fr = hyperreg.check_fr_partition(h, tp, 1, 3, Fraction(1, 4),
                                     Fraction(1, 4), EXH)
    assert [j.verdict_status for j in fr.judgments] == [IRREGULAR]
    assert (fr.irregular_mass, fr.bound, fr.passed) == (8, 54, True)
    qr = hyperreg.check_quasirandom_partition(h, tp, 1, 3, Fraction(1, 4),
                                              Fraction(1, 10 ** 6), EXH)
    assert [j.verdict_status for j in qr.judgments] == [IRREGULAR]
    assert (qr.irregular_mass, qr.passed) == (8, False)


def test_partition_checks_reject_a_partition_off_the_frame():
    """Clusters {0, 2} and {1, 3} each straddle classes 0 and 1, and no
    cluster lies in class 1: the triad walks must refuse the partition,
    not report that it has no triad."""
    h = ThreeGraph.complete(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(
        VertexPartition.from_labels(VertexClass(0, 6), [0, 1, 0, 1, 2, 2]))
    half = Fraction(1, 2)
    with pytest.raises(FrameMismatch, match="does not refine the frame"):
        list(hyperreg.iter_partition_triads(h, tp))
    with pytest.raises(FrameMismatch):
        hyperreg.subtriad_hypothesis_check(h, tp, half, EXH)
    with pytest.raises(FrameMismatch):
        hyperreg.check_fr_partition(h, tp, 1, 3, half, half, EXH)
    with pytest.raises(FrameMismatch):
        hyperreg.check_quasirandom_partition(h, tp, 1, 3, half, half, EXH)


class EdgeBlock(NamedTuple):
    """A drawn edge block: its cluster pair, in either order, and its edges
    as pairs of combined vertex indices, the first endpoint in cluster
    ``pair[0]``."""

    pair: tuple[int, int]
    edges: frozenset[tuple[int, int]]


class DrawnTwoPartition(NamedTuple):
    """A drawn 2-partition: the clusters and the blocks as drawn."""

    z: VertexPartition
    e: tuple[EdgeBlock, ...]


def two_partition(drawn: DrawnTwoPartition) -> TwoPartition:
    """The ``TwoPartition`` of drawn blocks, in drawn order: each block
    oriented from its lower cluster, on cluster-local indices."""
    clusters = [sorted(b) for b in drawn.z.blocks]
    pos = [{v: x for x, v in enumerate(c)} for c in clusters]
    blocks = []
    for (i, j), edges in drawn.e:
        if i > j:
            i, j, edges = j, i, [(v, u) for u, v in edges]
        blocks.append((i, j, BipartiteGraph(
            VertexClass(i, len(clusters[i])), VertexClass(j, len(clusters[j])),
            [(pos[i][u], pos[j][v]) for u, v in edges])))
    return TwoPartition(drawn.z, tuple(blocks))


@st.composite
def framed_two_partitions(draw, max_side: int = 3):
    """A frame of classes of 1-``max_side`` vertices and a valid 2-partition
    refining it: clusters in shuffled order, the product of every cluster
    pair cut into 1-3 blocks (possibly empty), each drawn as (i, j) or
    reversed as (j, i), and the blocks in shuffled order.  Returns the
    frame, the drawn blocks and their ``TwoPartition``."""
    sizes = [draw(st.integers(1, max_side)) for _ in range(3)]
    frame = ThreePartiteFrame(tuple(VertexClass(i, n)
                                    for i, n in enumerate(sizes)))
    clusters = []
    for cls, n in enumerate(sizes):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        off = frame.offset(cls)
        clusters += [frozenset(off + v for v in range(n) if labels[v] == lab)
                     for lab in sorted(set(labels))]
    clusters = draw(st.permutations(clusters))
    z = VertexPartition(frame.combined_class(), tuple(clusters))
    blocks = []
    for i, j in itertools.combinations(range(z.order), 2):
        product = sorted((u, v) for u in z.blocks[i] for v in z.blocks[j])
        k = draw(st.integers(1, 3))
        owner = draw(st.lists(st.integers(0, k - 1), min_size=len(product),
                              max_size=len(product)))
        for b in range(k):
            edges = [e for e, o in zip(product, owner) if o == b]
            if draw(st.booleans()):
                blocks.append(EdgeBlock((j, i),
                                        frozenset((v, u) for u, v in edges)))
            else:
                blocks.append(EdgeBlock((i, j), frozenset(edges)))
    drawn = DrawnTwoPartition(z, tuple(draw(st.permutations(blocks))))
    return frame, drawn, two_partition(drawn)


def _graph_key(g: BipartiteGraph):
    return g.left, g.right, g.edges


def _triad_key(pt: PartitionTriad):
    t = pt.triad
    return (pt.clusters, pt.block_ids,
            tuple(map(_graph_key, (t.ab, t.ac, t.bc))), t.embedding)


@given(framed_two_partitions())
def test_partition_layout_matches_the_per_pair_layout(case):
    """``tp.graphs`` holds one graph per drawn block, in drawn order, keyed
    (i, j, k) for the k-th block of clusters i < j and oriented from
    cluster i, on the sorted clusters' local indices."""
    _, drawn, tp = case
    clusters = [sorted(b) for b in drawn.z.blocks]
    want = {}
    for eb in drawn.e:
        i, j = sorted(eb.pair)
        edges = (eb.edges if eb.pair == (i, j)
                 else {(v, u) for u, v in eb.edges})
        k = sum(other[:2] == (i, j) for other in want)
        want[(i, j, k)] = (
            VertexClass(i, len(clusters[i])), VertexClass(j, len(clusters[j])),
            frozenset((clusters[i].index(u), clusters[j].index(v))
                      for u, v in edges))
    got = tp.graphs
    assert list(got) == list(want)
    assert all(_graph_key(got[key]) == want[key] for key in want)


@given(framed_two_partitions(), st.data())
def test_reduction_identities_cover_every_axis3_member(case, data):
    """One identity per non-empty member between a class-0 and a class-1
    cluster and per class-2 cluster, whichever cluster has the lower label
    and however the member is stored; both identities hold on any h."""
    frame, drawn, tp = case
    h = ThreeGraph(frame.classes, frozenset(data.draw(st.sets(st.tuples(
        *(st.integers(0, c.size - 1) for c in frame.classes))))))
    cls_of = [frame.class_of(min(b)) for b in tp.z.blocks]
    c_clusters = [i for i, c in enumerate(cls_of) if c == 2]
    seen: dict[tuple[int, int], int] = {}
    want = []
    for eb in drawn.e:
        i, j = sorted(eb.pair)
        k = seen.get((i, j), 0)
        seen[(i, j)] = k + 1
        if {cls_of[i], cls_of[j]} == {0, 1} and eb.edges:
            want += [((i, j, k), ci) for ci in c_clusters]
    got = hyperreg._reduction_identities(h, tp)
    assert sorted((c.block_key, c.cluster_c) for c in got) == sorted(want)
    assert all(c.t_equals_e_times_c and c.densities_equal for c in got)


@pytest.mark.parametrize("labels", [[0, 0, 1, 1, 2, 2], [1, 1, 0, 0, 2, 2]])
def test_reduction_identities_orient_each_member(labels):
    """The class-0 cluster of the axis-3 member may carry either label."""
    cls = tuple(VertexClass(i, 2) for i in range(3))
    frame = ThreePartiteFrame(cls)
    tp = complete_two_partition(
        VertexPartition.from_labels(frame.combined_class(), labels))
    delta = Fraction(1, 16)
    report = hyperreg.reduction_check(ThreeGraph.complete(cls), tp, delta,
                                      1, 3, delta ** 2 / 88, EXH)
    assert [(c.block_key, c.cluster_c) for c in report.identities] == [
        ((0, 1, 0), 2)]
    assert report.identities[0].densities_equal
    assert report.passed


# ``sub_partitions``, ``iter_partition_triads`` and ``_reduction_identities``
# with its helper ``_reduction_identity``, as they were when each put the
# 2-partition on the frame and oriented its blocks itself, before
# ``ThreePartiteFrame.place``; kept verbatim but for the ``_ref_`` names as
# the oracles of the tests below.


def _ref_sub_partitions(tp: TwoPartition, frame: ThreePartiteFrame
                        ) -> tuple[tuple[VertexPartition, VertexPartition,
                                    VertexPartition],
                              tuple[VertexPartition, VertexPartition,
                                    VertexPartition]]:
    """Project a 2-partition onto a 3-partite frame.

    Returns (Z_1, Z_2, Z_3) as partitions of the individual classes (local
    indices) and (E_1, E_2, E_3), where E_i partitions V_j x V_k,
    {i, j, k} = {1, 2, 3} and j < k, read as the left side of the axis-i
    auxiliary graph: the pair (v_j, v_k) is vertex v_j * |V_k| + v_k of the
    ground ``VertexClass(-1, |V_j| * |V_k|)``.  E_i has one block per
    nonempty graph of ``tp.graphs`` between classes j and k, in that order.
    """
    layout = frame.cluster_layout(tp.z)
    zs = [VertexPartition(frame.classes[i],
                          tuple(frozenset(vs) for cls, vs in layout
                                if cls == i))
          for i in range(3)]

    es = []
    for j, k in ((1, 2), (0, 2), (0, 1)):
        nk = frame.classes[k].size
        blocks = []
        for (ci, cj, _), g in tp.graphs.items():
            (cls_i, vs_i), (cls_j, vs_j) = layout[ci], layout[cj]
            if {cls_i, cls_j} != {j, k} or not g.edge_count:
                continue
            if cls_i != j:
                (vs_i, vs_j), g = (vs_j, vs_i), g.transpose()
            blocks.append(frozenset(vs_i[a] * nk + vs_j[b]
                                    for a, b in g.sorted_edges()))
        es.append(VertexPartition(
            VertexClass(-1, frame.classes[j].size * nk), tuple(blocks)))
    return (tuple(zs), tuple(es))


def _ref_iter_partition_triads(h: ThreeGraph, tp: TwoPartition
                               ) -> Iterator[PartitionTriad]:
    """All triads with one cluster per class of ``h``.

    Cluster triples not meeting every class carry no hyperedges (the
    3-graph is 3-partite), so every subtriad there has density 0 and the
    triad is regular by convention; they are skipped.  FrameMismatch
    unless the clusters refine the frame of ``h``.
    """
    layout = _frame_of(h).cluster_layout(tp.z)
    by_class = [[i for i, (cls, _) in enumerate(layout) if cls == c]
                for c in range(3)]
    pairs: dict[tuple[int, int], list[tuple[int, BipartiteGraph]]] = {}
    for (i, j, k), g in sorted(tp.graphs.items()):
        pairs.setdefault((i, j), []).append((k, g))

    def oriented(i: int, j: int) -> list[tuple[int, BipartiteGraph]]:
        """The blocks of pair {i, j} as graphs from cluster i to cluster j;
        a pair is transposed on its first use only."""
        if i > j and (i, j) not in pairs:
            pairs[(i, j)] = [(k, g.transpose())
                             for k, g in pairs.get((j, i), ())]
        return pairs.get((i, j), [])

    for ia in by_class[0]:
        for ib in by_class[1]:
            for ic in by_class[2]:
                emb = (layout[ia][1], layout[ib][1], layout[ic][1])
                for bi, gab in oriented(ia, ib):
                    for bj, gac in oriented(ia, ic):
                        for bk, gbc in oriented(ib, ic):
                            yield PartitionTriad(
                                (ia, ib, ic), (bi, bj, bk),
                                Triad(gab, gac, gbc, embedding=emb))


def _ref_reduction_identities(h: ThreeGraph, tp: TwoPartition
                              ) -> tuple[IdentityCheck, ...]:
    """For each axis-3 family member E between clusters (A, B) and each
    cluster C of the third class: t(E, A x C, B x C) = |E| * |C| and the
    auxiliary-graph density of (E, C) equals d_H of that triad."""
    layout = _frame_of(h).cluster_layout(tp.z)
    checks = []
    c_clusters = [i for i, (cls, _) in enumerate(layout) if cls == 2]
    for key, g in sorted(tp.graphs.items()):
        i, j, _ = key
        if (layout[i][0], layout[j][0]) == (1, 0):
            i, j, g = j, i, g.transpose()
        (cls_a, a_vs), (cls_b, b_vs) = layout[i], layout[j]
        if (cls_a, cls_b) != (0, 1) or g.edge_count == 0:
            continue
        for ci in c_clusters:
            t_ok, d_ok = _ref_reduction_identity(h, g.sorted_edges(), a_vs,
                                                 b_vs, layout[ci][1])
            checks.append(IdentityCheck(key, ci, t_ok, d_ok))
    return tuple(checks)


def _ref_reduction_identity(h: ThreeGraph,
                            e_edges: Iterable[tuple[int, int]],
                            a_vs: Sequence[int], b_vs: Sequence[int],
                            c_vs: Sequence[int]) -> tuple[bool, bool]:
    """For E (edges on local indices into the class-1 vertices ``a_vs`` and
    the class-2 vertices ``b_vs`` of ``h``) and C (class-3 vertices
    ``c_vs``): whether t(E, A x C, B x C) = |E| * |C|, and whether the
    axis-3 auxiliary-graph density of (E, C) equals d_H of that triad."""
    a_cls = VertexClass(0, len(a_vs))
    b_cls = VertexClass(1, len(b_vs))
    c_cls = VertexClass(2, len(c_vs))
    e = BipartiteGraph(a_cls, b_cls, e_edges)
    triad = Triad(e, BipartiteGraph.complete(a_cls, c_cls),
                  BipartiteGraph.complete(b_cls, c_cls),
                  embedding=(a_vs, b_vs, c_vs))
    stats = triad_density(h, triad)
    pairs = e.edge_count * len(c_vs)
    n2, cmask = h.classes[1].size, subset_mask(c_vs, h.classes[2].size)
    hits = sum((h.graph.rows[a_vs[a] * n2 + b_vs[b]] & cmask).bit_count()
               for a, b in e.sorted_edges())
    return (stats.triangle_count == pairs,
            Fraction(hits, pairs) == stats.density)


def _placed_answers(h: ThreeGraph, tp: TwoPartition):
    """What the three readers of the placement answer on the frame of h."""
    return (sub_partitions(tp, _frame_of(h)),
            [_triad_key(pt) for pt in hyperreg.iter_partition_triads(h, tp)],
            hyperreg._reduction_identities(h, tp))


def _oracle_answers(h: ThreeGraph, tp: TwoPartition):
    return (_ref_sub_partitions(tp, _frame_of(h)),
            [_triad_key(pt) for pt in _ref_iter_partition_triads(h, tp)],
            _ref_reduction_identities(h, tp))


@given(framed_two_partitions(), st.data())
def test_placement_readers_match_the_oracles(case, data):
    """Each reader answers as it did when it oriented the blocks itself:
    the blocks of each E_i in ``tp.graphs`` order, the triads and the
    identities in key order; on the first call and on the calls that read
    the kept placement."""
    frame, _, tp = case
    h = ThreeGraph(frame.classes, frozenset(data.draw(st.sets(st.tuples(
        *(st.integers(0, c.size - 1) for c in frame.classes))))))
    want = _oracle_answers(h, tp)
    assert _placed_answers(h, tp) == want
    assert _placed_answers(h, tp) == want


@given(framed_two_partitions())
def test_place_orients_each_cross_class_block_from_the_lower_class(case):
    frame, _, tp = case
    layout, placed = frame.place(tp)
    assert list(layout) == frame.cluster_layout(tp.z)
    cls = [c for c, _ in layout]
    assert [key for key, _, _, _ in placed] == [
        key for key in tp.graphs if cls[key[0]] != cls[key[1]]]
    for key, ci, cj, g in placed:
        assert cls[ci] < cls[cj] and {ci, cj} == set(key[:2])
        assert (g.left.size, g.right.size) == (len(layout[ci][1]),
                                               len(layout[cj][1]))
        assert (g if ci == key[0] else g.transpose()) == tp.graphs[key]
    assert frame.place(tp) is frame.place(tp)
    assert ThreePartiteFrame(frame.classes).place(tp) is frame.place(tp)


@pytest.mark.parametrize("first", [(1, 2, 3), (2, 2, 2)])
def test_one_two_partition_on_two_frames(first):
    """Singleton clusters refine the frames (1, 2, 3) and (2, 2, 2).  The
    placement is kept per frame, so each frame gives its own oracle answer
    whichever is read first.  The clusters are labelled against the class
    order, so every block across classes is read transposed."""
    z = VertexPartition.from_labels(VertexClass(0, 6), [5, 4, 3, 2, 1, 0])
    tp = complete_two_partition(z)
    for sizes in (first, ({(1, 2, 3), (2, 2, 2)} - {first}).pop()):
        h = random_h(random.Random(sizes[0]), sizes, .6)
        want = _oracle_answers(h, tp)
        assert _placed_answers(h, tp) == want
        assert _placed_answers(h, tp) == want
        report = hyperreg.reduction_check(h, tp, Fraction(1, 16), 1, 6,
                                          Fraction(1, 16) ** 2 / 88, EXH)
        assert report.identities == want[2] and report.identities


def test_a_frame_the_clusters_do_not_refine_raises_on_every_call():
    """Clusters {0, 1}, {2, 3} and {4, 5} refine the frame (2, 2, 2) but
    straddle classes of (1, 2, 3); a frame of another size fits no
    clustering.  Placing on a good frame first keeps nothing for the
    others."""
    good, straddled, short = (
        ThreePartiteFrame(tuple(VertexClass(i, n) for i, n in enumerate(s)))
        for s in ((2, 2, 2), (1, 2, 3), (2, 2, 1)))
    tp = complete_two_partition(
        VertexPartition.from_labels(VertexClass(0, 6), [0, 0, 1, 1, 2, 2]))
    h = ThreeGraph.complete(straddled.classes)
    delta = Fraction(1, 16)
    for _ in range(2):
        good.place(tp)
        for call in (lambda: straddled.place(tp),
                     lambda: sub_partitions(tp, straddled),
                     lambda: list(hyperreg.iter_partition_triads(h, tp)),
                     lambda: hyperreg._reduction_identities(h, tp),
                     lambda: hyperreg.reduction_check(
                         h, tp, delta, 1, 3, delta ** 2 / 88, EXH)):
            with pytest.raises(FrameMismatch, match="does not refine"):
                call()
        with pytest.raises(FrameMismatch, match="ground differs"):
            short.place(tp)


def _count_layouts(monkeypatch) -> list:
    """The partitions that ``cluster_layout`` lays out, one per call."""
    calls = []
    layout = ThreePartiteFrame.cluster_layout
    monkeypatch.setattr(ThreePartiteFrame, "cluster_layout",
                        lambda frame, z: calls.append(z) or layout(frame, z))
    return calls


def test_reduction_check_lays_the_frame_out_once(monkeypatch):
    calls = _count_layouts(monkeypatch)
    cls = tuple(VertexClass(i, 2) for i in range(3))
    tp = complete_two_partition(VertexPartition.from_labels(
        VertexClass(0, 6), [1, 1, 0, 0, 2, 2]))
    delta = Fraction(1, 16)
    report = hyperreg.reduction_check(ThreeGraph.complete(cls), tp, delta,
                                      1, 3, delta ** 2 / 88, EXH)
    assert report.passed and report.identities
    assert calls == [tp.z]


def test_a_claim_4_8_instance_lays_the_frame_out_once(monkeypatch):
    """The candidates of one instance share one 2-partition, and so does
    the reduction check that follows, as in the suite; complete and empty
    instances try no candidate and lay the frame out in the check."""
    calls = _count_layouts(monkeypatch)
    tried = []
    holds = hyperreg.check_subtriad_hypothesis_holds
    monkeypatch.setattr(hyperreg, "check_subtriad_hypothesis_holds",
                        lambda *args: tried.append(1) or holds(*args))
    walks = []
    for trial in range(25):
        rng = random.Random(suites.trial_seed("claim-4.8", 0, trial))
        calls.clear()
        tried.clear()
        h, tp, delta, ell, t, eps2 = suites._claim_4_8_instance(rng)
        assert len(calls) == min(len(tried), 1)
        walks.append(len(tried))
        hyperreg.reduction_check(h, tp, delta, ell, t, eps2, EXH)
        assert len(calls) == 1
    assert max(walks) > 1


def _subset(draw, items: list) -> list:
    keep = draw(st.lists(st.booleans(), min_size=len(items),
                         max_size=len(items)))
    return list(itertools.compress(items, keep))


@st.composite
def small_triads(draw):
    """A triad with classes of 2-3 vertices, any three edge sets, and a
    3-graph with any triples on the same classes."""
    sizes = [draw(st.integers(2, 3)) for _ in range(3)]
    cls = [VertexClass(i, n) for i, n in enumerate(sizes)]

    def side(x: int, y: int) -> BipartiteGraph:
        return BipartiteGraph(cls[x], cls[y], _subset(draw, list(
            itertools.product(range(sizes[x]), range(sizes[y])))))

    t = Triad(side(0, 1), side(0, 2), side(1, 2))
    h = ThreeGraph(tuple(cls), frozenset(_subset(draw, list(
        itertools.product(*map(range, sizes))))))
    return h, t


@pytest.mark.parametrize("check, mode", [
    (hyperreg.check_fr_triad, hyperreg.MODE_DEVIATION),
    (hyperreg.check_subtriad_hypothesis, hyperreg.MODE_TWO_THIRDS),
], ids=["fr", "two-thirds"])
@given(case=small_triads(),
       value=st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]),
       search=st.sampled_from(["auto", "randomized"]),
       trials=st.integers(1, 16), seed=st.integers(0, 1 << 16))
def test_every_subtriad_witness_reverifies(check, mode, case, value, search,
                                           trials, seed):
    """An irregular subtriad verdict, from the exhaustive scan (auto mode
    within the edge budget) or the randomized search, carries masks that
    ``verify_subtriad_witness`` accepts; no other verdict carries any."""
    h, t = case
    v = check(h, t, value, CheckParams(mode=search, random_trials=trials,
                                       seed=seed))
    assert (v.witness is not None) == (v.status == IRREGULAR)
    if v.witness is not None:
        assert hyperreg.verify_subtriad_witness(h, t, v.witness, mode, value)


@given(case=small_triads(), value=st.sampled_from([Fraction(1, 8),
                                                   Fraction(1, 2)]),
       trials=st.integers(1, 16), seed=st.integers(0, 1 << 16))
def test_randomized_subtriad_verdicts_book_the_trials_run(case, value,
                                                          trials, seed):
    """A randomized verdict books the trial that found its witness, or
    every trial when none did: the same seed with that many trials finds
    the same witness, and with one fewer finds none."""
    h, t = case

    def verdict(n):
        return hyperreg.check_subtriad_hypothesis(
            h, t, value, CheckParams(mode="randomized", random_trials=n,
                                     seed=seed))

    v = verdict(trials)
    run = v.effort["trials"]
    if v.status == UNKNOWN:
        assert run == trials
        return
    assert 1 <= run <= trials
    assert verdict(run) == v
    if run > 1:
        assert verdict(run - 1).status == UNKNOWN


def test_an_early_witness_books_the_trials_run():
    """On the frame triad with half its triangles in h, the search at
    seed 0 finds a witness at its second draw and books 2 of 64 trials."""
    h, tp = frame_instance((a, b, c) for a in range(2) for b in range(2)
                           for c in range(2) if (a + b + c) % 2)
    t = next(hyperreg.iter_partition_triads(h, tp)).triad
    v = hyperreg.check_subtriad_hypothesis(h, t, Fraction(1, 16), RND)
    assert v.status == IRREGULAR
    assert v.effort == {"trials": 2}


def _two_way_split(sizes):
    """The 2-partition that cuts every class of ``sizes`` into its first
    two vertices and the rest, with complete members."""
    cls = tuple(VertexClass(i, n) for i, n in enumerate(sizes))
    frame = ThreePartiteFrame(cls)
    labels = [2 * i + (v >= 2) for i, n in enumerate(sizes) for v in range(n)]
    return cls, complete_two_partition(
        VertexPartition.from_labels(frame.combined_class(), labels))


@given(case=framed_two_partitions(max_side=2), data=st.data(),
       delta=st.sampled_from([Fraction(1, 16), Fraction(1, 4),
                              Fraction(1, 2)]),
       search=st.sampled_from(["exhaustive", "randomized"]),
       seed=st.integers(0, 1 << 16))
def test_hypothesis_holds_matches_the_full_report(case, data, delta, search,
                                                 seed):
    """The early exit answers what the full report's ``holds`` says, in
    both search modes."""
    frame, _, tp = case
    h = ThreeGraph(frame.classes, frozenset(data.draw(st.sets(st.tuples(
        *(st.integers(0, c.size - 1) for c in frame.classes))))))
    params = CheckParams(mode=search, random_trials=4, seed=seed)
    want = hyperreg.subtriad_hypothesis_check(h, tp, delta, params).holds
    assert hyperreg.check_subtriad_hypothesis_holds(h, tp, delta,
                                                    params) is want


@pytest.mark.parametrize("seed", range(12))
def test_hypothesis_holds_stops_at_the_first_irregular_triad(seed,
                                                            monkeypatch):
    """On the eight triads of a two-way split, the check judges the triads
    up to the first irregular one in the full report, or all of them."""
    rng = random.Random(seed)
    _, tp = _two_way_split((4, 4, 4))
    h = random_h(rng, (4, 4, 4), rng.choice([.85, .95, 1]))
    judgments = hyperreg.subtriad_hypothesis_check(h, tp, Fraction(1, 16),
                                                   EXH).judgments
    statuses = [j.verdict_status for j in judgments]
    want = statuses.index(IRREGULAR) + 1 if IRREGULAR in statuses \
        else len(statuses)
    calls = []
    check = hyperreg.check_subtriad_hypothesis

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(hyperreg, "check_subtriad_hypothesis", counted)
    holds = hyperreg.check_subtriad_hypothesis_holds(h, tp, Fraction(1, 16),
                                                     EXH)
    assert holds == (IRREGULAR not in statuses)
    assert len(calls) == want


def test_hypothesis_holds_raises_only_for_the_triads_it_reaches():
    """Classes of 5 split 2 + 3: the first triad (12 edges) is irregular,
    and the last (27 edges) is past the exhaustive budget."""
    cls, tp = _two_way_split((5, 5, 5))
    h = ThreeGraph(cls, frozenset((a, b, c) for a in range(2)
                                  for b in range(2) for c in range(2)
                                  if (a + b + c) % 2))
    delta = Fraction(1, 16)
    with pytest.raises(BudgetExceeded):
        hyperreg.subtriad_hypothesis_check(h, tp, delta, EXH)
    assert hyperreg.check_subtriad_hypothesis_holds(h, tp, delta,
                                                    EXH) is False
    complete = ThreeGraph.complete(cls)
    with pytest.raises(BudgetExceeded):
        hyperreg.check_subtriad_hypothesis_holds(complete, tp, delta, EXH)
