import itertools
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regkit import fileio, hyperreg
from regkit.errors import (BudgetExceeded, FrameMismatch,
                           ParameterOutOfContract)
from regkit.graphs import (BipartiteGraph, ThreeGraph, Triad, VertexClass,
                           density, iter_bits)
from regkit.hyperreg import PartitionTriad, _frame_of
from regkit.partitions import (ThreePartiteFrame, TwoPartition,
                               VertexPartition, complete_two_partition)
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


# The layout code that ``ThreePartiteFrame.cluster_layout`` and the
# one-pass edge family ``TwoPartition.graphs`` replaced, kept verbatim as the
# oracle for the property test below; it reads the drawn blocks.  Only
# ``tp.blocks_for_pair(i, j)``, a deleted method, is now the function
# ``blocks_for_pair(tp, i, j)``.


def blocks_for_pair(tp, i: int, j: int) -> list[EdgeBlock]:
    """Blocks between clusters i and j, edges oriented (i, j)."""
    out = []
    for eb in tp.e:
        if eb.pair == (i, j):
            out.append(eb)
        elif eb.pair == (j, i):
            out.append(EdgeBlock((i, j),
                                 frozenset((v, u) for u, v in eb.edges)))
    return out


@dataclass(frozen=True)
class BlockGraphs:
    """Per-cluster-pair bipartite graphs of a 2-partition, reindexed locally.

    ``clusters[i]`` is the sorted vertex list of cluster i (combined
    indices); ``graphs`` maps (i, j, block_index) to a BipartiteGraph on
    local indices 0..|cluster|-1.
    """

    clusters: tuple[tuple[int, ...], ...]
    graphs: dict[tuple[int, int, int], BipartiteGraph]


def block_graphs(tp: TwoPartition) -> BlockGraphs:
    clusters = tuple(tuple(sorted(b)) for b in tp.z.blocks)
    pos = [({v: i for i, v in enumerate(c)}) for c in clusters]
    graphs: dict[tuple[int, int, int], BipartiteGraph] = {}
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            for idx, eb in enumerate(blocks_for_pair(tp, i, j)):
                left = VertexClass(i, len(clusters[i]))
                right = VertexClass(j, len(clusters[j]))
                edges = [(pos[i][u], pos[j][v]) for u, v in eb.edges]
                graphs[(i, j, idx)] = BipartiteGraph(left, right, edges)
    return BlockGraphs(clusters, graphs)


def iter_partition_triads(h: ThreeGraph, tp: TwoPartition
                          ) -> Iterator[PartitionTriad]:
    """All triads with one cluster per class of ``h``.

    Cluster triples not meeting every class carry no hyperedges (the
    3-graph is 3-partite), so every subtriad there has density 0 and the
    triad is regular by convention; they are skipped.
    """
    frame = _frame_of(h)
    if tp.z.ground.size != frame.total:
        raise FrameMismatch("2-partition ground differs from the frame")
    cls_of = [frame.class_of(next(iter(b))) for b in tp.z.blocks]
    by_class: dict[int, list[int]] = {0: [], 1: [], 2: []}
    for idx, c in enumerate(cls_of):
        by_class[c].append(idx)
    bg = block_graphs(tp)
    for ia in by_class[0]:
        for ib in by_class[1]:
            for ic in by_class[2]:
                emb = tuple(
                    tuple(frame.to_local(cls, v) for v in bg.clusters[i])
                    for cls, i in ((0, ia), (1, ib), (2, ic)))
                ab_blocks = _pair_blocks(bg, ia, ib)
                ac_blocks = _pair_blocks(bg, ia, ic)
                bc_blocks = _pair_blocks(bg, ib, ic)
                for bi, gab in ab_blocks:
                    for bj, gac in ac_blocks:
                        for bk, gbc in bc_blocks:
                            yield PartitionTriad(
                                (ia, ib, ic), (bi, bj, bk),
                                Triad(gab, gac, gbc, embedding=emb))


def _pair_blocks(bg: BlockGraphs, i: int, j: int
                 ) -> list[tuple[int, BipartiteGraph]]:
    lo, hi = min(i, j), max(i, j)
    out = []
    for (a, b, idx), g in sorted(bg.graphs.items()):
        if (a, b) != (lo, hi):
            continue
        out.append((idx, g if i == lo else g.transpose()))
    return out


@st.composite
def framed_two_partitions(draw):
    """A frame of classes of 1-3 vertices and a valid 2-partition refining
    it: clusters in shuffled order, the product of every cluster pair cut
    into 1-3 blocks (possibly empty), each drawn as (i, j) or reversed as
    (j, i), and the blocks in shuffled order.  Returns the frame, the
    drawn blocks and their ``TwoPartition``."""
    sizes = [draw(st.integers(1, 3)) for _ in range(3)]
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
    frame, drawn, tp = case
    h = ThreeGraph(frame.classes, frozenset())
    want = block_graphs(drawn).graphs
    got = tp.graphs
    assert sorted(got) == sorted(want)
    seen: dict[tuple[int, int], int] = {}
    order = []  # one key per block, in drawn order
    for eb in drawn.e:
        i, j = sorted(eb.pair)
        k = seen.get((i, j), 0)
        seen[(i, j)] = k + 1
        order.append((i, j, k))
    assert list(got) == order
    assert all(_graph_key(got[key]) == _graph_key(want[key]) for key in want)
    assert ([_triad_key(pt) for pt in hyperreg.iter_partition_triads(h, tp)]
            == [_triad_key(pt) for pt in iter_partition_triads(h, drawn)])


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
