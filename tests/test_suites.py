import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regkit import cli, hyperreg, suites
from regkit.errors import UnknownSuite
from regkit.graphs import BipartiteGraph, ThreeGraph, VertexClass
from regkit.partitions import (ThreePartiteFrame, VertexPartition,
                               complete_two_partition)


def test_registered_suites_complete():
    assert suites.registered_suites() == sorted([
        "claim-3.1", "claim-3.2", "claim-3.3", "claim-3.4", "claim-3.5",
        "lemma-a1", "claim-a2", "lemma-a3", "eq-red-d", "oct-equiv",
        "def-4.3-nonneg", "claim-4.8", "schacht", "paste-density",
        "schedule"])


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite) as info:
        suites.run_suite("nope")
    assert str(info.value) == ("unknown suite 'nope'; known: "
                               + ", ".join(suites.registered_suites()))


def test_trial_seed_scheme_is_splittable():
    a = suites.trial_seed("claim-3.1", 0, 0)
    b = suites.trial_seed("claim-3.1", 0, 1)
    c = suites.trial_seed("claim-3.2", 0, 0)
    d = suites.trial_seed("claim-3.1", 1, 0)
    assert len({a, b, c, d}) == 4
    assert a == suites.trial_seed("claim-3.1", 0, 0)


@pytest.mark.parametrize("suite_id", suites.registered_suites())
def test_every_suite_passes_smoke(suite_id):
    trials = 1 if suite_id == "schedule" else 5
    report = suites.run_suite(suite_id, seed=11, trials=trials)
    assert report.passed, report.records
    assert report.trials == trials
    assert len(report.records) == trials


# sha256 prefixes of every suite's canonical report at seed 0 and default
# trials.  A change to any report byte fails here.
REPORT_DIGESTS = {
    "claim-3.1": "738334ffe5639419",
    "claim-3.2": "18fed10570556583",
    "claim-3.3": "494907bab8c6199f",
    "claim-3.4": "889dbcc1b1656343",
    "claim-3.5": "e643e5918b3a1c2f",
    "claim-4.8": "dfb1e1b5bf879676",
    "claim-a2": "d5203ec4df6efa5b",
    "def-4.3-nonneg": "faebe345cea1b525",
    "eq-red-d": "3a04c5c625294992",
    "lemma-a1": "72c9dd78db06c54b",
    "lemma-a3": "6781ddf8b9d97eb7",
    "oct-equiv": "9427b872d6653a87",
    "paste-density": "dec4c27e8ffdfb87",
    "schacht": "011c486f95bbdb59",
    "schedule": "cc5a72d71b3efafa",
}


@pytest.mark.parametrize("suite_id", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(suite_id):
    text = suites.run_suite(suite_id, seed=0).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        REPORT_DIGESTS[suite_id]


def test_reports_are_byte_identical():
    first = suites.run_suite("oct-equiv", seed=2, trials=8).to_json()
    second = suites.run_suite("oct-equiv", seed=2, trials=8).to_json()
    assert first == second


def test_canonical_json_shape():
    report = suites.run_suite("paste-density", seed=4, trials=3)
    text = report.to_json()
    doc = json.loads(text)
    assert "wall_time" not in doc
    assert list(doc) == sorted(doc)
    # rationals appear as p/q strings
    assert any("/" in str(r.get("density", "")) for r in doc["records"])
    assert report.wall_time >= 0
    # The records are canonical as the report holds them, so canonical_dict
    # is, and to_json writes it as canonical_json would.
    assert report.canonical_dict() == suites._canon(report.canonical_dict())
    assert text == suites.canonical_json(report.canonical_dict())


def test_fraction_serialization():
    from fractions import Fraction
    assert suites.frac_str(Fraction(3, 4)) == "3/4"
    assert suites.frac_str(Fraction(2)) == "2/1"
    assert suites._canon({"x": Fraction(1, 3), "y": (1, 2)}) \
        == {"x": "1/3", "y": [1, 2]}


# ``suites._claim_4_8_instance`` as it was while every candidate got the full
# ``subtriad_hypothesis_check`` report, kept verbatim as the oracle for the
# early-exit check; only ``_exh()`` is now ``suites._EXH``.


def _claim_4_8_instance(rng: random.Random):
    """A tiny instance whose subtriad hypothesis certifies exhaustively."""
    layout = rng.choice(["single", "split"])
    if layout == "single":
        # Sides of 2 keep every partition triad inside the exhaustive
        # subtriad budget.
        n = 2
        classes = tuple(VertexClass(i, n) for i in range(3))
        frame = ThreePartiteFrame(classes)
        z = frame.frame_partition()
        t_count = 3
    else:
        n = 4
        classes = tuple(VertexClass(i, n) for i in range(3))
        frame = ThreePartiteFrame(classes)
        labels = []
        for i in range(3):
            labels.extend([2 * i, 2 * i, 2 * i + 1, 2 * i + 1])
        z = VertexPartition.from_labels(frame.combined_class(), labels)
        t_count = 6
    tp = complete_two_partition(z)
    delta = rng.choice([Fraction(1, 16), Fraction(1, 64)])
    eps2 = delta ** 2 / 88
    style = rng.choice(["complete", "empty", "random", "random"])
    if style == "complete":
        h = ThreeGraph.complete(classes)
    elif style == "empty":
        h = ThreeGraph(classes, frozenset())
    else:
        h = None
        for _ in range(30):
            cand = ThreeGraph(classes, frozenset(
                (a, b, c) for a in range(n) for b in range(n)
                for c in range(n) if rng.random() < rng.choice([0.85, 0.95])))
            rep = hyperreg.subtriad_hypothesis_check(cand, tp, delta,
                                                     suites._EXH)
            if rep.holds:
                h = cand
                break
        if h is None:
            h = ThreeGraph.complete(classes)
    return h, tp, delta, 1, t_count, eps2


@pytest.mark.parametrize("seed", range(9))
def test_claim_4_8_instances_match_the_full_report_oracle(seed):
    """Every default trial of claim-4.8 draws the same instance as the
    oracle and leaves its generator in the same state."""
    for trial in range(25):
        trial_seed = suites.trial_seed("claim-4.8", seed, trial)
        got_rng, want_rng = random.Random(trial_seed), random.Random(trial_seed)
        assert suites._claim_4_8_instance(got_rng) == \
            _claim_4_8_instance(want_rng)
        assert got_rng.getstate() == want_rng.getstate()


# ``suites._rg`` and the triple-set 3-graph generators of the suites as they
# were when they built edge lists and triple sets, kept verbatim as oracles
# (each generator's expression in a function named after its suite, the
# class sizes as arguments).


def _ref_rg(rng: random.Random, left: VertexClass, right: VertexClass,
            p: float) -> BipartiteGraph:
    if p >= 1.0:
        return BipartiteGraph.complete(left, right)
    return BipartiteGraph(left, right,
                          [(a, b) for a in range(left.size)
                           for b in range(right.size) if rng.random() < p])


def _ref_claim_3_4(rng, classes, n):
    return ThreeGraph(classes, frozenset(
        (a, b, c) for a in range(2 * n) for b in range(2 * n)
        for c in range(2 * n) if rng.random() < 0.5))


def _ref_eq_red_d(rng, classes, na, nb, nc):
    return ThreeGraph(classes, frozenset(
        (a, b, c) for a in range(na) for b in range(nb) for c in range(nc)
        if rng.random() < rng.choice([0.2, 0.5, 0.8])))


def _ref_random_equal_triad(rng, classes, n):
    return ThreeGraph(classes, frozenset(
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if rng.random() < rng.choice([0.2, 0.5, 0.8])))


def _ref_def_4_3_nonneg(rng, classes, n):
    return ThreeGraph(classes, frozenset(
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if rng.random() < rng.random()))


def _ref_claim_4_8(rng, classes, n):
    return ThreeGraph(classes, frozenset(
        (a, b, c) for a in range(n) for b in range(n)
        for c in range(n) if rng.random() < rng.choice([0.85, 0.95])))


def _ref_schacht(rng, classes, n):
    return ThreeGraph(classes, frozenset(
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if rng.random() < rng.choice([0.0, 0.5, 1.0])))


# Per suite: its oracle, and the threshold it now passes to
# ``suites._random_threegraph``, as a function of the generator.
GENERATORS = {
    "claim-3.4": (_ref_claim_3_4, lambda rng: lambda: 0.5),
    "eq-red-d": (_ref_eq_red_d,
                 lambda rng: lambda: rng.choice((0.2, 0.5, 0.8))),
    "oct-equiv": (_ref_random_equal_triad,
                  lambda rng: lambda: rng.choice((0.2, 0.5, 0.8))),
    "def-4.3-nonneg": (_ref_def_4_3_nonneg, lambda rng: rng.random),
    "claim-4.8": (_ref_claim_4_8,
                  lambda rng: lambda: rng.choice((0.85, 0.95))),
    "schacht": (_ref_schacht,
                lambda rng: lambda: rng.choice((0.0, 0.5, 1.0))),
}


@pytest.mark.parametrize("suite_id", sorted(GENERATORS))
@given(n=st.integers(1, 5), sizes=st.tuples(*[st.integers(1, 6)] * 3),
       seed=st.integers(0, 2 ** 64 - 1))
def test_threegraph_generators_match_the_triple_set_oracles(suite_id, n,
                                                           sizes, seed):
    """The same 3-graph, and the generator left in the same state, as the
    triple-set expression each suite used."""
    ref, threshold = GENERATORS[suite_id]
    if suite_id == "eq-red-d":
        classes, args = tuple(
            VertexClass(i, s) for i, s in enumerate(sizes)), sizes
    else:
        side = 2 * n if suite_id == "claim-3.4" else n
        classes, args = tuple(VertexClass(i, side) for i in range(3)), (n,)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = suites._random_threegraph(got_rng, classes, threshold(got_rng))
    want = ref(want_rng, classes, *args)
    assert (got.classes, got.graph.rows, got.graph.cols) == \
        (want.classes, want.graph.rows, want.graph.cols)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


@given(sizes=st.tuples(st.integers(1, 12), st.integers(1, 20)),
       p=st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.7, 0.95, 1.0, 1.5]),
       seed=st.integers(0, 2 ** 64 - 1))
def test_rg_matches_the_edge_list_oracle(sizes, p, seed):
    left, right = VertexClass(0, sizes[0]), VertexClass(1, sizes[1])
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = suites._rg(got_rng, left, right, p)
    want = _ref_rg(want_rng, left, right, p)
    assert (got.left, got.right, got.rows, got.cols) == \
        (want.left, want.right, want.rows, want.cols)
    assert got_rng.getstate() == want_rng.getstate()


def test_every_suite_at_seeds_0_to_8_is_pinned():
    """One sha256 over every suite's ``--json verify`` output and exit code,
    seeds 0-8, suites in ``registered_suites()`` order: a change to any
    report byte or exit code at those seeds fails here."""
    digest = hashlib.sha256()
    for seed in range(9):
        for suite_id in suites.registered_suites():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--json", "verify", "--suite", suite_id,
                                 "--seed", str(seed)])
            digest.update(out.getvalue().encode())
            digest.update(str(code).encode())
    assert digest.hexdigest() == ("d005bedd7af9449a8eaa855cbe0af128"
                                  "2583870b3f9635fbcc051781d89caa8b")
