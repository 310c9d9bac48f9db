"""Acceptance gate: one test per top-level verification criterion.

Each test prints a single PASS line on success (visible with -s or -rP)
and fails loudly otherwise.  Everything runs with fixed seeds and exact
arithmetic; there are no tolerances beyond the ones the checked
statements themselves carry.
"""

import random
from collections import Counter
from fractions import Fraction

from regkit import hyperreg, suites
from regkit.graphs import BipartiteGraph, VertexClass
from regkit.regcheck import (CERTIFIED, IRREGULAR, CheckParams,
                             check_delta_regular, check_eps_regular,
                             verify_delta_witness, verify_eps_witness)

from test_regcheck import oracle_delta_regular, oracle_eps_regular

EXH = CheckParams(mode="exhaustive")


def _require_clean(report):
    failing = [r["trial"] for r in report.records if r["outcome"] != "pass"]
    assert report.passed and not failing, \
        f"suite {report.suite}: failing trials {failing}"


def _ok(line):
    print(f"PASS {line}")


def test_criterion_01_oracle_agreement_graph_checks():
    rng = random.Random(20240)
    checked = 0
    for _ in range(200):
        na, nb = rng.randint(2, 10), rng.randint(2, 10)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        g = BipartiteGraph(VertexClass(0, na), VertexClass(1, nb),
                           [(a, b) for a in range(na) for b in range(nb)
                            if rng.random() < p])
        eps = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
        delta = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
        ve = check_eps_regular(g, eps, EXH)
        assert ve.status in (CERTIFIED, IRREGULAR)
        assert (ve.status == CERTIFIED) == oracle_eps_regular(g, eps)
        if ve.status == IRREGULAR:
            assert verify_eps_witness(g, eps, ve.witness)
        vd = check_delta_regular(g, delta, EXH)
        assert vd.status in (CERTIFIED, IRREGULAR)
        assert (vd.status == CERTIFIED) == oracle_delta_regular(g, delta)
        if vd.status == IRREGULAR:
            assert verify_delta_witness(g, delta, vd.witness)
        checked += 1
    assert checked == 200
    _ok("criterion-1: 200/200 graphs agree with the brute-force oracle, "
        "all witnesses re-verify")


def test_criterion_02_union_of_certified_pairs():
    _require_clean(suites.run_suite("claim-3.1", trials=100))
    _ok("criterion-2: 100/100 edge-disjoint unions of certified "
        "<1/4>-regular members certify")


def test_criterion_03_refinement_union_extract_bound():
    _require_clean(suites.run_suite("claim-3.2", trials=100))
    _ok("criterion-3: 100/100 extractions satisfy |P^Q| <= 3*delta*|P| "
        "exactly")


def test_criterion_04_approx_refinement_order_bound():
    _require_clean(suites.run_suite("claim-3.5", trials=100))
    _ok("criterion-4: 100/100 approximate refinements satisfy "
        "|q| >= |p|/4")


def test_criterion_05_aux_density_identities():
    _require_clean(suites.run_suite("eq-red-d", trials=100))
    _ok("criterion-5: 100/100 instances satisfy both density and "
        "triangle-count identities with exact rationals")


def test_criterion_06_octahedron_equivalence_and_sign():
    """The oct-equiv suite's triads, with sides drawn from 2 to 8 rather
    than the suite's 2 to 6."""
    sizes = set()
    for trial in range(50):
        rng = random.Random(suites.trial_seed("oct-equiv", 0, trial))
        n = rng.choice([2, 3, 4, 5, 6, 7, 8])
        h, t = suites._random_equal_triad(rng, n)
        naive = hyperreg.octahedron_sum_naive(h, t)
        fast = hyperreg.octahedron_sum_fast(h, t)
        assert naive == fast >= 0, (trial, n)
        assert suites._scaled_sum_f(h, t) == 0, (trial, n)
        sizes.add(n)
    assert sizes == set(range(2, 9))
    _ok("criterion-6: 50/50 triads with sides 2 to 8, naive == fast "
        "octahedron sum, sum >= 0, sum f == 0")


def test_criterion_07_triangle_counting_band():
    report = suites.run_suite("lemma-a3", trials=100)
    _require_clean(report)
    styles = Counter(r["style"] for r in report.records)
    assert set(styles) == {"complete-sides", "random"}, styles
    _ok(f"criterion-7: {styles['complete-sides']} exact counts with "
        f"complete sides and {styles['random']} random triads inside the "
        "7*eps band, 100/100")


def test_criterion_08_slicing():
    _require_clean(suites.run_suite("lemma-a1", trials=50))
    _ok("criterion-8: 50/50 alpha-large slices stay 2*eps/alpha-regular "
        "with density within eps")


def test_criterion_09_reduction_pipeline():
    report = suites.run_suite("claim-4.8", trials=25)
    _require_clean(report)
    _ok("criterion-9: 25/25 exhaustively verified instances certify the "
        "perfect <2*sqrt(delta)> conclusion")


def test_criterion_10_schedule_arithmetic():
    report = suites.run_suite("schedule", trials=1)
    _require_clean(report)
    checks = report.records[0]["checks"]
    assert all(v is True for v in checks.values()), checks
    _ok("criterion-10: all pinned schedule values, growth and "
        "power-of-two facts hold under exact symbolic comparison")


def test_criterion_11_pasting_densities():
    _require_clean(suites.run_suite("paste-density", trials=20))
    _ok("criterion-11: 20/20 pastes match the exact densities and edge "
        "counts are additive")


def test_criterion_12_determinism():
    for suite_id in suites.registered_suites():
        trials = 1 if suite_id == "schedule" else 5
        for seed in (0, 7):
            first = suites.run_suite(suite_id, seed, trials).to_json()
            second = suites.run_suite(suite_id, seed, trials).to_json()
            assert first == second, f"{suite_id} seed {seed} not stable"
    _ok("criterion-12: every suite produces byte-identical reports on "
        "repeated runs with fixed seeds")
