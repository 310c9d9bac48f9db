"""The value types of regkit: records and validated types.

Each type compares field by field, hashes where it is immutable and holds
only hashable values, prints as ``Name(field=value, ...)``, keeps its
constructor's parameters and defaults, and validates its input with the
same errors and texts.
"""
import ast
import inspect
import pathlib
import re
from fractions import Fraction

import pytest

from regkit import hyperreg, partitions, regcheck, suites
from regkit.errors import DegenerateInput, NotDisjoint, ParameterOutOfContract
from regkit.graphs import BipartiteGraph, ThreeGraph, Triad, VertexClass

V0, V1, V2 = VertexClass(0, 1), VertexClass(1, 2), VertexClass(2, 2)
Z2 = partitions.VertexPartition(VertexClass(0, 2),
                                (frozenset({0}), frozenset({1})))
Z3 = partitions.VertexPartition(VertexClass(0, 3),
                                (frozenset({0}), frozenset({1, 2})))
G12 = BipartiteGraph.complete(VertexClass(0, 1), VertexClass(1, 2))
G12_A = BipartiteGraph.from_rows(VertexClass(0, 1), VertexClass(1, 2), [1])
G12_B = BipartiteGraph.from_rows(VertexClass(0, 1), VertexClass(1, 2), [2])
TRIAD = Triad.complete(V0, V0, V0)
OTHER_TRIAD = Triad.complete(V0, V0, V0)
CERT = regcheck.Verdict(regcheck.CERTIFIED, "Exhaustive")
IRR = regcheck.Verdict(regcheck.IRREGULAR, "Exhaustive", ((0,), (0,)),
                       {"left_masks": 1})
PV = regcheck.PartitionVerdict(regcheck.CERTIFIED, {(0, 0): CERT})
EDITS = regcheck.EditResult(regcheck.PERFECT, (), 0, {(0, 0): CERT})
JUDGED = hyperreg.TriadJudgment((0, 1, 2), (0, 0, 0), 1, regcheck.CERTIFIED)
EQUIP = hyperreg.EquipartitionReport(True, True, (), {(0, 1, 0): CERT}, True,
                                     ())
HYP = hyperreg.SubtriadHypothesisReport((JUDGED,), True, ())
IDENT = hyperreg.IdentityCheck((0, 1, 0), 2, True, True)
THIRD, HALF = Fraction(1, 3), Fraction(1, 2)

# (type, constructor arguments by name in signature order, a second value
# for each field, hashable, repr of the first).  Every field is a
# constructor argument, apart from ThreeGraph's ``graph``, which its
# ``triples`` argument builds.
CASES = [
    (VertexClass, {"id": 0, "size": 3}, {"id": 1, "size": 4}, True,
     "VertexClass(id=0, size=3)"),
    (ThreeGraph, {"classes": (V0, V1, V2), "triples": {(0, 1, 0)}},
     {"classes": (VertexClass(5, 1), V1, V2), "triples": {(0, 1, 1)}}, True,
     "ThreeGraph(classes=(VertexClass(id=0, size=1), VertexClass(id=1, "
     "size=2), VertexClass(id=2, size=2)), graph=BipartiteGraph(2x2, "
     "1 edges))"),
    (partitions.VertexPartition,
     {"ground": VertexClass(0, 2), "blocks": Z2.blocks},
     {"ground": VertexClass(1, 2), "blocks": Z2.blocks[::-1]}, True,
     "VertexPartition(ground=VertexClass(id=0, size=2), "
     "blocks=(frozenset({0}), frozenset({1})))"),
    (partitions.ThreePartiteFrame, {"classes": (V0, V1, V2)},
     {"classes": (V0, V1, VertexClass(2, 3))}, True,
     "ThreePartiteFrame(classes=(VertexClass(id=0, size=1), "
     "VertexClass(id=1, size=2), VertexClass(id=2, size=2)))"),
    (partitions.TwoPartition, {"z": Z3, "blocks": ((0, 1, G12),)},
     {"z": partitions.VertexPartition(VertexClass(4, 3), Z3.blocks),
      "blocks": ((0, 1, G12_A), (0, 1, G12_B))}, True,
     "TwoPartition(z=VertexPartition(ground=VertexClass(id=0, size=3), "
     "blocks=(frozenset({0}), frozenset({1, 2}))), "
     "blocks=((0, 1, BipartiteGraph(1x2, 2 edges)),))"),
    (regcheck.CheckParams,
     {"mode": "auto", "max_exhaustive_side": 12, "random_trials": 64,
      "seed": 0},
     {"mode": "exhaustive", "max_exhaustive_side": 5, "random_trials": 3,
      "seed": 1}, True,
     "CheckParams(mode='auto', max_exhaustive_side=12, random_trials=64, "
     "seed=0)"),
    (regcheck.Verdict,
     {"status": regcheck.IRREGULAR, "method": "Exhaustive",
      "witness": ((0,), (1,)), "effort": {"left_masks": 2}},
     {"status": regcheck.UNKNOWN, "method": "Randomized",
      "witness": ((0,), (0,)), "effort": {"left_masks": 3}}, False,
     "Verdict(status='IrregularWithWitness', method='Exhaustive', "
     "witness=((0,), (1,)), effort={'left_masks': 2})"),
    (regcheck.PartitionVerdict,
     {"status": regcheck.CERTIFIED, "pair_verdicts": {(0, 0): CERT}},
     {"status": regcheck.UNKNOWN, "pair_verdicts": {(0, 0): IRR}}, False,
     "PartitionVerdict(status='CertifiedRegular', pair_verdicts={(0, 0): "
     "Verdict(status='CertifiedRegular', method='Exhaustive', witness=None, "
     "effort={})})"),
    (regcheck.EditResult,
     {"status": regcheck.AFTER_EDITS, "edits": ((0, 1),), "budget": 1,
      "pair_verdicts": {(0, 0): CERT}},
     {"status": regcheck.PERFECT, "edits": (), "budget": 2,
      "pair_verdicts": {}}, False,
     "EditResult(status='RegularAfterEdits', edits=((0, 1),), budget=1, "
     "pair_verdicts={(0, 0): Verdict(status='CertifiedRegular', "
     "method='Exhaustive', witness=None, effort={})})"),
    (hyperreg.TriadStats,
     {"triad": TRIAD, "triangle_count": 1, "h_edge_count": 0},
     {"triad": OTHER_TRIAD, "triangle_count": 2, "h_edge_count": 1}, True,
     "TriadStats(triad=Triad(1,1,1), triangle_count=1, h_edge_count=0)"),
    (hyperreg.ThreePartitionReport,
     {"goodness": PV, "axes": (EDITS, EDITS, EDITS), "passed": True,
      "caveats": ()},
     {"goodness": regcheck.PartitionVerdict(regcheck.UNKNOWN, {}),
      "axes": (EDITS, EDITS), "passed": False, "caveats": ("c",)}, False,
     "ThreePartitionReport(goodness=PartitionVerdict(status="
     "'CertifiedRegular', pair_verdicts={(0, 0): Verdict(status="
     "'CertifiedRegular', method='Exhaustive', witness=None, effort={})}), "
     "axes=(" + ", ".join(["EditResult(status='PerfectlyRegular', "
                           "edits=(), budget=0, pair_verdicts={(0, 0): "
                           "Verdict(status='CertifiedRegular', method="
                           "'Exhaustive', witness=None, effort={})})"] * 3)
     + "), passed=True, caveats=())"),
    (hyperreg.EquipartitionReport,
     {"order_ok": True, "equitable": True, "density_violations": (),
      "member_verdicts": {(0, 1, 0): CERT}, "passed": True, "caveats": ()},
     {"order_ok": False, "equitable": False,
      "density_violations": ((0, 1, 0),), "member_verdicts": {},
      "passed": False, "caveats": ("c",)}, False,
     "EquipartitionReport(order_ok=True, equitable=True, "
     "density_violations=(), member_verdicts={(0, 1, 0): Verdict(status="
     "'CertifiedRegular', method='Exhaustive', witness=None, effort={})}, "
     "passed=True, caveats=())"),
    (hyperreg.PartitionTriad,
     {"clusters": (0, 1, 2), "block_ids": (0, 0, 0), "triad": TRIAD},
     {"clusters": (0, 1, 3), "block_ids": (0, 1, 0), "triad": OTHER_TRIAD},
     True,
     "PartitionTriad(clusters=(0, 1, 2), block_ids=(0, 0, 0), "
     "triad=Triad(1,1,1))"),
    (hyperreg.TriadJudgment,
     {"clusters": (0, 1, 2), "block_ids": (0, 0, 0), "triangle_count": 1,
      "verdict_status": regcheck.CERTIFIED},
     {"clusters": (0, 1, 3), "block_ids": (1, 0, 0), "triangle_count": 2,
      "verdict_status": regcheck.IRREGULAR}, True,
     "TriadJudgment(clusters=(0, 1, 2), block_ids=(0, 0, 0), "
     "triangle_count=1, verdict_status='CertifiedRegular')"),
    (hyperreg.MassReport,
     {"equip": EQUIP, "judgments": (JUDGED,), "irregular_mass": 0,
      "bound": THIRD, "passed": True, "caveats": ()},
     {"equip": hyperreg.EquipartitionReport(True, True, (), {}, True, ()),
      "judgments": (), "irregular_mass": 1, "bound": HALF, "passed": False,
      "caveats": ("c",)}, False,
     "MassReport(equip=EquipartitionReport(order_ok=True, equitable=True, "
     "density_violations=(), member_verdicts={(0, 1, 0): Verdict(status="
     "'CertifiedRegular', method='Exhaustive', witness=None, effort={})}, "
     "passed=True, caveats=()), judgments=(TriadJudgment(clusters=(0, 1, "
     "2), block_ids=(0, 0, 0), triangle_count=1, verdict_status="
     "'CertifiedRegular'),), irregular_mass=0, bound=Fraction(1, 3), "
     "passed=True, caveats=())"),
    (hyperreg.QuasirandomReport,
     {"octahedron_sum": THIRD, "bound": HALF, "verdict": True, "d0": THIRD,
      "d1": THIRD, "d2": THIRD, "unequal_densities": False},
     {"octahedron_sum": HALF, "bound": THIRD, "verdict": False, "d0": HALF,
      "d1": HALF, "d2": HALF, "unequal_densities": True}, True,
     "QuasirandomReport(octahedron_sum=Fraction(1, 3), bound=Fraction(1, "
     "2), verdict=True, d0=Fraction(1, 3), d1=Fraction(1, 3), "
     "d2=Fraction(1, 3), unequal_densities=False)"),
    (hyperreg.CountingBand,
     {"triangle_count": 3, "lower": THIRD, "upper": HALF, "in_band": True},
     {"triangle_count": 4, "lower": HALF, "upper": THIRD, "in_band": False},
     True,
     "CountingBand(triangle_count=3, lower=Fraction(1, 3), "
     "upper=Fraction(1, 2), in_band=True)"),
    (hyperreg.SubtriadHypothesisReport,
     {"judgments": (JUDGED,), "holds": True, "caveats": ()},
     {"judgments": (), "holds": False, "caveats": ("c",)}, True,
     "SubtriadHypothesisReport(judgments=(TriadJudgment(clusters=(0, 1, "
     "2), block_ids=(0, 0, 0), triangle_count=1, verdict_status="
     "'CertifiedRegular'),), holds=True, caveats=())"),
    (hyperreg.IdentityCheck,
     {"block_key": (0, 1, 0), "cluster_c": 2, "t_equals_e_times_c": True,
      "densities_equal": True},
     {"block_key": (0, 1, 1), "cluster_c": 3, "t_equals_e_times_c": False,
      "densities_equal": False}, True,
     "IdentityCheck(block_key=(0, 1, 0), cluster_c=2, "
     "t_equals_e_times_c=True, densities_equal=True)"),
    (hyperreg.ReductionReport,
     {"equip": EQUIP, "hypothesis": HYP, "eps2_bound_ok": True,
      "identities": (IDENT,), "partition_verdict": PV, "passed": True,
      "caveats": ()},
     {"equip": hyperreg.EquipartitionReport(True, True, (), {}, True, ()),
      "hypothesis": hyperreg.SubtriadHypothesisReport((), True, ()),
      "eps2_bound_ok": False, "identities": (), "partition_verdict":
      regcheck.PartitionVerdict(regcheck.UNKNOWN, {}), "passed": False,
      "caveats": ("c",)}, False,
     "ReductionReport(equip=EquipartitionReport(order_ok=True, "
     "equitable=True, density_violations=(), member_verdicts={(0, 1, 0): "
     "Verdict(status='CertifiedRegular', method='Exhaustive', witness=None, "
     "effort={})}, passed=True, caveats=()), hypothesis="
     "SubtriadHypothesisReport(judgments=(TriadJudgment(clusters=(0, 1, 2), "
     "block_ids=(0, 0, 0), triangle_count=1, verdict_status="
     "'CertifiedRegular'),), holds=True, caveats=()), eps2_bound_ok=True, "
     "identities=(IdentityCheck(block_key=(0, 1, 0), cluster_c=2, "
     "t_equals_e_times_c=True, densities_equal=True),), "
     "partition_verdict=PartitionVerdict(status='CertifiedRegular', "
     "pair_verdicts={(0, 0): Verdict(status='CertifiedRegular', "
     "method='Exhaustive', witness=None, effort={})}), passed=True, "
     "caveats=())"),
    (suites.Report,
     {"suite": "schedule", "seed": 0, "trials": 1, "records": [{"a": 1}],
      "passed": True, "caveats": [], "wall_time": 0.5},
     {"suite": "claim-3.1", "seed": 1, "trials": 2, "records": [],
      "passed": False, "caveats": ["c"], "wall_time": 0.25}, False,
     "Report(suite='schedule', seed=0, trials=1, records=[{'a': 1}], "
     "passed=True, caveats=[], wall_time=0.5)"),
]
IDS = [case[0].__name__ for case in CASES]

# The parameters that have a default, per type; the rest have none.
DEFAULTS = {
    "CheckParams": ["mode", "max_exhaustive_side", "random_trials", "seed"],
    "Verdict": ["witness", "effort"],
    "Report": ["wall_time"],
}


def test_every_value_type_is_covered():
    """21 types, each once."""
    assert len(set(IDS)) == len(IDS) == 21


@pytest.mark.parametrize("cls, args, other, hashable, text", CASES, ids=IDS)
def test_constructor_parameters(cls, args, other, hashable, text):
    params = inspect.signature(cls).parameters
    assert list(params) == list(args) == list(other)
    assert [name for name, p in params.items()
            if p.default is not p.empty] == DEFAULTS.get(cls.__name__, [])


@pytest.mark.parametrize("cls, args, other, hashable, text", CASES, ids=IDS)
def test_equality_is_field_wise(cls, args, other, hashable, text):
    a, b = cls(**args), cls(**args)
    assert a == b and not a != b
    for name in args:
        c = cls(**dict(args, **{name: other[name]}))
        assert c != a and not c == a, name
    assert a != object()


@pytest.mark.parametrize("cls, args, other, hashable, text", CASES, ids=IDS)
def test_hash_follows_equality(cls, args, other, hashable, text):
    a, b = cls(**args), cls(**args)
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, args, other, hashable, text", CASES, ids=IDS)
def test_repr_names_every_field(cls, args, other, hashable, text):
    assert repr(cls(**args)) == text


def test_unhashable_by_type_not_by_field():
    """Verdict and Report refuse a hash even when every field hashes."""
    for obj in (regcheck.Verdict("s", "m", None, {}),
                suites.Report("s", 0, 1, [], True, [])):
        with pytest.raises(TypeError):
            hash(obj)


def test_defaults():
    v, w = (regcheck.Verdict(regcheck.CERTIFIED, "Exhaustive")
            for _ in range(2))
    assert v.witness is None and v.effort == {}
    v.effort["left_masks"] = 1
    assert w.effort == {}
    assert regcheck.Verdict(regcheck.CERTIFIED, "Exhaustive").effort == {}
    p = regcheck.CheckParams()
    assert (p.mode, p.max_exhaustive_side, p.random_trials, p.seed) == (
        "auto", 12, 64, 0)
    assert suites.Report("s", 0, 1, [], True, []).wall_time == 0.0


def test_two_partition_placements_leave_equality_alone():
    frame = partitions.ThreePartiteFrame((V0, V0, V0))
    tp = partitions.complete_two_partition(frame.frame_partition())
    fresh = partitions.complete_two_partition(frame.frame_partition())
    text = repr(fresh)
    frame.place(tp)
    assert tp.graphs and tp == fresh and hash(tp) == hash(fresh)
    assert repr(tp) == text


def test_triad_stats_density():
    assert hyperreg.TriadStats(TRIAD, 0, 0).density == 0
    assert hyperreg.TriadStats(TRIAD, 3, 2).density == Fraction(2, 3)


def test_vertex_class_validation():
    with pytest.raises(DegenerateInput,
                       match="^vertex class 7 has negative size$"):
        VertexClass(7, -1)
    assert VertexClass(0, 0).size == 0


@pytest.mark.parametrize("kwargs, text", [
    ({"mode": "fast"}, "unknown mode 'fast'"),
    ({"mode": "fast", "random_trials": 0}, "unknown mode 'fast'"),
    ({"random_trials": 0}, "random_trials must be >= 1"),
    ({"random_trials": 0, "max_exhaustive_side": 0},
     "random_trials must be >= 1"),
    ({"max_exhaustive_side": 0}, "max_exhaustive_side must be >= 1"),
])
def test_check_params_validation(kwargs, text):
    with pytest.raises(ParameterOutOfContract, match=f"^{re.escape(text)}$"):
        regcheck.CheckParams(**kwargs)


@pytest.mark.parametrize("blocks, error, text", [
    ((), DegenerateInput, "partition with no blocks"),
    ((frozenset({0, 1}), frozenset()), DegenerateInput,
     "empty partition block"),
    ((frozenset({0, 1}), frozenset({1})), NotDisjoint,
     "partition blocks overlap"),
    ((frozenset({0}),), DegenerateInput,
     "partition blocks do not cover the ground"),
])
def test_vertex_partition_validation(blocks, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        partitions.VertexPartition(VertexClass(0, 2), blocks)


@pytest.mark.parametrize("blocks, text", [
    (((1, 0, G12),), "edge block tagged with bad pair (1,0)"),
    (((0, 1, BipartiteGraph.complete(VertexClass(0, 1),
                                     VertexClass(2, 2))),),
     "pair (0,1): graph on classes VertexClass(id=0, size=1) and "
     "VertexClass(id=2, size=2), not VertexClass(id=0, size=1) and "
     "VertexClass(id=1, size=2)"),
    (((0, 1, G12), (0, 1, G12_A)), "pair (0,1): duplicated edge (NotDisjoint)"),
    (((0, 1, G12_A),), "pair (0,1): 1 product edge(s) missing"),
    ((), "pair (0,1): 2 product edge(s) missing"),
])
def test_two_partition_validation(blocks, text):
    with pytest.raises(DegenerateInput, match=f"^{re.escape(text)}$"):
        partitions.TwoPartition(Z3, blocks)


def _writes_eq_or_hash(node):
    """Whether a class body defines ``__eq__`` or ``__hash__``, by ``def``
    or by assignment; ``__hash__ = None``, which only opts out, does not
    count."""
    for sub in node.body:
        if isinstance(sub, ast.FunctionDef):
            names, value = [sub.name], sub
        elif isinstance(sub, ast.Assign):
            names = [t.id for t in sub.targets if isinstance(t, ast.Name)]
            value = sub.value
        else:
            continue
        for name in names:
            if name == "__eq__" or (name == "__hash__" and not (
                    isinstance(value, ast.Constant) and value.value is None)):
                return True
    return False


def test_only_value_and_big_count_write_eq_or_hash():
    """The validated types take ``==`` and hash from ``graphs.Value``;
    ``constructions.BigCount`` alone compares by value, through ``cmp``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "regkit"
    writers = sorted(f"{path.stem}.{node.name}"
                     for path in src.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ClassDef)
                     and _writes_eq_or_hash(node))
    assert writers == ["constructions.BigCount", "graphs.Value"]
