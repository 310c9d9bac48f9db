import io
import json
import sys
from unittest import mock

import pytest

from regkit import cli, fileio, regcheck, suites
import regkit.constructions as cn
from regkit.errors import ParameterOutOfContract
from regkit.graphs import BipartiteGraph, ThreeGraph, Triad, VertexClass
from regkit.partitions import (ThreePartiteFrame, VertexPartition,
                               complete_two_partition)


@pytest.fixture
def fixtures(tmp_path):
    a, b = VertexClass(0, 4), VertexClass(1, 4)
    paths = {}
    paths["complete"] = tmp_path / "complete.bg"
    fileio.save_graph(paths["complete"], BipartiteGraph.complete(a, b))
    paths["half"] = tmp_path / "half.bg"
    fileio.save_graph(paths["half"], BipartiteGraph(
        a, b, [(i, j) for i in range(4) for j in range(4)
               if (i < 2) == (j < 2)]))
    paths["edits"] = tmp_path / "edits.bg"
    fileio.save_graph(paths["edits"], BipartiteGraph(
        a, b, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0),
               (3, 1), (3, 3)]))
    paths["vp"] = tmp_path / "p.vp"
    fileio.save_partition(paths["vp"],
                          VertexPartition.from_labels(a, [0, 0, 1, 1]))
    cls = tuple(VertexClass(i, 2) for i in range(3))
    paths["h3"] = tmp_path / "h.h3"
    fileio.save_threegraph(paths["h3"], ThreeGraph.complete(cls))
    paths["tr"] = tmp_path / "t.tr"
    fileio.save_triad(paths["tr"], Triad.complete(*cls))
    frame = ThreePartiteFrame(cls)
    paths["h1"] = tmp_path / "h1.h3"
    fileio.save_threegraph(paths["h1"], ThreeGraph(cls, [(0, 0, 0)]))
    paths["tp"] = tmp_path / "z.tp"
    fileio.save_twopartition(paths["tp"],
                             complete_two_partition(frame.frame_partition()))
    paths["parts"] = []
    for i, fr in enumerate(cn.part_frames(2)):
        p = tmp_path / f"part{i}.h3"
        fileio.save_threegraph(p, ThreeGraph.complete(fr))
        paths["parts"].append(p)
    paths["tmp"] = tmp_path
    return paths


def run(argv):
    return cli.main([str(a) for a in argv])


def test_check_pair_certified_exit0(fixtures, capsys):
    assert run(["check-pair", "--graph", fixtures["complete"],
                "--delta", "1/4", "--mode", "exhaustive"]) == 0
    assert "CertifiedRegular" in capsys.readouterr().out


def test_check_pair_irregular_exit1(fixtures, capsys):
    assert run(["check-pair", "--graph", fixtures["half"],
                "--eps", "1/4", "--mode", "exhaustive"]) == 1
    assert "IrregularWithWitness" in capsys.readouterr().out


@pytest.mark.parametrize("flag, check", [("--delta", "delta-regular pair"),
                                         ("--eps", "eps-regular pair")])
def test_check_pair_unknown_above_the_exhaustive_limit(tmp_path, capsys,
                                                       flag, check):
    """A near-complete 40x40 pair (5% of edges missing) in auto mode: the
    density bounds rule out every violation, so no randomized search runs,
    and the output is still "unknown" with its caveat, byte for byte."""
    g = BipartiteGraph(VertexClass(0, 40), VertexClass(1, 40),
                       [(a, b) for a in range(40) for b in range(40)
                        if (7 * a + 3 * b) % 20])
    path = tmp_path / "near.bg"
    fileio.save_graph(path, g)
    with mock.patch.object(regcheck, "_random_search") as search:
        assert run(["--json", "check-pair", "--graph", path, flag, "1/3"]) == 0
    assert not search.called
    assert capsys.readouterr().out == (
        '{\n "caveats": [\n  "no witness found; not a certification"\n ],\n'
        ' "report": {\n  "check": "%s",\n  "method": "Randomized",\n'
        '  "status": "UnknownNoWitnessFound",\n  "witness": null\n }\n}\n'
        % check)


def test_check_pair_requires_one_threshold(fixtures):
    assert run(["check-pair", "--graph", fixtures["complete"]]) == 2
    assert run(["check-pair", "--graph", fixtures["complete"],
                "--eps", "1/4", "--delta", "1/4"]) == 2


def test_bad_rational_exit2(fixtures):
    assert run(["check-pair", "--graph", fixtures["complete"],
                "--delta", "banana"]) == 2


def test_missing_file_exit2(fixtures):
    assert run(["check-pair", "--graph", fixtures["tmp"] / "nope.bg",
                "--delta", "1/4"]) == 2


def test_malformed_file_exit2(fixtures):
    bad = fixtures["tmp"] / "bad.bg"
    bad.write_text("bg 2 2 2\n0 0\n0 0\n")
    assert run(["check-pair", "--graph", bad, "--delta", "1/4"]) == 2


def test_non_utf8_file_exit2_names_line(fixtures, capsys):
    bad = fixtures["tmp"] / "latin1.bg"
    bad.write_bytes(b"bg 2 2 1\n0 \xff\n")
    assert run(["check-pair", "--graph", bad, "--delta", "1/4"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: line 2: not UTF-8 text\n" and out.out == ""


def test_negative_edge_count_exit2(fixtures, capsys):
    bad = fixtures["tmp"] / "negative.bg"
    bad.write_text("bg 2 2 -1\n")
    assert run(["check-pair", "--graph", bad, "--delta", "1/4"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("header", [f"bg 3 {2 ** 62} 0", f"bg {10 ** 20} 3 0"])
def test_huge_header_sizes_exit2_names_line(fixtures, capsys, header):
    bad = fixtures["tmp"] / "huge.bg"
    bad.write_text(header + "\n")
    assert run(["check-pair", "--graph", bad, "--delta", "1/4"]) == 2
    assert (capsys.readouterr().err
            == "error: line 1: bg header: sizes too large\n")


def test_corrupted_triad_exit2_names_line(fixtures, capsys):
    lines = fixtures["tr"].read_text().splitlines()
    assert lines[9] == "1 0"  # the AC section's third edge
    lines[9] = "1 2"
    bad = fixtures["tmp"] / "bad.tr"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["check-fr", "--h", fixtures["h3"], "--triad", bad,
                "--eps", "1/2"]) == 2
    assert "line 10: edge (1,2) out of range 2x2" in capsys.readouterr().err


def test_check_partition(fixtures, capsys):
    assert run(["check-partition", "--graph", fixtures["half"],
                "--left", fixtures["vp"], "--right", fixtures["vp"],
                "--delta", "1/4"]) == 0
    assert "PerfectlyRegular" in capsys.readouterr().out


def test_check_3partition(fixtures, capsys):
    assert run(["check-3partition", "--h", fixtures["h3"],
                "--tp", fixtures["tp"], "--delta", "1/2"]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_check_3partition_randomized_caveats(fixtures, capsys):
    """Every member and every axis pair of the complete 3-graph is unknown
    to the randomized search; unknowns count as regular, so the check
    passes, with one caveat each, axes numbered 1-3."""
    assert run(["check-3partition", "--h", fixtures["h3"],
                "--tp", fixtures["tp"], "--delta", "1/2",
                "--mode", "randomized"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "axes: {'1': 'PerfectlyRegular', '2': 'PerfectlyRegular', "
        "'3': 'PerfectlyRegular'}",
        "check: delta-regular 2-partition of a 3-graph",
        "goodness: UnknownNoWitnessFound",
        "passed: True",
        "caveat: axis 1 pair (0, 0): unknown verdict counted as regular",
        "caveat: axis 2 pair (0, 0): unknown verdict counted as regular",
        "caveat: axis 3 pair (0, 0): unknown verdict counted as regular",
        "caveat: goodness: unknown verdicts counted as regular"]


def test_check_fr_and_quasirandom(fixtures, capsys):
    assert run(["check-fr", "--h", fixtures["h3"],
                "--triad", fixtures["tr"], "--eps", "1/2"]) == 0
    assert run(["quasirandom", "--h", fixtures["h3"],
                "--triad", fixtures["tr"], "--alpha", "1/100"]) == 0
    out = capsys.readouterr().out
    assert "octahedron_sum: 0/1" in out


def test_triad_larger_than_the_3graph_exit2(fixtures, capsys):
    """A 3x3x3 triad against a 2x2x2 3-graph is a frame mismatch for the
    octahedron check, which finds no witness, and for the subtriad check."""
    big = fixtures["tmp"] / "big.tr"
    fileio.save_triad(big, Triad.complete(*(VertexClass(i, 3)
                                            for i in range(3))))
    assert run(["quasirandom", "--h", fixtures["h3"], "--triad", big,
                "--alpha", "1/100"]) == 2
    assert run(["check-fr", "--h", fixtures["h3"], "--triad", big,
                "--eps", "1/2"]) == 2
    err = capsys.readouterr().err
    assert err.count("embedded vertex 2 outside class of size 2") == 2


def test_aux_graph_stdout(fixtures, capsys):
    assert run(["aux-graph", "--h", fixtures["h3"], "--axis", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bg 4 2 8")


def test_paste_writes_file(fixtures):
    out = fixtures["tmp"] / "pasted.h3"
    assert run(["paste", "--parts", *fixtures["parts"], "--out", out]) == 0
    h = fileio.load_threegraph(out)
    assert [c.size for c in h.classes] == [4, 4, 4]
    assert h.edge_count == 48  # 6 complete parts of 8 triples each


@pytest.mark.parametrize("argv, load, report", [
    (["aux-graph", "--h", "h3", "--axis", "3"], fileio.load_graph,
     {"check": "auxiliary graph", "axis": 3, "edges": 8}),
    (["paste", "--parts", "parts"], fileio.load_threegraph,
     {"check": "six-cycle paste", "edges": 48, "density": "3/4"}),
], ids=["aux-graph", "paste"])
def test_json_and_out_write_both(fixtures, capsys, argv, load, report):
    """--out alone writes the file and prints nothing; with --json as well
    it writes the same file and prints the JSON document holding its
    text."""
    out = fixtures["tmp"] / "built.txt"
    args = []
    for a in argv:
        args += fixtures[a] if a == "parts" else [fixtures.get(a, a)]
    assert run([*args, "--out", out]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert load(out).edge_count == report["edges"]
    out.unlink()
    assert run(["--json", *args, "--out", out]) == 0
    assert out.read_text(encoding="utf-8") == text
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"report": {**report, "graph": text}, "caveats": []}


def test_paste_wrong_count_exit2(fixtures):
    assert run(["paste", "--parts", *fixtures["parts"][:3]]) == 2


def test_paste_class_size_mismatch_exit2(fixtures, capsys):
    odd = fixtures["tmp"] / "odd.h3"
    fileio.save_threegraph(odd, ThreeGraph.complete(cn.part_frames(3)[5]))
    assert run(["paste", "--parts", *fixtures["parts"][:5], odd]) == 2
    assert capsys.readouterr().err == (
        "error: ClassSizeMismatch: part 5 has class size 3, expected 2\n")


def test_schedule_json(fixtures, capsys):
    assert run(["--json", "schedule", "--index", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["values"]["t"]["value"] == "2^250"


def test_schedule_at_index_10_to_the_18(capsys):
    assert run(["--json", "schedule", "--index", 10 ** 18]) == 0
    values = json.loads(capsys.readouterr().out)["report"]["values"]
    assert values["e"] == {"exact": True,
                           "value": "2^(1000000000000000010+0)"}
    assert not any(values[name]["exact"] for name in ("t", "w", "twr", "wow"))


class _ClosedPipe(io.TextIOBase):
    """A standard output whose reader has gone, as in ``regkit ... | head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["--json", "verify", "--suite", "schedule"],
                                  ["schedule", "--index", "1"]])
def test_closed_stdout_exits_141_silently(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(argv) == cli.BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def test_verify_pass_and_unknown(capsys):
    assert run(["verify", "--suite", "claim-3.5", "--seed", "7",
                "--trials", "25"]) == 0
    assert run(["verify", "--suite", "does-not-exist"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "claim-3.1", "--trials", "-2"],
    ["--trials", "0", "verify", "--suite", "schedule"],
    ["check-pair", "--graph", "complete", "--delta", "1/4", "--trials", "0"],
    ["check-pair", "--graph", "complete", "--delta", "1/4", "--trials", "x"],
], ids=["verify -2", "global 0", "check-pair 0", "check-pair x"])
def test_trials_below_one_is_a_usage_error(fixtures, capsys, argv):
    """No trial count runs no trial, nor the default: exit 2, no report."""
    argv = [fixtures.get(a, a) for a in argv]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --trials" in err


def test_trials_default_is_the_check_params_default(capsys, monkeypatch):
    """Without --trials a check runs ``CheckParams``' number of trials,
    ``regcheck.RANDOM_TRIALS``, read when the parameters are made, and the
    help text names it."""
    args = cli._build_parser().parse_args(
        ["check-pair", "--graph", "g.bg", "--delta", "1/4"])
    assert cli._params(args) == regcheck.CheckParams()
    monkeypatch.setattr(regcheck, "RANDOM_TRIALS", 5)
    assert cli._params(args).random_trials == 5
    monkeypatch.undo()
    assert run(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert (f"default {regcheck.CheckParams().random_trials} trials, or the "
            "suite's own count" in help_text)


def test_main_builds_its_parser_once(capsys):
    """Two calls of ``main`` share one parser, and parsing leaves it as it
    was: help and usage errors read the same from a fresh parser and from
    one that has parsed other command lines."""
    argvs = [["--help"], ["verify", "--help"], ["verify"],
             ["schedule", "--index", "x"], ["no-such-command"]]
    cli._build_parser.cache_clear()
    fresh = [(run(argv), capsys.readouterr()) for argv in argvs]
    assert run(["schedule", "--index", "1"]) == 0
    capsys.readouterr()
    again = [(run(argv), capsys.readouterr()) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert again == fresh
    assert [code for code, _ in fresh] == [0, 0, 2, 2, 2]
    assert fresh[0][1].out.startswith("usage: regkit")
    assert all(err.startswith("usage: regkit") for _, (_, err) in fresh[2:])


def test_run_suite_refuses_negative_trials():
    with pytest.raises(ParameterOutOfContract) as info:
        suites.run_suite("claim-3.1", trials=-2)
    assert str(info.value) == ("suite 'claim-3.1': trials is -2, below 0 "
                               "(0 means the suite's default)")
    assert suites.run_suite("schedule", trials=0).trials == 1


def test_json_reports_are_deterministic(fixtures, capsys):
    argv = ["--json", "verify", "--suite", "eq-red-d", "--seed", "3",
            "--trials", "10"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert "wall_time" not in first
    assert doc["passed"] is True


def test_global_flags_accepted_before_subcommand(fixtures, capsys):
    assert run(["--mode", "exhaustive", "check-pair",
                "--graph", fixtures["complete"], "--delta", "1/4"]) == 0


def test_check_partition_randomized_caveats(fixtures, capsys):
    """Every cluster pair of a complete graph is unknown to the randomized
    search; unknown pairs count as regular, so the check passes, and each
    is named in a caveat line, in cluster-pair order."""
    assert run(["check-partition", "--graph", fixtures["complete"],
                "--left", fixtures["vp"], "--right", fixtures["vp"],
                "--delta", "1/4", "--mode", "randomized"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "budget: 0",
        "check: delta-regular partition with edit budget",
        "edits: []",
        "status: PerfectlyRegular",
        "caveat: pair (0, 0): no witness found",
        "caveat: pair (0, 1): no witness found",
        "caveat: pair (1, 0): no witness found",
        "caveat: pair (1, 1): no witness found"]


# Each command's report, as text lines and as the JSON document, pinned
# byte for byte: witnesses and edits print as lists in both modes.
@pytest.mark.parametrize("argv, code, report", [
    (["check-pair", "--graph", "half", "--eps", "1/4", "--mode",
      "exhaustive"], 1,
     {"check": "eps-regular pair", "method": "Exhaustive",
      "status": "IrregularWithWitness", "witness": [[0], [2]]}),
    (["check-fr", "--h", "h1", "--triad", "tr", "--eps", "1/4"], 1,
     {"check": "deviation-regular triad", "method": "Exhaustive",
      "status": "IrregularWithWitness", "witness": [1, 3, 3]}),
    (["check-partition", "--graph", "edits", "--left", "vp", "--right", "vp",
      "--delta", "1/2"], 0,
     {"budget": 2, "check": "delta-regular partition with edit budget",
      "edits": [[0, 1], [3, 3]], "status": "RegularAfterEdits"}),
], ids=["check-pair", "check-fr", "check-partition"])
def test_witness_and_edits_output(fixtures, capsys, argv, code, report):
    argv = [fixtures[a] if a in fixtures else a for a in argv]
    assert run(argv) == code
    assert capsys.readouterr().out == "".join(
        f"{key}: {value}\n" for key, value in report.items())
    assert run(["--json", *argv]) == code
    assert capsys.readouterr().out == json.dumps(
        {"caveats": [], "report": report}, indent=1) + "\n"


@pytest.mark.parametrize("argv, check", [
    (["check-pair", "--graph", "complete", "--eps", "1/4"],
     "eps-regular pair"),
    (["check-pair", "--graph", "complete", "--delta", "1/4"],
     "delta-regular pair"),
    (["check-fr", "--h", "h3", "--triad", "tr", "--eps", "1/2"],
     "deviation-regular triad")])
def test_unknown_verdict_output(fixtures, capsys, argv, check):
    argv = [fixtures[a] if a in fixtures else a for a in argv]
    assert run([*argv, "--mode", "randomized"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"check: {check}",
        "method: Randomized",
        "status: UnknownNoWitnessFound",
        "witness: None",
        "caveat: no witness found; not a certification"]
