import random

import pytest

from regkit import fileio
from regkit.errors import FormatError
from regkit.graphs import BipartiteGraph, ThreeGraph, Triad, VertexClass
from regkit.partitions import (ThreePartiteFrame, VertexPartition,
                               complete_two_partition)


def _random_graph(rng, left, right, p=0.5):
    return BipartiteGraph(left, right,
                          [(a, b) for a in range(left.size)
                           for b in range(right.size) if rng.random() < p])


def test_graph_round_trip_canonical():
    rng = random.Random(1)
    for _ in range(25):
        g = _random_graph(rng, VertexClass(0, rng.randint(1, 8)),
                          VertexClass(1, rng.randint(1, 8)))
        text = fileio.dumps_graph(g)
        again = fileio.loads_graph(text)
        assert again.edges == g.edges
        assert fileio.dumps_graph(again) == text


def test_graph_comments_and_blank_lines():
    text = "# header comment\n\nbg 2 2 1  # sizes\n1 1\n"
    g = fileio.loads_graph(text)
    assert g.edges == frozenset({(1, 1)})


def test_threegraph_round_trip():
    rng = random.Random(2)
    cls = tuple(VertexClass(i, 3) for i in range(3))
    h = ThreeGraph(cls, frozenset(
        (a, b, c) for a in range(3) for b in range(3) for c in range(3)
        if rng.random() < .4))
    text = fileio.dumps_threegraph(h)
    assert fileio.dumps_threegraph(fileio.loads_threegraph(text)) == text


def test_partition_round_trip():
    p = VertexPartition.from_labels(VertexClass(0, 5), [0, 1, 0, 2, 1])
    text = fileio.dumps_partition(p)
    assert fileio.dumps_partition(fileio.loads_partition(text)) == text


def test_triad_round_trip():
    rng = random.Random(3)
    a, b, c = (VertexClass(i, 3) for i in range(3))
    t = Triad(_random_graph(rng, a, b), _random_graph(rng, a, c),
              _random_graph(rng, b, c))
    text = fileio.dumps_triad(t)
    t2 = fileio.loads_triad(text)
    assert fileio.dumps_triad(t2) == text
    assert (t2.ab.edges, t2.ac.edges, t2.bc.edges) == (
        t.ab.edges, t.ac.edges, t.bc.edges)


def test_twopartition_round_trip():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    text = fileio.dumps_twopartition(tp)
    assert fileio.dumps_twopartition(fileio.loads_twopartition(text)) == text


def test_duplicate_edge_reports_line():
    with pytest.raises(FormatError) as err:
        fileio.loads_graph("bg 2 2 2\n0 0\n0 0\n")
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_out_of_range_reports_line():
    with pytest.raises(FormatError) as err:
        fileio.loads_graph("bg 2 2 1\n0 9\n")
    assert err.value.line == 2


def test_duplicate_triple_reports_line():
    with pytest.raises(FormatError) as err:
        fileio.loads_threegraph("h3 2 2 2 2\n0 0 0\n0 0 0\n")
    assert err.value.line == 3


def test_bad_header_and_truncation():
    with pytest.raises(FormatError):
        fileio.loads_graph("xx 2 2 0\n")
    with pytest.raises(FormatError):
        fileio.loads_graph("bg 2 2 3\n0 0\n")
    with pytest.raises(FormatError):
        fileio.loads_graph("bg 2 2 0\n0 0\n")  # trailing content


BAD_BG_HEADERS = ("bg 2 2 -1", "bg 0 2 0", "bg -1 2 0")
BAD_H3_HEADERS = ("h3 2 2 2 -3", "h3 0 1 1 0")
COMPLETE_BG_2X2 = "bg 2 2 4\n0 0\n0 1\n1 0\n1 1\n"


def _header_error(load, text: str) -> FormatError:
    with pytest.raises(FormatError) as err:
        load(text)
    return err.value


@pytest.mark.parametrize("header", BAD_BG_HEADERS + BAD_H3_HEADERS)
def test_malformed_header_reports_line(header):
    load = (fileio.loads_graph if header.startswith("bg")
            else fileio.loads_threegraph)
    err = _header_error(load, header + "\n")
    assert err.line == 1
    assert "header" in str(err)


@pytest.mark.parametrize("header", BAD_BG_HEADERS)
def test_malformed_bg_header_inside_triad(header):
    text = "tr 2 2 2\n" + header + "\n" + COMPLETE_BG_2X2 * 2
    err = _header_error(fileio.loads_triad, text)
    assert err.line == 2
    assert "bg header" in str(err)


@pytest.mark.parametrize("header", BAD_BG_HEADERS)
def test_malformed_bg_header_inside_twopartition(header):
    text = ("vp 6 3\n0 0 1 1 2 2\npair 0 1\n" + header + "\n"
            + "pair 0 2\n" + COMPLETE_BG_2X2 + "pair 1 2\n" + COMPLETE_BG_2X2)
    err = _header_error(fileio.loads_twopartition, text)
    assert err.line == 4
    assert "bg header" in str(err)


def test_partition_label_errors():
    with pytest.raises(FormatError):
        fileio.loads_partition("vp 3 2\n0 0 5\n")
    with pytest.raises(FormatError):
        fileio.loads_partition("vp 4 3\n0 0 1 1\n")  # block 2 empty


def test_twopartition_missing_edge_names_pair():
    frame = ThreePartiteFrame(tuple(VertexClass(i, 2) for i in range(3)))
    tp = complete_two_partition(frame.frame_partition())
    text = fileio.dumps_twopartition(tp)
    lines = text.splitlines()
    # drop the last edge line of the final bg section and fix its count
    for i, ln in enumerate(lines):
        if ln.startswith("bg "):
            last_bg = i
    parts = lines[last_bg].split()
    parts[3] = str(int(parts[3]) - 1)
    lines[last_bg] = " ".join(parts)
    broken = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(FormatError) as err:
        fileio.loads_twopartition(broken)
    assert "pair" in str(err.value) or "cover" in str(err.value) \
        or "missing" in str(err.value)


def test_path_round_trip(tmp_path):
    g = BipartiteGraph.complete(VertexClass(0, 2), VertexClass(1, 3))
    path = tmp_path / "g.bg"
    fileio.save_graph(path, g)
    assert fileio.load_graph(path) == g
