import itertools
import random
import tracemalloc
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from regkit import fileio
from regkit.errors import FormatError
from regkit.fileio import _bits, _bulk_columns, _header, _ints, _Lines
from regkit.graphs import BipartiteGraph, ThreeGraph, Triad, VertexClass
from regkit.partitions import (ThreePartiteFrame, TwoPartition,
                               VertexPartition, complete_two_partition)
from test_hyperreg import (DrawnTwoPartition, EdgeBlock,
                           framed_two_partitions, two_partition)


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


def test_loaded_graph_keeps_its_masks_only():
    """A dense 64x64 graph costs its row and column masks, under 16 bytes
    an edge; an edge set of tuples would take about 60.  The reader's
    tables, built once per process, are built before the count starts
    (see test_line_table_size)."""
    rng = random.Random(64)
    text = fileio.dumps_graph(_random_graph(
        rng, VertexClass(0, 64), VertexClass(1, 64), 0.9))
    fileio.loads_graph(text)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = fileio.loads_graph(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.edge_count > 3500
    assert kept < 16 * g.edge_count, kept / g.edge_count


def test_line_table_size():
    """The line table of the widest sections read by lookup, W = 64, takes
    under 0.5 MB: about 110 bytes for each of its 4096 lines."""
    fileio._cells.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = fileio._cells(fileio._LINE_TABLE_MAX_WIDTH)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == 64 * 64 and table["63 1"] == 63 * 64 + 1
    assert kept < 500_000, kept


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


@pytest.mark.parametrize("text, expected", [
    ("bg 2 2 0\n0 0\n", "line 2: trailing content '0 0'"),
    ("h3 1 1 1 1\n0 0 0\n# note\n\n0 0 0  # again\n",
     "line 5: trailing content '0 0 0'"),
    ("vp 3 2\n0 1 1\n1\n", "line 3: trailing content '1'"),
    ("tr 1 1 1\nbg 1 1 1\n0 0\nbg 1 1 0\nbg 1 1 0\nextra 7\n",
     "line 6: trailing content 'extra 7'"),
], ids=["bg", "h3", "vp", "tr"])
def test_trailing_content_reports_line(text, expected):
    load = {"bg": fileio.loads_graph, "h3": fileio.loads_threegraph,
            "vp": fileio.loads_partition, "tr": fileio.loads_triad}
    with pytest.raises(FormatError) as err:
        load[text[:2]](text)
    assert str(err.value) == expected


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


def test_partition_block_count_far_above_the_labels():
    """n labels cover at most n blocks, so the least missing block is found
    among the first n + 1, however many the header names."""
    with pytest.raises(FormatError) as err:
        fileio.loads_partition(f"vp 2 {10 ** 18}\n0 1\n")
    assert str(err.value) == "line 2: block 2 has no vertices"
    with pytest.raises(FormatError) as err:
        fileio.loads_partition("vp 3 5\n0 2 2\n")
    assert str(err.value) == "line 2: block 1 has no vertices"


# The writer before it read ``TwoPartition.graphs``, kept verbatim as the
# oracle for the property test below; it reads the drawn blocks.


def _ref_dumps_twopartition(tp: DrawnTwoPartition) -> str:
    clusters = [sorted(blk) for blk in tp.z.blocks]
    pos = [{v: i for i, v in enumerate(c)} for c in clusters]
    out = [fileio.dumps_partition(tp.z).rstrip("\n")]
    sections = []
    for eb in tp.e:
        i, j = eb.pair
        if i > j:
            i, j = j, i
            edges = sorted((pos[i][v], pos[j][u]) for u, v in eb.edges)
        else:
            edges = sorted((pos[i][u], pos[j][v]) for u, v in eb.edges)
        sections.append((i, j, edges))
    for i, j, edges in sorted(sections):
        out.append(f"pair {i} {j}")
        out.append(f"bg {len(clusters[i])} {len(clusters[j])} {len(edges)}")
        out.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(out) + "\n"


@given(framed_two_partitions())
def test_twopartition_writer_matches_the_per_block_writer(case):
    """Shuffled clusters, blocks stored either way round, 1-3 blocks per
    pair: the same bytes as the writer that oriented each block itself."""
    _, drawn, tp = case
    text = fileio.dumps_twopartition(tp)
    assert text == _ref_dumps_twopartition(drawn)
    assert fileio.dumps_twopartition(fileio.loads_twopartition(text)) == text


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


@pytest.mark.parametrize("text, message", [
    ("vp 4 2\n0 0 1 1\npair 0 1\nbg 2 2 3\n0 0\n0 1\n1 0\n",
     "line 7: invalid 2-partition: pair (0,1): 1 product edge(s) missing"),
    ("vp 4 2\n0 0 1 1\npair 0 1\nbg 2 2 4\n0 0\n0 1\n1 0\n1 1\n"
     "pair 1 0\nbg 2 2 1\n1 0\n",
     "line 11: invalid 2-partition: pair (0,1): duplicated edge "
     "(NotDisjoint)"),
    ("vp 5 3\n0 0 1 1 2\npair 0 1\nbg 2 2 2\n0 0\n0 1\npair 0 1\n"
     "bg 2 2 1\n0 0\npair 1 2\nbg 2 1 1\n0 0\n",
     "line 12: invalid 2-partition: pair (0,1): duplicated edge "
     "(NotDisjoint); pair (0,1): 2 product edge(s) missing; pair (0,2): 2 "
     "product edge(s) missing; pair (1,2): 1 product edge(s) missing"),
], ids=["missing", "duplicated", "every pair"])
def test_invalid_twopartition_message(text, message):
    """Every problem of every pair, in pair order, on the last line."""
    with pytest.raises(FormatError) as err:
        fileio.loads_twopartition(text)
    assert str(err.value) == message


# Clusters of sizes 2, 3 and 1; pair (0, 1) is cut into two blocks.
CANONICAL_TP = ("vp 6 3\n0 0 1 1 1 2\n"
                "pair 0 1\nbg 2 3 3\n0 0\n0 1\n1 2\n"
                "pair 0 1\nbg 2 3 3\n0 2\n1 0\n1 1\n"
                "pair 0 2\nbg 2 1 2\n0 0\n1 0\n"
                "pair 1 2\nbg 3 1 3\n0 0\n1 0\n2 0\n")


def test_reversed_pair_section_loads_as_its_canonical_twin():
    """A section written ``pair j i`` is the transpose of block (i, j): the
    same 2-partition as the canonical text, which it re-dumps to."""
    reversed_text = CANONICAL_TP.replace(
        "pair 0 1\nbg 2 3 3\n0 0\n0 1\n1 2\n",
        "pair 1 0\nbg 3 2 3\n0 0\n1 0\n2 1\n").replace(
        "pair 1 2\nbg 3 1 3\n0 0\n1 0\n2 0\n",
        "pair 2 1\nbg 1 3 3\n0 2\n0 0\n0 1\n")
    a = fileio.loads_twopartition(CANONICAL_TP)
    b = fileio.loads_twopartition(reversed_text)
    assert a == b and hash(a) == hash(b)
    assert fileio.dumps_twopartition(b) == CANONICAL_TP
    assert fileio.dumps_twopartition(a) == CANONICAL_TP


def test_path_round_trip(tmp_path):
    g = BipartiteGraph.complete(VertexClass(0, 2), VertexClass(1, 3))
    path = tmp_path / "g.bg"
    fileio.save_graph(path, g)
    assert fileio.load_graph(path) == g


# The per-line readers of bg sections and of h3 files as they were before
# plain sections were read in bulk, kept verbatim as the oracle for the
# property tests below.


def _ref_read_bg(lines: _Lines, left: VertexClass, right: VertexClass,
                 expect_sides: Optional[tuple[int, int]] = None
                 ) -> BipartiteGraph:
    (nl, nr, m), ln = _header(lines, "bg", 2, 1)
    if expect_sides is not None and (nl, nr) != expect_sides:
        raise FormatError(
            f"bg sides {nl}x{nr} do not match expected "
            f"{expect_sides[0]}x{expect_sides[1]}", ln)
    if (left.size, right.size) != (nl, nr):
        left = VertexClass(left.id, nl)
        right = VertexClass(right.id, nr)
    edges = []
    seen = set()
    for _ in range(m):
        fields, eln = lines.next_fields()
        a, b = _ints(fields, eln, 2, "edge")
        if not (0 <= a < nl and 0 <= b < nr):
            raise FormatError(f"edge ({a},{b}) out of range "
                              f"{nl}x{nr}", eln)
        if (a, b) in seen:
            raise FormatError(f"duplicate edge ({a},{b})", eln)
        seen.add((a, b))
        edges.append((a, b))
    return BipartiteGraph(left, right, edges)


# The reader of bg sections before narrow ones were read by one lookup per
# line: plain sections by columns, the rest line by line.  Kept verbatim as
# the second oracle of test_line_table_reader_matches_both_oracles.


def _ref_bulk_read_bg(lines: _Lines, left: VertexClass, right: VertexClass,
                      expect_sides: Optional[tuple[int, int]] = None
                      ) -> BipartiteGraph:
    (nl, nr, m), ln = _header(lines, "bg", 2, 1)
    if expect_sides is not None and (nl, nr) != expect_sides:
        raise FormatError(
            f"bg sides {nl}x{nr} do not match expected "
            f"{expect_sides[0]}x{expect_sides[1]}", ln)
    if (left.size, right.size) != (nl, nr):
        left = VertexClass(left.id, nl)
        right = VertexClass(right.id, nr)
    cols = _bulk_columns(lines, m, (nl, nr))
    if cols is not None:
        rows = [0] * nl
        bits = _bits(nr)
        for a, b in zip(*cols):
            rows[a] |= bits[b]
        if sum(map(int.bit_count, rows)) == m:  # m distinct rows
            lines.pos += m
            return BipartiteGraph.from_rows(left, right, rows)
    edges = []
    seen = set()
    for _ in range(m):
        fields, eln = lines.next_fields()
        a, b = _ints(fields, eln, 2, "edge")
        if not (0 <= a < nl and 0 <= b < nr):
            raise FormatError(f"edge ({a},{b}) out of range "
                              f"{nl}x{nr}", eln)
        if (a, b) in seen:
            raise FormatError(f"duplicate edge ({a},{b})", eln)
        seen.add((a, b))
        edges.append((a, b))
    return BipartiteGraph(left, right, edges)


def _ref_loads_threegraph(text: str) -> ThreeGraph:
    lines = _Lines(text)
    (n1, n2, n3, m), ln = _header(lines, "h3", 3, 1)
    classes = (VertexClass(0, n1), VertexClass(1, n2), VertexClass(2, n3))
    triples = set()
    for _ in range(m):
        fields, tln = lines.next_fields()
        v1, v2, v3 = _ints(fields, tln, 3, "triple")
        if not (0 <= v1 < n1 and 0 <= v2 < n2 and 0 <= v3 < n3):
            raise FormatError(f"triple ({v1},{v2},{v3}) out of range", tln)
        if (v1, v2, v3) in triples:
            raise FormatError(f"duplicate triple ({v1},{v2},{v3})", tln)
        triples.add((v1, v2, v3))
    if not lines.at_end():
        fields, ln = lines.next_fields()
        raise FormatError(f"trailing content {' '.join(fields)!r}", ln)
    return ThreeGraph(classes, frozenset(triples))


LOADS = {"bg": fileio.loads_graph, "h3": fileio.loads_threegraph,
         "tr": fileio.loads_triad, "tp": fileio.loads_twopartition}
DUMPS = {"bg": fileio.dumps_graph, "h3": fileio.dumps_threegraph,
         "tr": fileio.dumps_triad, "tp": fileio.dumps_twopartition}


def _ref_loads(fmt: str, text: str, read_bg=_ref_read_bg):
    if fmt == "h3":
        return _ref_loads_threegraph(text)
    with mock.patch.object(fileio, "_read_bg", read_bg):
        return LOADS[fmt](text)


def _key(obj):
    """Everything a loaded object holds; graphs with their masks."""
    if isinstance(obj, BipartiteGraph):
        return obj.left, obj.right, obj.edges, obj.rows, obj.cols, hash(obj)
    if isinstance(obj, Triad):
        return tuple(map(_key, (obj.ab, obj.ac, obj.bc))), obj.embedding
    return obj


def _outcome(load, text: str):
    try:
        obj = load(text)
    except FormatError as err:
        return "error", str(err), err.line
    return "ok", _key(obj)


@st.composite
def _graphs(draw, left: VertexClass, right: VertexClass) -> BipartiteGraph:
    return BipartiteGraph(left, right, draw(st.sets(st.tuples(
        st.integers(0, left.size - 1), st.integers(0, right.size - 1)))))


def _classes(draw, k: int, most: int) -> list[VertexClass]:
    return [VertexClass(i, draw(st.integers(1, most))) for i in range(k)]


@st.composite
def _two_partitions(draw) -> TwoPartition:
    """A random vertex partition, the product of every cluster pair cut into
    1-2 blocks (possibly empty), each stored in either orientation."""
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    z = VertexPartition.from_labels(VertexClass(0, n), labels)
    blocks = []
    for i, j in itertools.combinations(range(z.order), 2):
        product = sorted((u, v) for u in z.blocks[i] for v in z.blocks[j])
        k = draw(st.integers(1, 2))
        owner = draw(st.lists(st.integers(0, k - 1), min_size=len(product),
                              max_size=len(product)))
        for b in range(k):
            edges = frozenset(e for e, o in zip(product, owner) if o == b)
            if draw(st.booleans()):
                blocks.append(EdgeBlock((j, i), frozenset(
                    (v, u) for u, v in edges)))
            else:
                blocks.append(EdgeBlock((i, j), edges))
    return two_partition(DrawnTwoPartition(z, tuple(blocks)))


@st.composite
def valid_texts(draw) -> tuple[str, str]:
    """A format and a canonical text of a random object of that format;
    bg sides reach 12, so that a value such as ``1_0`` can be in range."""
    fmt = draw(st.sampled_from(sorted(LOADS)))
    if fmt == "bg":
        left, right = _classes(draw, 2, 12)
        obj = draw(_graphs(left, right))
    elif fmt == "h3":
        classes = tuple(_classes(draw, 3, 4))
        obj = ThreeGraph(classes, frozenset(draw(st.sets(st.tuples(
            *(st.integers(0, c.size - 1) for c in classes))))))
    elif fmt == "tr":
        a, b, c = _classes(draw, 3, 5)
        obj = Triad(draw(_graphs(a, b)), draw(_graphs(a, c)),
                    draw(_graphs(b, c)))
    else:
        obj = draw(_two_partitions())
    return fmt, DUMPS[fmt](obj)


def _row_lines(text: str) -> dict[int, tuple[int, ...]]:
    """Index of every edge or triple line of a canonical text -> the sizes
    its columns must stay below."""
    rows = {}
    lines = text.splitlines()
    for k, line in enumerate(lines):
        tag, *nums = line.split() or [""]
        if tag in ("bg", "h3"):
            *sizes, m = map(int, nums)
            rows.update((k + 1 + r, tuple(sizes)) for r in range(m))
    return rows


@given(valid_texts(), st.randoms(use_true_random=False))
def test_reader_matches_the_per_line_reader(case, rng):
    """A canonical text, with some rows swapped within their sections,
    reads as the per-line reader reads it and re-dumps canonically."""
    fmt, text = case
    lines = text.splitlines()
    rows = _row_lines(text)
    for k in rows:
        if k - 1 in rows and rng.random() < 0.5:
            lines[k - 1], lines[k] = lines[k], lines[k - 1]
    shuffled = "\n".join(lines) + "\n"
    got = LOADS[fmt](shuffled)
    assert _key(got) == _key(_ref_loads(fmt, shuffled))
    assert DUMPS[fmt](got) == text


# One-line corruptions of a row line -> whether the file stays valid (None
# when that depends on the row).
CORRUPTIONS = {
    "comment line": True, "blank line": True, "trailing comment": True,
    "tab": True, "extra spaces": True, "plus sign": True,
    "leading zero": True, "underscore": None, "field missing": False,
    "field extra": False,
    "bad integer": False, "negative": False, "out of range": False,
    "duplicate": False, "line dropped": False, "file cut": False}


def _corrupt(lines: list[str], k: int, sizes: tuple[int, ...], how: str,
             col: int) -> list[str]:
    out = list(lines)
    row = lines[k].split(" ")
    tokens = {"plus sign": "+" + row[col], "leading zero": "0" + row[col],
              "underscore": "1_0",
              "bad integer": "x", "negative": "-1",
              "out of range": str(sizes[col])}
    if how in tokens:
        row[col] = tokens[how]
        out[k] = " ".join(row)
    elif how == "field missing":
        out[k] = " ".join(row[:col] + row[col + 1:])
    elif how == "field extra":
        out[k] = " ".join(row[:col] + ["0"] + row[col:])
    elif how == "comment line":
        out.insert(k, "# a comment")
    elif how == "blank line":
        out.insert(k, "")
    elif how == "trailing comment":
        out[k] += "  # a comment"
    elif how == "tab":
        out[k] = "\t".join(row)
    elif how == "extra spaces":
        out[k] = " " + "  ".join(row) + " "
    elif how == "duplicate":
        out[k] = lines[k - 1]
    elif how == "line dropped":
        del out[k]
    else:  # file cut
        del out[k:]
    return out


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@given(case=valid_texts(), data=st.data())
def test_corrupted_row_gives_the_per_line_outcome(how, case, data):
    """The same object, or the same FormatError message and line, as the
    per-line reader."""
    fmt, text = case
    rows = _row_lines(text)
    if how == "duplicate":
        rows = {k: s for k, s in rows.items() if k - 1 in rows}
    assume(rows)
    k = data.draw(st.sampled_from(sorted(rows)))
    col = data.draw(st.integers(0, len(rows[k]) - 1))
    lines = _corrupt(text.splitlines(), k, rows[k], how, col)
    bad = "\n".join(lines) + "\n"
    got = _outcome(LOADS[fmt], bad)
    assert got == _outcome(lambda t: _ref_loads(fmt, t), bad)
    if CORRUPTIONS[how] is not None:
        assert (got[0] == "ok") == CORRUPTIONS[how], got


def _width(sizes: tuple[int, ...]) -> int:
    """The least power of two >= 8 and every size."""
    w = 8
    while w < max(sizes):
        w <<= 1
    return w


def _tp_text(rng, sizes: list[int]) -> str:
    """A 2-partition with clusters of the given sizes, labels shuffled, the
    product of every cluster pair cut into two blocks (possibly empty),
    each written as ``pair i j`` or transposed as ``pair j i``."""
    labels = [i for i, n in enumerate(sizes) for _ in range(n)]
    rng.shuffle(labels)
    out = [f"vp {len(labels)} {len(sizes)}", " ".join(map(str, labels))]
    for i, j in itertools.combinations(range(len(sizes)), 2):
        owner = {(a, b): rng.randrange(2)
                 for a in range(sizes[i]) for b in range(sizes[j])}
        for block in range(2):
            edges = sorted(e for e, o in owner.items() if o == block)
            pair, sides = (i, j), (sizes[i], sizes[j])
            if rng.random() < 0.5:
                pair, sides = (j, i), (sizes[j], sizes[i])
                edges = sorted((b, a) for a, b in edges)
            out.append("pair %d %d" % pair)
            out.append("bg %d %d %d" % (*sides, len(edges)))
            out.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(out) + "\n"


# Mutations of a drawn text besides CORRUPTIONS: a value in [size, W], found
# below W by the table of width W but out of range, and a section count
# one above (a short section) or below its rows.
WIDE_MUTATIONS = sorted(CORRUPTIONS) + [
    "none", "below width", "count up", "count down"]


@st.composite
def wide_texts(draw) -> tuple[str, str]:
    """A bg, tr or tp text whose bg sections have sides 1-70, so widths on
    both sides of the line table's cap are drawn; each section's rows
    sorted, shuffled or reversed, then perhaps one mutation."""
    fmt = draw(st.sampled_from(["bg", "tp", "tr"]))
    # A seeded generator, not st.randoms: hypothesis would record each of
    # the thousands of draws that a 70x70 section takes.
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    side = st.integers(1, 70)
    p = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    if fmt == "bg":
        text = fileio.dumps_graph(_random_graph(
            rng, VertexClass(0, draw(side)), VertexClass(1, draw(side)), p))
    elif fmt == "tr":
        a, b, c = (VertexClass(i, draw(side)) for i in range(3))
        text = fileio.dumps_triad(Triad(
            _random_graph(rng, a, b, p), _random_graph(rng, a, c, p),
            _random_graph(rng, b, c, p)))
    else:
        text = _tp_text(rng, [draw(side) for _ in range(draw(
            st.integers(1, 3)))])
    lines = text.splitlines()
    rows = _row_lines(text)
    order = draw(st.sampled_from(["sorted", "shuffled", "reversed"]))
    for k, line in enumerate(lines):
        if line.startswith("bg ") and order != "sorted":
            section = lines[k + 1:k + 1 + int(line.split()[3])]
            if order == "shuffled":
                rng.shuffle(section)
            else:
                section.reverse()
            lines[k + 1:k + 1 + len(section)] = section
    how = draw(st.sampled_from(WIDE_MUTATIONS))
    if how == "duplicate":
        rows = {k: s for k, s in rows.items() if k - 1 in rows}
    headers = [k for k, line in enumerate(lines) if line.startswith("bg ")]
    if how in ("count up", "count down") and headers:
        k = rng.choice(headers)
        _, nl, nr, m = lines[k].split()
        lines[k] = f"bg {nl} {nr} {int(m) + (1 if how == 'count up' else -1)}"
    elif how not in ("none", "count up", "count down") and rows:
        k = rng.choice(sorted(rows))
        col = rng.randrange(2)
        sizes = rows[k]
        if how == "below width":
            row = lines[k].split(" ")
            row[col] = str(rng.randrange(sizes[col], _width(sizes) + 1))
            lines[k] = " ".join(row)
        else:
            lines = _corrupt(lines, k, sizes, how, col)
    return fmt, "\n".join(lines) + "\n"


@example(case=("bg", "bg 3 5 1\n0 6\n"))  # a value in [nr, W)
@example(case=("bg", "bg 3 5 1\n4 0\n"))  # a row in [nl, W)
@example(case=("bg", "bg 3 5 2\n0 1\n0 1\n"))  # a repeated line
@example(case=("bg", "bg 3 5 3\n0 1\n1 1\n"))  # a short section
# a section whose one row is the next section's header
@example(case=("tr", "tr 1 1 1\nbg 1 1 1\nbg 1 1 0\nbg 1 1 0\n"))
@given(case=wide_texts())
def test_line_table_reader_matches_both_oracles(case):
    """The same object, or the same FormatError message and line, as the
    per-line reader and as the column reader that came before."""
    fmt, text = case
    got = _outcome(LOADS[fmt], text)
    assert got == _outcome(lambda t: _ref_loads(fmt, t), text)
    assert got == _outcome(
        lambda t: _ref_loads(fmt, t, _ref_bulk_read_bg), text)
