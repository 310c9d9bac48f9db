"""Line-oriented file formats with canonical (sorted, deterministic) output.

Formats (``#`` starts a comment, blank lines ignored):

* ``.bg``   bipartite graph: ``bg <nLeft> <nRight> <m>`` then m lines ``l r``
* ``.h3``   3-graph: ``h3 <n1> <n2> <n3> <m>`` then m lines ``v1 v2 v3``
* ``.vp``   vertex partition: ``vp <n> <k>`` then one line of n labels
* ``.tr``   triad: ``tr <nA> <nB> <nC>`` then three inline bg sections
            (AB, AC, BC)
* ``.tp``   2-partition: a vp section, then per edge block a line
            ``pair <i> <j>`` followed by a bg section whose sides are the
            cluster sizes; edge endpoints are local indices into the
            sorted vertex lists of the two clusters.  The section is the
            block as ``TwoPartition`` stores it; one written ``pair j i``
            (j > i) is read as its transpose, block (i, j)

Every size in a header (the class, side and ground sizes) is at least 1
and every count (edges, triples, blocks) at least 0; a header that breaks
this is a FormatError naming its line.

Loading then saving yields the canonical form (edges sorted
lexicographically); saving a loaded canonical file is byte-identical.

A bg or h3 section whose lines are all plain rows (digits joined by single
spaces, as the writers emit them) with no repeated row is read in bulk into
row masks, an h3 section into those of its axis-3 auxiliary graph.  A bg
section of width W <= ``_LINE_TABLE_MAX_WIDTH`` (64), W being the least
power of two that is at least 8 and at least both sides, takes one lookup
per line in a table of the canonical lines ``"a b"`` with a, b < W, which
scatters the line into a bit buffer.  Wider bg sections and every h3
section are read by columns: each value is looked up in a table of the
canonical numerals below its column's size, built once per size.  A miss (a
value out of range, or a line such as ``0 07`` that the writers never emit)
sends the section to the per-line reader.  So does a side above
``_TABLE_MAX_SIDE``.  Every such section, however well-formed, is read line
by line with the same result, and every FormatError, message and line
number, comes from that per-line reader.
"""
from __future__ import annotations

import re
from collections import deque
from functools import cache
from itertools import repeat
from typing import Optional, Sequence

from .errors import DegenerateInput, FormatError
from .graphs import BipartiteGraph, ThreeGraph, VertexClass
from .partitions import TwoPartition, VertexPartition


class _Lines:
    """Token-line reader that tracks line numbers for error messages."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_fields(self) -> tuple[list[str], int]:
        while self.pos < len(self.raw):
            self.pos += 1
            line = self.raw[self.pos - 1]
            body = line.split("#", 1)[0].strip()
            if body:
                return body.split(), self.pos
        raise FormatError("unexpected end of file", len(self.raw))

    def at_end(self) -> bool:
        save = self.pos
        try:
            self.next_fields()
        except FormatError:
            return True
        self.pos = save
        return False


def _expect_end(lines: _Lines) -> None:
    """FormatError at the first content line left after a record."""
    if not lines.at_end():
        fields, ln = lines.next_fields()
        raise FormatError(f"trailing content {' '.join(fields)!r}", ln)


def _ints(fields: Sequence[str], line: int, expect: int,
          what: str) -> list[int]:
    if len(fields) != expect:
        raise FormatError(
            f"{what}: expected {expect} fields, got {len(fields)}", line)
    out = []
    for f in fields:
        try:
            out.append(int(f))
        except ValueError:
            raise FormatError(f"{what}: bad integer {f!r}", line) from None
    return out


# A section of rows in the canonical layout: each line is ``width`` runs of
# ASCII digits joined by single spaces, nothing else.
_PLAIN_ROWS = {width: re.compile(
    "(?:" + " ".join(["[0-9]+"] * width) + "\n)*") for width in (2, 3)}


# Sections with a larger side are read line by line: the tables below grow
# with the side, the table of bits with its square.
_TABLE_MAX_SIDE = 1024


@cache
def _numerals(n: int) -> dict[str, int]:
    """The canonical numeral of each value below n -> that value."""
    return {str(i): i for i in range(n)}


@cache
def _bits(n: int) -> tuple[int, ...]:
    return tuple(1 << b for b in range(n))


def _bulk_columns(lines: _Lines, m: int, sizes: tuple[int, ...]
                  ) -> Optional[list[list[int]]]:
    """The next m lines as columns, column k below ``sizes[k]``, or None;
    ``lines.pos`` is unchanged, and the caller skips the lines only if
    they are m distinct rows (not so for a repeat or a short file).

    Only plain rows are accepted (see ``_PLAIN_ROWS``), and on these the
    per-line reader returns the same rows.  Each value is looked up in the
    table of canonical numerals below its size, so anything else (a
    comment, a blank line, other whitespace, a sign, a wrong field count,
    a value out of range, a leading zero) gives None, the per-line reader
    reads the section and every FormatError is its own.
    """
    if max(sizes) > _TABLE_MAX_SIDE:
        return None
    text = "\n".join(lines.raw[lines.pos:lines.pos + m]) + "\n"
    width = len(sizes)
    if not _PLAIN_ROWS[width].fullmatch(text):
        return None
    # Tables are built before the tokens exist, so that no long-lived key
    # lands between short-lived tokens and keeps their memory in use.
    tables = [_numerals(n).__getitem__ for n in sizes]
    tokens = text.split()
    try:
        return [list(map(tables[k], tokens[k::width]))
                for k in range(width)]
    except KeyError:
        return None


# Narrower bg sections are read by one lookup per line in ``_cells``; its
# W*W keys take about 110 bytes each, 0.45 MB at W = 64 but about 110 MB
# at W = 1024, so wider sections are read by columns.
_LINE_TABLE_MAX_WIDTH = 64

# A buffer of 0/1 bytes as the ASCII binary digits that ``int(_, 2)`` reads.
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


@cache
def _cells(w: int) -> dict[str, int]:
    """The canonical line ``"a b"`` of each a, b < w -> a*w + b."""
    numerals = [str(i) for i in range(w)]
    prefixes = [p + " " for p in numerals]
    return dict(zip([p + q for p in prefixes for q in numerals],
                    range(w * w)))


def _bulk_rows(lines: _Lines, m: int, nl: int, nr: int
               ) -> Optional[list[int]]:
    """The row masks of the next m lines if they are m distinct plain rows
    in range, else None; ``lines.pos`` is unchanged.

    Up to width W = ``_LINE_TABLE_MAX_WIDTH`` each line is looked up in
    ``_cells(W)`` and its cell of an nl x W byte buffer is set.  The section
    is declined on a miss (not a plain row, or a value >= W), an IndexError
    (a row a >= nl), fewer set cells than lines (a repeated row or a short
    file) or a row mask of 2^nr or more (a value b >= nr): exactly the
    sections that the column read of wider ones declines, so neither reader
    needs the other.  Reversed, the buffer holds the bits of row a, highest
    first, from (nl - 1 - a) * W on, as ``int(_, 2)`` reads them.
    """
    w = 8
    while w < nl or w < nr:
        w <<= 1
    if w > _LINE_TABLE_MAX_WIDTH:
        cols = _bulk_columns(lines, m, (nl, nr))
        if cols is None:
            return None
        rows = [0] * nl
        bits = _bits(nr)
        for a, b in zip(*cols):
            rows[a] |= bits[b]
        return rows if sum(map(int.bit_count, rows)) == m else None
    buf = bytearray(nl * w)
    cells = map(_cells(w).__getitem__, lines.raw[lines.pos:lines.pos + m])
    try:
        deque(map(buf.__setitem__, cells, repeat(1)), maxlen=0)
    except (KeyError, IndexError):
        return None
    if buf.count(1) != m:
        return None
    digits = buf.translate(_BINARY_DIGITS)[::-1]
    rows = [int(digits[k:k + w], 2) for k in range((nl - 1) * w, -1, -w)]
    return rows if max(rows) >> nr == 0 else None


def _header(lines: _Lines, tag: str, sizes: int, counts: int
            ) -> tuple[list[int], int]:
    """A ``tag`` line of ``sizes`` sizes (>= 1) and then ``counts`` counts
    (>= 0)."""
    fields, ln = lines.next_fields()
    if fields[0] != tag:
        raise FormatError(f"expected {tag!r} header, got {fields[0]!r}", ln)
    values = _ints(fields[1:], ln, sizes + counts, f"{tag} header")
    for k, v in enumerate(values):
        if k < sizes and v < 1:
            raise FormatError(f"{tag} header: size {v} is below 1", ln)
        if v < 0:
            raise FormatError(f"{tag} header: count {v} is negative", ln)
    return values, ln


def _read_bg(lines: _Lines, left: VertexClass, right: VertexClass,
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
    rows = _bulk_rows(lines, m, nl, nr)
    if rows is not None:
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


def loads_graph(text: str) -> BipartiteGraph:
    lines = _Lines(text)
    g = _read_bg(lines, VertexClass(0, 1), VertexClass(1, 1))
    _expect_end(lines)
    return g


def dumps_graph(g: BipartiteGraph) -> str:
    out = [f"bg {g.left.size} {g.right.size} {g.edge_count}"]
    out.extend(f"{a} {b}" for a, b in g.sorted_edges())
    return "\n".join(out) + "\n"


def loads_threegraph(text: str) -> ThreeGraph:
    lines = _Lines(text)
    (n1, n2, n3, m), ln = _header(lines, "h3", 3, 1)
    classes = (VertexClass(0, n1), VertexClass(1, n2), VertexClass(2, n3))
    cols = _bulk_columns(lines, m, (n1, n2, n3))
    h = None if cols is None else ThreeGraph(classes, zip(*cols))
    if h is not None and h.edge_count == m:  # m distinct rows
        lines.pos += m
    else:
        triples = set()
        for _ in range(m):
            fields, tln = lines.next_fields()
            v1, v2, v3 = _ints(fields, tln, 3, "triple")
            if not (0 <= v1 < n1 and 0 <= v2 < n2 and 0 <= v3 < n3):
                raise FormatError(f"triple ({v1},{v2},{v3}) out of range",
                                  tln)
            if (v1, v2, v3) in triples:
                raise FormatError(f"duplicate triple ({v1},{v2},{v3})", tln)
            triples.add((v1, v2, v3))
        h = ThreeGraph(classes, triples)
    _expect_end(lines)
    return h


def dumps_threegraph(h: ThreeGraph) -> str:
    n1, n2, n3 = (c.size for c in h.classes)
    out = [f"h3 {n1} {n2} {n3} {h.edge_count}"]
    out.extend(f"{a} {b} {c}" for a, b, c in h.sorted_triples())
    return "\n".join(out) + "\n"


def _read_vp(lines: _Lines) -> VertexPartition:
    (n, k), ln = _header(lines, "vp", 1, 1)
    fields, lln = lines.next_fields()
    labels = _ints(fields, lln, n, "label line")
    for lab in labels:
        if not 0 <= lab < k:
            raise FormatError(f"label {lab} outside 0..{k - 1}", lln)
    # n labels cover at most n blocks, so the least missing one is <= n.
    missing = set(range(min(k, n + 1))) - set(labels)
    if missing:
        raise FormatError(f"block {min(missing)} has no vertices", lln)
    return VertexPartition.from_labels(VertexClass(0, n), labels)


def loads_partition(text: str) -> VertexPartition:
    lines = _Lines(text)
    p = _read_vp(lines)
    _expect_end(lines)
    return p


def dumps_partition(p: VertexPartition) -> str:
    return (f"vp {p.ground.size} {p.order}\n"
            + " ".join(str(lab) for lab in p.labels()) + "\n")


def loads_triad(text: str):
    from .graphs import Triad
    lines = _Lines(text)
    (na, nb, nc), ln = _header(lines, "tr", 3, 0)
    a = VertexClass(0, na)
    b = VertexClass(1, nb)
    c = VertexClass(2, nc)
    ab = _read_bg(lines, a, b, (na, nb))
    ac = _read_bg(lines, a, c, (na, nc))
    bc = _read_bg(lines, b, c, (nb, nc))
    _expect_end(lines)
    return Triad(ab, ac, bc)


def dumps_triad(t) -> str:
    na, nb, nc = t.sizes
    return (f"tr {na} {nb} {nc}\n"
            + dumps_graph(t.ab) + dumps_graph(t.ac) + dumps_graph(t.bc))


def loads_twopartition(text: str) -> TwoPartition:
    lines = _Lines(text)
    z = _read_vp(lines)
    sizes = [len(blk) for blk in z.blocks]
    blocks = []
    while not lines.at_end():
        fields, ln = lines.next_fields()
        if fields[0] != "pair":
            raise FormatError(f"expected 'pair' header, got {fields[0]!r}",
                              ln)
        i, j = _ints(fields[1:], ln, 2, "pair header")
        if not (0 <= i < z.order and 0 <= j < z.order) or i == j:
            raise FormatError(f"bad cluster pair ({i},{j})", ln)
        g = _read_bg(lines, VertexClass(i, sizes[i]),
                     VertexClass(j, sizes[j]), (sizes[i], sizes[j]))
        blocks.append((i, j, g) if i < j else (j, i, g.transpose()))
    try:
        return TwoPartition(z, tuple(blocks))
    except DegenerateInput as err:
        raise FormatError(f"invalid 2-partition: {err}",
                          len(lines.raw)) from None


def dumps_twopartition(tp: TwoPartition) -> str:
    out = [dumps_partition(tp.z).rstrip("\n")]
    for i, j, edges in sorted((i, j, g.sorted_edges())
                              for (i, j, _), g in tp.graphs.items()):
        out.append(f"pair {i} {j}")
        out.append(f"bg {len(tp.z.blocks[i])} {len(tp.z.blocks[j])} "
                   f"{len(edges)}")
        out.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(out) + "\n"


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_graph(path) -> BipartiteGraph:
    return loads_graph(_read_text(path))


def save_graph(path, g: BipartiteGraph) -> None:
    _write_text(path, dumps_graph(g))


def load_threegraph(path) -> ThreeGraph:
    return loads_threegraph(_read_text(path))


def save_threegraph(path, h: ThreeGraph) -> None:
    _write_text(path, dumps_threegraph(h))


def load_partition(path) -> VertexPartition:
    return loads_partition(_read_text(path))


def save_partition(path, p: VertexPartition) -> None:
    _write_text(path, dumps_partition(p))


def load_triad(path):
    return loads_triad(_read_text(path))


def save_triad(path, t) -> None:
    _write_text(path, dumps_triad(t))


def load_twopartition(path) -> TwoPartition:
    return loads_twopartition(_read_text(path))


def save_twopartition(path, tp: TwoPartition) -> None:
    _write_text(path, dumps_twopartition(tp))
