"""Immutable graphs in compressed adjacency form, plus text I/O.

Graphs are stored as CSR-style arrays (``indptr``/``indices``) with an
optional parallel integer weight array.  Undirected graphs keep both arcs
of every edge so that a single traversal code path serves both kinds; the
logical edge count ``m`` counts each undirected edge once.

Every graph is built by one array core: :func:`build_graph` puts an edge
array through the range, weight and 2^53 checks and symmetrization as
whole-array operations, and :meth:`Graph.reverse` flips a checked graph's
arcs; both end in one np.sort of arc keys, with the weights packed in
their low bits, and deduplication.  Both text formats share one array
reader into build_graph.  Each finds its header line by line; the reader
then drops the body's comment lines (``#`` in an edge list, ``c`` in
DIMACS) and checks the layout of the whole body with bytes methods.
When every line is the format's record tag (none for an edge list, ``a``
for a DIMACS arc) and then one row of plain decimal integers, parted by
blanks and tabs, the tags are stripped and a single ``np.fromstring`` scan
reads the rows as an int64 array (a body in any spacing but the writer's
is first brought to it with bytes replaces); 1-indexed DIMACS endpoints
are then shifted down.  Any other body (signs, decimal weights, an
endpoint out of range, a bad line) is read line by line by the format's
own reader, whose tokens are those of Python's ``int`` and ``Decimal``;
it gives the same graph or names the first bad line.  Full weighted
searches then run scipy's Dijkstra (see :mod:`diamest.search`), so no
per-edge Python loop runs between reading a clean file and its first full
search.

All arrays are made read-only after construction, so a Graph can be shared
freely between concurrent searches.  The reverse graph and the scipy
matrix view are built lazily and cached; rebuilding them is idempotent, so
a racing first access is harmless.
"""
from __future__ import annotations

import math
import re
import weakref
from decimal import Decimal, InvalidOperation

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

# Reserved distance for unreachable vertices.  Never participates in
# depth/maximum computations.
UNREACHED = np.iinfo(np.int64).max

# Edges formatted per block by write_edge_list.
_WRITE_ROWS = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max
# a parsed weight is built exactly up to this many digits, the most that
# Python prints of an int by default; a longer one, over 2^53 all the same,
# is read as 10^_WEIGHT_DIGITS and named by its length
_WEIGHT_DIGITS = 4300
# the line breaks of str.splitlines, which numbers the lines of a text
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile(f"\r\n|[{_BREAKS}]")
# a comment line of a body, "#" for edge lists and "c" for DIMACS, with
# the break before it; the body is matched with a "\n" put before its first
# line, so the pattern starts with a literal the regex engine skips to.  A
# comment ends at the first line break, which must be a "\n"
_NOTE = {mark: re.compile(f"\n[ \t]*{mark}[^{_BREAKS}]*\r?(?=\n|\\Z)")
         for mark in "#c"}
# digits deleted and tabs made blanks, a table leaves only its separators
_TAB_TO_BLANK = bytes.maketrans(b"\t", b" ")
# tabs made blanks and every ASCII line break a "\n"
_ASCII_BREAKS = _BREAKS.encode("ascii", "ignore")
_SPACING = bytes.maketrans(b"\t" + _ASCII_BREAKS,
                           b" " + b"\n" * len(_ASCII_BREAKS))


class GraphError(ValueError):
    """Invalid graph construction or use."""


class GraphParseError(GraphError):
    """Malformed graph text; message carries the offending line number."""


class InfiniteDiameterError(GraphError):
    """Raised where an operation requires a finite diameter and the graph
    is not (strongly) connected."""


class Graph:
    """Immutable directed or undirected graph.

    Vertex ids are 0..n-1.  Adjacency rows are sorted ascending, self
    loops are dropped and parallel edges are collapsed (minimum weight
    wins).  Use :func:`build_graph` or the parsers to construct one.
    """

    __slots__ = ("n", "directed", "indptr", "indices", "weights", "_rev", "_mat",
                 "__weakref__")

    def __init__(self, n, directed, indptr, indices, weights=None):
        self.n = int(n)
        self.directed = bool(directed)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        for a in (indptr, indices, weights):
            if a is not None:
                a.setflags(write=False)
        self._rev = None
        self._mat = None

    # ---- basic views ------------------------------------------------------

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    @property
    def arc_count(self) -> int:
        """Number of stored arcs (undirected edges count twice)."""
        return int(self.indices.size)

    @property
    def m(self) -> int:
        """Logical edge count: each undirected edge counted once."""
        return self.arc_count if self.directed else self.arc_count // 2

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def max_weight(self) -> int:
        """Largest edge weight (1 for unweighted graphs with edges)."""
        if self.arc_count == 0:
            return 0
        if self.weights is None:
            return 1
        return int(self.weights.max())

    # ---- derived graphs ---------------------------------------------------

    def reverse(self) -> "Graph":
        """Graph with every arc flipped; undirected graphs are fixed points.

        Built on first demand and cached; also serves as the in-adjacency
        view.  reverse(reverse(g)) is g itself.
        """
        if not self.directed:
            return self
        rev = self._rev
        if isinstance(rev, weakref.ref):
            rev = rev()
        if rev is None:
            arc_src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            rev = _arcs_graph(self.n, True, (self.indices,), (arc_src,), self.weights)
            # a weak way back: a reference cycle would keep both graphs'
            # arrays alive until the cyclic garbage collector ran
            rev._rev = weakref.ref(self)
            self._rev = rev
        return rev

    def scipy_matrix(self) -> csr_matrix:
        """Adjacency as a scipy CSR (float64 weights, 1.0 when unweighted)."""
        if self._mat is None:
            data = (np.ones(self.arc_count, dtype=np.float64) if self.weights is None
                    else self.weights.astype(np.float64))
            self._mat = csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))
        return self._mat

    # ---- equality / repr --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.directed != other.directed:
            return False
        if self.weighted != other.weighted:
            return False
        same = (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))
        if same and self.weighted:
            same = np.array_equal(self.weights, other.weights)
        return same

    __hash__ = None

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        w = ", weighted" if self.weighted else ""
        return f"Graph(n={self.n}, m={self.m}, {kind}{w})"


def _edge_array(edges):
    """(m, 2) or (m, 3) array of the edges: int64 where every value fits,
    else Python ints in an object array, so that the checks see them."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        arity = set(map(len, edges))
        if len(arity) > 1 and 3 in arity:
            raise GraphError("cannot mix weighted and unweighted edges")
        if not arity <= {2, 3}:
            raise GraphError("edges must be (u, v) or (u, v, weight)")
        width = arity.pop() if arity else 2
        try:
            edges = np.array(edges, dtype=np.int64).reshape(-1, width)
        except OverflowError:
            edges = np.array(edges, dtype=object).reshape(-1, width)
    if edges.ndim != 2 or edges.shape[1] not in (2, 3) or edges.dtype.kind not in "iuO":
        raise GraphError(f"edge array must be (m, 2) or (m, 3) integers, "
                         f"got shape {edges.shape} of {edges.dtype}")
    return edges


def build_graph(n, edges, directed=False) -> Graph:
    """Build a canonical Graph from an edge list.

    ``edges`` is an (m, 2) or (m, 3) integer array, or an iterable of
    (u, v) or (u, v, weight) tuples; mixing the two tuple forms is
    rejected.  n may be at most isqrt(2^63 - 1); endpoints must lie in
    [0, n); weights must be nonnegative integers, and no path may be
    longer than 2^53, that is (n - 1) * max weight <= 2^53.  Self loops
    are dropped, duplicates collapse to the minimum weight, and
    undirected input is symmetrized.  A graph left without arcs is
    unweighted.  An error names the first offending edge in input order.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    # arcs are sorted by the key src * n + dst, which must fit in int64
    if n > (limit := math.isqrt(2 ** 63 - 1)):
        raise GraphError(f"vertex count {n} exceeds the limit of {limit}")
    edges = _edge_array(edges)
    u, v = edges[:, 0], edges[:, 1]
    loop = u == v
    # reductions clear almost every input (the minimum over every column
    # also catches a negative weight); the per-edge mask that names the
    # first offending edge is built only when one of them fails.  Endpoint
    # maxima run per column: numpy reduces the strided view edges[:, :2]
    # of a weighted array about 15 times slower
    if len(edges) and (edges.min() < 0 or max(u.max(), v.max()) >= n):
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if edges.shape[1] == 3:
            bad |= (edges[:, 2] < 0) & ~loop
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(u[i]), int(v[i])
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) out of range for n={n}")
            raise GraphError(f"negative weight {int(edges[i, 2])} on edge ({a},{b})")
    if loop.any():
        edges = edges[~loop]
    weighted = edges.shape[1] == 3 and len(edges) > 0  # no arc, no weights
    # scipy's float64 Dijkstra, which runs every full weighted search, is
    # exact only while every path length stays within 2^53
    top = int(edges[:, 2].max()) if weighted else 0
    if (n - 1) * top > 2 ** 53:
        shown = (top if top < 10 ** _WEIGHT_DIGITS
                 else f"of more than {_WEIGHT_DIGITS} digits")
        raise GraphError(f"weight {shown} can make a path over {n} "
                         f"vertices longer than 2^53")
    edges = edges.astype(np.int64, copy=False)
    u, v = edges[:, 0], edges[:, 1]
    ends = ((u,), (v,)) if directed else ((u, v), (v, u))
    return _arcs_graph(n, directed, *ends, edges[:, 2] if weighted else None)


def _key_dtype(span):
    """int32 when every key in [0, span) fits it, else int64, or None past
    int64.  Narrower keys sort about twice as fast and take half the memory."""
    return None if span > 1 << 63 else np.dtype(np.int32 if span < 1 << 31 else np.int64)


def _arcs_graph(n, directed, srcs, dsts, w) -> Graph:
    """The Graph of the arcs srcs[k][i] -> dsts[k][i], arc i of every part
    k weighted by w[i] (or unweighted when w is None), one arc per pair with
    its minimum weight.  Each key src * n + dst carries its arc's weight in
    its low bits, so one np.sort (3-4x as fast as an argsort; int32 where
    the keys fit) orders the arcs with the minimum weight first in each
    run; keys too wide for int64 take a lexsort.  Keys and the run mask
    get arrays made for them: every fresh temporary costs page faults."""
    bits = 0 if w is None else int(w.max()).bit_length()
    dtype = _key_dtype(n * n << bits)
    key = np.empty(sum(map(len, srcs)), dtype=dtype or np.int64)
    for part, src, dst in zip(key.reshape(len(srcs), -1), srcs, dsts):
        np.multiply(src, n, out=part, casting="unsafe")
        part += dst
        if dtype and bits:
            part <<= bits
            part |= w
    if dtype:
        key.sort()
        arc = key >> bits
        w = None if w is None else key & (1 << bits) - 1
    else:  # too wide to pack
        w = np.tile(w, len(srcs))
        order = np.lexsort((w, key))
        arc, w = key[order], w[order]
    keep = np.empty(arc.size, dtype=bool)
    keep[:1] = True
    np.not_equal(arc[1:], arc[:-1], out=keep[1:])
    arc = arc[keep]
    w = None if w is None else w[keep].astype(np.int64, copy=False)
    # row r holds the arcs in [r * n, (r + 1) * n); taking its start off
    # each arc leaves the target (about three times faster than arc % n)
    starts = np.arange(n + 1, dtype=np.int64) * n
    indptr = np.searchsorted(arc, starts.astype(arc.dtype))
    indices = np.repeat(starts[:-1], np.diff(indptr))
    np.subtract(arc, indices, out=indices)
    return Graph(n, directed, indptr, indices, w)


def finite_diameter_check(g: Graph) -> bool:
    """True iff every vertex reaches, and is reached from, vertex 0.

    Two breadth-first sweeps from/to an arbitrary node decide strong
    connectivity for directed graphs, and one sweep decides plain
    connectivity for undirected ones, which is exactly when the diameter is
    finite.
    """
    if g.n == 0:
        raise GraphError("finite_diameter_check requires at least one vertex")
    if g.n == 1:
        return True
    fwd = breadth_first_order(g.scipy_matrix(), 0, directed=True,
                              return_predecessors=False)
    if fwd.size != g.n:
        return False
    if not g.directed:  # the graph is its own reverse
        return True
    bwd = breadth_first_order(g.reverse().scipy_matrix(), 0, directed=True,
                              return_predecessors=False)
    return bwd.size == g.n


# ---- text formats ----------------------------------------------------------

def _scaled_weight(token: str, scale: int, lineno: int) -> int:
    """The weight ``token`` times 10^scale, decided exactly at any scale
    from the token's digits and exponent; no rounding context is used."""
    try:
        value = Decimal(token)  # exact: only arithmetic rounds
    except InvalidOperation:
        raise GraphParseError(f"line {lineno}: bad weight {token!r}") from None
    if value.is_infinite() or value.is_snan():
        raise GraphParseError(f"line {lineno}: bad weight {token!r}")
    if value.is_nan():
        raise GraphParseError(
            f"line {lineno}: weight {token!r} not integral at scale 10^{scale}")
    sign, digits, exponent = value.as_tuple()
    coefficient = "".join(map(str, digits))
    lead = coefficient.rstrip("0")
    if not lead:  # a zero weight stays 0 at any scale
        return 0
    # the value is int(lead) * 10^exponent, and 10 does not divide int(lead)
    exponent += scale + len(coefficient) - len(lead)
    if exponent < 0:
        raise GraphParseError(
            f"line {lineno}: weight {token!r} not integral at scale 10^{scale}")
    if sign:
        raise GraphParseError(f"line {lineno}: negative weight {token!r}")
    if len(lead) + exponent > _WEIGHT_DIGITS:
        return 10 ** _WEIGHT_DIGITS
    return int(lead) * 10 ** exponent


def _first_record(text: str, comment: str):
    """(line number, stripped line, offset past its line break) of the
    first line of the text that is neither blank nor starts with
    ``comment``, or None; lines are numbered and broken as str.splitlines
    does."""
    start, lineno = 0, 0
    while start < len(text):
        brk = _BREAK.search(text, start)
        end, after = brk.span() if brk else (len(text), len(text))
        lineno += 1
        line = text[start:end].strip()
        if line and not line.startswith(comment):
            return lineno, line, after
        start = after
    return None


def _table(body: str, width: int, tag: bytes):
    """The body as an (m, width) int64 array when it is m lines, each the
    record ``tag`` and then width unsigned decimal integers below
    2^63 - 1, parted by blanks and tabs, with blank lines anywhere and any
    line breaks of str.splitlines but the non-ASCII ones; None for every
    other layout.  One C scan reads the values."""
    data = body.encode("ascii", "replace").strip()
    if b"\r" in data:  # a replace that finds nothing still costs a scan
        data = data.replace(b"\r\n", b"\n")
    # the writer's layout is read as it stands; any other spacing is first
    # brought to it
    rows = _scan(data, width, tag)
    return rows if rows is not None else _scan(_tidy(data), width, tag)


def _scan(data: bytes, width: int, tag: bytes):
    """``data`` as an (m, width) int64 array when it is m lines, each the
    record ``tag`` and then width unsigned decimal integers below
    2^63 - 1, each parted from the next by one blank or tab, and its lines
    are parted by one line feed; None otherwise."""
    if not data:
        return np.empty((0, width), dtype=np.int64)
    if tag:
        # every line starts with the tag, which leaves with its blank; a
        # tag anywhere else is then no separator and fails the check below
        if not data.startswith(tag) or data.count(b"\n" + tag) != data.count(b"\n"):
            return None
        data = data[len(tag):].replace(b"\n" + tag, b"\n")
    seps = data.translate(_TAB_TO_BLANK, b"0123456789")
    lines = seps.count(b"\n") + 1
    if seps + b"\n" != (b" " * (width - 1) + b"\n") * lines:
        return None
    # one value per digit run: with the separators right, a short count
    # means an empty field
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    # strtoll saturates, so int64 max also stands for every larger token
    if values.size != width * lines or values.max() == _INT64_MAX:
        return None
    return values.reshape(lines, width)


def _tidy(data: bytes) -> bytes:
    """``data`` with tabs made blanks, ASCII line breaks made line feeds,
    one blank between fields, none around a line break and no blank lines.
    Bytes replaces, which run in C without a call per match, do it about
    four times faster than a regex substitution."""
    data = data.translate(_SPACING)
    while b"  " in data:
        data = data.replace(b"  ", b" ")
    data = data.replace(b" \n", b"\n").replace(b"\n ", b"\n")
    while b"\n\n" in data:
        data = data.replace(b"\n\n", b"\n")
    return data.strip()


def _edge_rows(body: str, n: int, width: int, scale: int, mark: str,
               tag: bytes, base: int):
    """The records of a body as one (m, width) int64 array of 0-indexed
    edges, or None when the body needs the line-by-line reader: a line
    without the record ``tag``, a token that is not a plain integer, an
    endpoint outside [base, n + base) or a scaled-out weight.  Whole-line
    comments, which start with ``mark``, are dropped first."""
    if mark in body:
        body = _NOTE[mark].sub("", "\n" + body)
    rows = _table(body, width, tag)
    if rows is None or not len(rows):
        return rows
    u, v = rows[:, 0], rows[:, 1]
    # endpoints are read unsigned, so only a base above 0 needs the minimum
    if max(u.max(), v.max()) >= n + base or base and min(u.min(), v.min()) < base:
        return None
    if base:
        u -= base
        v -= base
    if width == 3 and scale:
        # scaled weights must stay int64; 10^18 is the largest int64 scale
        w = rows[:, 2]
        if not 0 < scale <= 18 or int(w.max()) * 10 ** scale > _INT64_MAX:
            return None
        w *= 10 ** scale
    return rows


def _edge_lines(body, first_lineno: int, n: int, width: int, scale: int):
    """The edge lines as tuples, read one line at a time; raises on the
    first bad line with its line number."""
    edges = []
    for lineno, raw in enumerate(body, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != width:
            raise GraphParseError(
                f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: bad endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: endpoint out of range for n={n}")
        if width == 3:
            edges.append((u, v, _scaled_weight(parts[2], scale, lineno)))
        else:
            edges.append((u, v))
    return edges


def parse_edge_list(text: str, directed: bool = False, weight_scale: int = 0) -> Graph:
    """Parse the native edge-list format.

    Header line ``n m`` (or ``n m w`` for weighted graphs), then one edge
    per line: ``u v`` or ``u v weight``, 0-indexed.  ``#`` starts a comment
    line.  Decimal weights are scaled by ``10**weight_scale`` and must come
    out integral (default scale 0: integers only).

    A body of plain integers in range, one edge per line, with blank and
    comment lines anywhere, is read in one scan; any other body (signs,
    decimal weights, errors) is read line by line, which names the first
    bad line.
    """
    header = _first_record(text, "#")
    if header is None:
        raise GraphParseError("line 1: missing header")
    lineno, line, end = header
    parts = line.split()
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "w"):
        raise GraphParseError(f"line {lineno}: bad header {line!r}")
    try:
        n, declared_m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {lineno}: bad header {line!r}") from None
    width = 3 if len(parts) == 3 else 2
    body = text[end:]
    edges = _edge_rows(body, n, width, weight_scale, "#", b"", 0)
    if edges is None:
        edges = _edge_lines(body.splitlines(), lineno + 1, n, width, weight_scale)
    if len(edges) != declared_m:
        raise GraphParseError(
            f"header declares {declared_m} edges but file has {len(edges)}")
    return _parsed_graph(n, edges, directed)


def _parsed_graph(n, edges, directed) -> Graph:
    """build_graph, raising its errors as GraphParseError."""
    try:
        return build_graph(n, edges, directed=directed)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from None


def edge_table(g: Graph) -> np.ndarray:
    """One row (u, v), or (u, v, weight) when weighted, per edge of ``g``
    in arc order; an undirected edge is its arc with u < v."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    cols = (rows, g.indices) if g.weights is None else (rows, g.indices, g.weights)
    if not g.directed:
        keep = rows < g.indices
        cols = [c[keep] for c in cols]
    return np.column_stack(cols)


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text; round-trips through parse_edge_list."""
    table = edge_table(g)
    parts = [f"{g.n} {len(table)} w\n" if g.weighted else f"{g.n} {len(table)}\n"]
    line = " ".join(["%d"] * table.shape[1]) + "\n"
    # one %-format per block of rows; blocks bound the memory at any m
    for lo in range(0, len(table), _WRITE_ROWS):
        block = table[lo:lo + _WRITE_ROWS]
        parts.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS shortest-path file: ``p sp n m`` header and
    ``a u v w`` arcs, 1-indexed.  Produces a directed weighted graph.

    The arcs go through the edge-list reader's array path, with the
    record tag ``a`` and 1-indexed endpoints: when nothing but arcs, blank
    lines and ``c`` comments follows the problem line, they are read in one
    scan.  Any other file (a second problem line, errors) is read one
    record at a time, which names the first bad line.
    """
    first = _first_record(text, "c")
    parts = first[1].split() if first else []
    try:
        n = int(parts[2]) if len(parts) == 4 and parts[:2] == ["p", "sp"] else None
    except ValueError:
        n = None
    rows = None if n is None else _edge_rows(text[first[2]:], n, 3, 0, "c", b"a ", 1)
    if rows is None:
        n, rows = _dimacs_lines(text.splitlines())
    return _parsed_graph(n, rows, True)


def _dimacs_lines(lines):
    """(n, arcs) of a DIMACS file read one record at a time; raises on the
    first bad line with its line number."""
    n = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphParseError(f"line {lineno}: bad problem line {line!r}")
            try:
                n = int(parts[2])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: bad problem line {line!r}") from None
        elif parts[0] == "a":
            if n is None:
                raise GraphParseError(f"line {lineno}: arc before problem line")
            if len(parts) != 4:
                raise GraphParseError(f"line {lineno}: bad arc line {line!r}")
            try:
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad arc line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(
                    f"line {lineno}: arc endpoint out of range for n={n}")
            if w < 0:
                raise GraphParseError(f"line {lineno}: negative weight {w}")
            edges.append((u - 1, v - 1, w))
        else:
            raise GraphParseError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphParseError("missing 'p sp n m' line")
    return n, edges


def parse_graph(text: str, directed: bool = False, weight_scale: int = 0) -> Graph:
    """Parse either format, sniffing DIMACS by its problem/comment lines."""
    first = _first_record(text, "#")
    if first is None:
        raise GraphParseError("empty graph text")
    if first[1][0] in "cpa":
        return parse_dimacs(text)
    return parse_edge_list(text, directed, weight_scale)
