"""Immutable graphs in compressed adjacency form, plus text I/O.

Graphs are stored as CSR-style arrays (``indptr``/``indices``) with an
optional parallel integer weight array.  Undirected graphs keep both arcs
of every edge so that a single traversal code path serves both kinds; the
logical edge count ``m`` counts each undirected edge once.

Every graph is built by one array core, :func:`build_graph`: an edge
array goes through the range, weight and 2^53 checks, symmetrization,
sorting and deduplication as whole-array operations.  The text readers
find the header line by line and then check the layout of the whole body
with bytes methods: when it is one row of plain decimal integers per line,
parted by blanks and tabs, a single ``np.fromstring`` scan reads it as an
int64 array (a body in any spacing but the writer's is first brought to
it with bytes replaces, after comment lines are dropped).  Any other body
(signs, decimal weights, an endpoint out of range, a bad line) is read
line by line, which gives the same graph or names the first bad line.
Full weighted searches then run scipy's Dijkstra (see
:mod:`diamest.search`), so no per-edge Python loop runs between reading a
clean file and its first full search.

All arrays are made read-only after construction, so a Graph can be shared
freely between concurrent searches.  The reverse graph and the scipy
matrix view are built lazily and cached; rebuilding them is idempotent, so
a racing first access is harmless.
"""
from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
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
# the line breaks of str.splitlines, which numbers the lines of a text
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = re.compile(f"\r\n|[{_BREAKS}]")
# DIMACS arc bodies are matched with a "\n" put before their first line,
# so that each pattern starts with a literal the regex engine skips to:
# the record tag that starts an arc line "a u v w", with its blanks; the
# digit after it keeps a tagged line from being taken for a blank one
_ARC_TAG = re.compile(r"\n[ \t]*a[ \t]+(?=[0-9])")
# a line without a record, blank or a "c" comment, and the break before it;
# a comment ends at the first line break, which must be a "\n"
_DIMACS_NOTE = re.compile(f"\n[ \t]*(?:c[^{_BREAKS}]*)?\r?(?=\n|\\Z)")
# a "#" comment line of an edge-list body, matched as _DIMACS_NOTE is
_EDGE_NOTE = re.compile(f"\n[ \t]*#[^{_BREAKS}]*\r?(?=\n|\\Z)")
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


@dataclass(frozen=True)
class DiameterStatus:
    """Finite/infinite diameter flag with the value when finite."""

    finite: bool
    value: int | None = None

    def __post_init__(self):
        if self.finite and (self.value is None or self.value < 0):
            raise ValueError("finite diameter requires a nonnegative value")
        if not self.finite and self.value is not None:
            raise ValueError("infinite diameter carries no value")


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
            # target of the reversed arc = source vertex of the original arc
            arc_src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            # arcs are distinct, so the keys dst * n + src are too and any
            # argsort gives the reversed arcs in (source, target) order
            order = np.argsort(self.indices * self.n + arc_src)
            rev_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.indices, minlength=self.n), out=rev_indptr[1:])
            rev_w = None if self.weights is None else self.weights[order]
            rev = Graph(self.n, True, rev_indptr, arc_src[order], rev_w)
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
        raise GraphError(f"weight {top} can make a path over {n} "
                         f"vertices longer than 2^53")
    edges = edges.astype(np.int64, copy=False)
    u, v = edges[:, 0], edges[:, 1]
    # sort arcs by the key src * n + dst and keep one per pair with its
    # minimum weight; only weights need the permutation, so unweighted
    # keys sort in place.  The keys and the run mask below are written
    # into arrays made for them, as every fresh temporary costs page faults
    m = len(edges)
    key = np.empty(m if directed else 2 * m, dtype=np.int64)
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    if not directed:
        np.multiply(v, n, out=key[m:])
        key[m:] += u
    if weighted:
        order = np.argsort(key)
        key = key[order]
        wts = edges[:, 2] if directed else np.concatenate((edges[:, 2],) * 2)
        wts = wts[order]
    else:
        key.sort()
    # the first key of each run of equal keys
    keep = np.empty(key.size, dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    wts = np.minimum.reduceat(wts, np.flatnonzero(keep)) if weighted else None
    key = key[keep]
    # row r holds the keys in [r * n, (r + 1) * n); taking its start off
    # each key leaves the target (about three times faster than key %= n)
    starts = np.arange(n + 1, dtype=np.int64) * n
    indptr = np.searchsorted(key, starts)
    key -= np.repeat(starts[:-1], np.diff(indptr))
    return Graph(n, directed, indptr, key, wts)


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
    try:
        value = Decimal(token) * (Decimal(10) ** scale)
    except InvalidOperation:
        raise GraphParseError(f"line {lineno}: bad weight {token!r}") from None
    if value.is_infinite():
        raise GraphParseError(f"line {lineno}: bad weight {token!r}")
    if value != value.to_integral_value():
        raise GraphParseError(
            f"line {lineno}: weight {token!r} not integral at scale 10^{scale}")
    w = int(value)
    if w < 0:
        raise GraphParseError(f"line {lineno}: negative weight {token!r}")
    return w


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


def _table(body: str, width: int):
    """The body as an (m, width) int64 array when it is m lines of width
    unsigned decimal integers below 2^63 - 1, parted by blanks and tabs,
    with blank lines anywhere and any line breaks of str.splitlines but
    the non-ASCII ones; None for every other layout.  One C scan reads the
    values."""
    data = body.encode("ascii", "replace").strip()
    if b"\r" in data:  # a replace that finds nothing still costs a scan
        data = data.replace(b"\r\n", b"\n")
    # the writer's layout is read as it stands; any other spacing is first
    # brought to it
    rows = _scan(data, width)
    return rows if rows is not None else _scan(_tidy(data), width)


def _scan(data: bytes, width: int):
    """``data`` as an (m, width) int64 array when it is m lines of width
    unsigned decimal integers below 2^63 - 1, each parted from the next by
    one blank or tab, and its lines are parted by one line feed; None
    otherwise."""
    if not data:
        return np.empty((0, width), dtype=np.int64)
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


def _edge_rows(body: str, n: int, width: int, scale: int):
    """The edge lines as one (m, width) int64 array, or None when the body
    needs the line-by-line reader: a token that is not a plain integer, an
    endpoint out of range or a scaled-out weight.  Whole-line comments are
    dropped first."""
    if "#" in body:
        body = _EDGE_NOTE.sub("", "\n" + body)
    rows = _table(body, width)
    if rows is None or not len(rows):
        return rows
    if max(rows[:, 0].max(), rows[:, 1].max()) >= n:
        return None
    if width == 3:
        # scaled weights must stay int64; 10^18 is the largest int64 scale
        w = rows[:, 2]
        if not 0 <= scale <= 18 or int(w.max()) * 10 ** scale > _INT64_MAX:
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
    edges = _edge_rows(body, n, width, weight_scale)
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


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text; round-trips through parse_edge_list."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    cols = g.indices
    wts = g.weights
    if not g.directed:
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
        if wts is not None:
            wts = wts[keep]
    table = np.column_stack((rows, cols) if wts is None else (rows, cols, wts))
    parts = [f"{g.n} {rows.size} w\n" if g.weighted else f"{g.n} {rows.size}\n"]
    line = " ".join(["%d"] * table.shape[1]) + "\n"
    # one %-format per block of rows; blocks bound the memory at any m
    for lo in range(0, len(table), _WRITE_ROWS):
        block = table[lo:lo + _WRITE_ROWS]
        parts.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _arc_rows(body: str, n: int):
    """DIMACS arc lines as one (m, 3) int64 array of 0-indexed arcs, or
    None when some line needs the line-by-line reader: one that is neither
    blank, a ``c`` comment nor an ``a`` record, an endpoint out of [1, n]
    or any layout _table refuses."""
    text, tags = _ARC_TAG.subn("\n", _DIMACS_NOTE.sub("", "\n" + body))
    rows = _table(text, 3)
    # every line left is one row, so a row for each tag means none lacks one
    if rows is None or len(rows) != tags:
        return None
    u, v = rows[:, 0], rows[:, 1]
    if tags and (min(u.min(), v.min()) < 1 or max(u.max(), v.max()) > n):
        return None
    u -= 1
    v -= 1
    return rows


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS shortest-path file: ``p sp n m`` header and
    ``a u v w`` arcs, 1-indexed.  Produces a directed weighted graph.

    When nothing but arcs, blank lines and comments follows the problem
    line, the arcs are read in one scan, as an edge-list body is; any other
    file (a second problem line, errors) is read one record at a time,
    which names the first bad line.
    """
    first = _first_record(text, "c")
    parts = first[1].split() if first else []
    try:
        n = int(parts[2]) if len(parts) == 4 and parts[:2] == ["p", "sp"] else None
    except ValueError:
        n = None
    rows = None if n is None else _arc_rows(text[first[2]:], n)
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
