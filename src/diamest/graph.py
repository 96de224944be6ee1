"""Immutable graphs in compressed adjacency form, plus text I/O.

Graphs are stored as CSR-style arrays (``indptr``/``indices``) with an
optional parallel integer weight array.  Undirected graphs keep both arcs
of every edge so that a single traversal code path serves both kinds; the
logical edge count ``m`` counts each undirected edge once.

Every graph is built by one array core, :func:`build_graph`: an edge
array goes through the range, weight and 2^53 checks, symmetrization,
sorting and deduplication as whole-array operations.  The edge-list
reader hands it the file body as one int64 array read by ``np.loadtxt``;
only a body that is not plain integers in range is read line by line,
which names the first bad line.  Full weighted searches then run scipy's
Dijkstra (see :mod:`diamest.search`), so no per-edge Python loop runs
between reading a file and its first full search.

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
# the record tag that starts a DIMACS arc line "a u v w"
_ARC_TAG = re.compile(r"^[ \t]*a(?=[ \t])", re.M)


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
    if not directed:
        edges = np.concatenate((edges, edges[:, [1, 0, 2][:edges.shape[1]]]))
    # sort arcs by (src, dst) and keep one per pair with its minimum weight;
    # only weights need the permutation, so unweighted keys sort in place
    key = edges[:, 0] * n + edges[:, 1]
    if weighted:
        order = np.argsort(key)
        key = key[order]
    else:
        key.sort()
    # start of each run of equal keys; key[:1] >= 0 is [True] unless empty
    first = np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))
    wts = np.minimum.reduceat(edges[order, 2], first) if weighted else None
    src, dst = np.divmod(key[first], max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, directed, indptr, dst, wts)


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


def _edge_rows(body, n: int, width: int, scale: int):
    """The edge lines as one (m, width) int64 array, or None when some line
    needs the line-by-line reader: a comment, a token that is not a plain
    int64, an endpoint out of range or a negative or scaled-out weight."""
    if not any(map(str.strip, body)):  # loadtxt warns on empty input
        return np.empty((0, width), dtype=np.int64)
    try:
        rows = np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        return None
    if rows.shape[1] != width or rows[:, :2].min() < 0 or rows[:, :2].max() >= n:
        return None
    if width == 3:
        # scaled weights must stay int64; 10^18 is the largest int64 scale
        w = rows[:, 2]
        top = np.iinfo(np.int64).max
        if not 0 <= scale <= 18 or w.min() < 0 or int(w.max()) * 10 ** scale > top:
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

    The body is read as one integer array; only a body that is not plain
    integers in range (comments between edges, decimal weights, errors)
    is read line by line, which names the first bad line.
    """
    return _parse_edge_lines(text.splitlines(), directed, weight_scale)


def _parse_edge_lines(lines, directed, weight_scale):
    """parse_edge_list on the lines of the text."""
    for at, raw in enumerate(lines):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise GraphParseError("line 1: missing header")
    parts = line.split()
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "w"):
        raise GraphParseError(f"line {at + 1}: bad header {line!r}")
    try:
        n, declared_m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {at + 1}: bad header {line!r}") from None
    width = 3 if len(parts) == 3 else 2
    body = lines[at + 1:]
    edges = _edge_rows(body, n, width, weight_scale)
    if edges is None:
        edges = _edge_lines(body, at + 2, n, width, weight_scale)
    if len(edges) != declared_m:
        raise GraphParseError(
            f"header declares {declared_m} edges but file has {len(edges)}")
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


def _arc_rows(body, n: int):
    """DIMACS arc lines as one (m, 3) int64 array of 0-indexed arcs, or
    None when some line needs the line-by-line reader: one that is neither
    blank, a ``c`` comment nor an ``a`` record, an endpoint out of [1, n]
    or any line _edge_rows refuses."""
    arcs = [raw for raw in body if (line := raw.strip()) and line[0] != "c"]
    text, tags = _ARC_TAG.subn("", "\n".join(arcs))
    if tags != len(arcs):
        return None
    rows = _edge_rows(text.split("\n"), n + 1, 3, 0)
    if rows is None or (len(rows) and rows[:, :2].min() < 1):
        return None
    rows[:, :2] -= 1
    return rows


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS shortest-path file: ``p sp n m`` header and
    ``a u v w`` arcs, 1-indexed.  Produces a directed weighted graph.

    When nothing but arcs, blank lines and comments follows the problem
    line, the arcs are read as one integer array, as an edge-list body is;
    any other file (a second problem line, errors) is read one record at a
    time, which names the first bad line.
    """
    return _parse_dimacs_lines(text.splitlines())


def _parse_dimacs_lines(lines):
    """parse_dimacs on the lines of the text."""
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
                declared = int(parts[2])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: bad problem line {line!r}") from None
            if n is None:  # first problem line: try the rest as one array
                rows = _arc_rows(lines[lineno:], declared)
                if rows is not None:
                    n, edges = declared, rows
                    break
            n = declared
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
    try:
        return build_graph(n, edges, directed=True)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from None


def parse_graph(text: str, directed: bool = False, weight_scale: int = 0) -> Graph:
    """Parse either format, sniffing DIMACS by its problem/comment lines."""
    lines = text.splitlines()
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        if line[0] in ("c", "p", "a"):
            return _parse_dimacs_lines(lines)
        return _parse_edge_lines(lines, directed, weight_scale)
    raise GraphParseError("empty graph text")
