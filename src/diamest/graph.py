"""Immutable graphs in compressed adjacency form, plus text I/O.

Graphs are stored as CSR-style arrays (``indptr``/``indices``) with an
optional parallel integer weight array.  Undirected graphs keep both arcs
of every edge so that a single traversal code path serves both kinds; the
logical edge count ``m`` counts each undirected edge once.

All arrays are made read-only after construction, so a Graph can be shared
freely between concurrent searches.  The reverse graph and the scipy
matrix view are built lazily and cached; rebuilding them is idempotent, so
a racing first access is harmless.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

# Reserved distance for unreachable vertices.  Never participates in
# depth/maximum computations.
UNREACHED = np.iinfo(np.int64).max


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

    __slots__ = ("n", "directed", "indptr", "indices", "weights", "_rev", "_mat")

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

    def arc_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def max_weight(self) -> int:
        """Largest edge weight (1 for unweighted graphs with edges)."""
        if self.arc_count == 0:
            return 0
        if self.weights is None:
            return 1
        return int(self.weights.max())

    def has_edge(self, u: int, v: int) -> bool:
        """Membership query on the sorted adjacency row, O(log deg)."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    # ---- derived graphs ---------------------------------------------------

    def reverse(self) -> "Graph":
        """Graph with every arc flipped; undirected graphs are fixed points.

        Built on first demand and cached; also serves as the in-adjacency
        view.  reverse(reverse(g)) is g itself.
        """
        if not self.directed:
            return self
        if self._rev is None:
            order = np.argsort(self.indices, kind="stable")
            rev_src = self.indices[order]
            # target of the reversed arc = source vertex of the original arc
            arc_src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            rev_dst = arc_src[order]
            rev_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rev_src, minlength=self.n), out=rev_indptr[1:])
            rev_w = None if self.weights is None else self.weights[order].copy()
            # rows come out sorted because argsort is stable and arc_src is
            # nondecreasing within each original row group
            rev = Graph(self.n, True, rev_indptr, rev_dst.copy(), rev_w)
            rev._rev = self
            self._rev = rev
        return self._rev

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


def build_graph(n, edges, directed=False) -> Graph:
    """Build a canonical Graph from an edge list.

    ``edges`` is an iterable of (u, v) or (u, v, weight) tuples; mixing the
    two forms is rejected.  Endpoints must lie in [0, n); weights must be
    nonnegative integers, and no path may be longer than 2^53, that is
    (n - 1) * max weight <= 2^53.  Self loops are dropped, duplicates
    collapse to the minimum weight, and undirected input is symmetrized.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    edges = list(edges)
    weighted = any(len(e) == 3 for e in edges)
    if weighted and not all(len(e) == 3 for e in edges):
        raise GraphError("cannot mix weighted and unweighted edges")

    src, dst, wts = [], [], []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            continue
        w = 1
        if weighted:
            w = int(e[2])
            if w < 0:
                raise GraphError(f"negative weight {w} on edge ({u},{v})")
        src.append(u)
        dst.append(v)
        wts.append(w)
        if not directed:
            src.append(v)
            dst.append(u)
            wts.append(w)

    # the float64 scipy Dijkstra and the int64 heap Dijkstra agree exactly
    # only while every path length stays within 2^53
    if weighted and (n - 1) * max(wts, default=0) > 2 ** 53:
        raise GraphError(f"weight {max(wts)} can make a path over {n} "
                         f"vertices longer than 2^53")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    wts = np.asarray(wts, dtype=np.int64)
    if src.size:
        # sort by (src, dst, weight) so duplicates are adjacent with the
        # minimum weight first, then drop the duplicates
        order = np.lexsort((wts, dst, src))
        src, dst, wts = src[order], dst[order], wts[order]
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst, wts = src[keep], dst[keep], wts[keep]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, directed, indptr, dst, wts if weighted else None)


def finite_diameter_check(g: Graph) -> bool:
    """True iff every vertex reaches, and is reached from, vertex 0.

    Two breadth-first sweeps from/to an arbitrary node: this decides strong
    connectivity for directed graphs and plain connectivity for undirected
    ones, which is exactly when the diameter is finite.
    """
    if g.n == 0:
        raise GraphError("finite_diameter_check requires at least one vertex")
    if g.n == 1:
        return True
    fwd = breadth_first_order(g.scipy_matrix(), 0, directed=True,
                              return_predecessors=False)
    if fwd.size != g.n:
        return False
    bwd = breadth_first_order(g.reverse().scipy_matrix(), 0, directed=True,
                              return_predecessors=False)
    return bwd.size == g.n


# ---- text formats ----------------------------------------------------------

def _scaled_weight(token: str, scale: int, lineno: int) -> int:
    try:
        value = Decimal(token) * (Decimal(10) ** scale)
    except InvalidOperation:
        raise GraphParseError(f"line {lineno}: bad weight {token!r}") from None
    if value != value.to_integral_value():
        raise GraphParseError(
            f"line {lineno}: weight {token!r} not integral at scale 10^{scale}")
    w = int(value)
    if w < 0:
        raise GraphParseError(f"line {lineno}: negative weight {token!r}")
    return w


def parse_edge_list(text: str, directed: bool = False, weight_scale: int = 0) -> Graph:
    """Parse the native edge-list format.

    Header line ``n m`` (or ``n m w`` for weighted graphs), then one edge
    per line: ``u v`` or ``u v weight``, 0-indexed.  ``#`` starts a comment
    line.  Decimal weights are scaled by ``10**weight_scale`` and must come
    out integral (default scale 0: integers only).
    """
    header = None
    weighted = False
    declared_m = 0
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "w"):
                raise GraphParseError(f"line {lineno}: bad header {line!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad header {line!r}") from None
            weighted = len(parts) == 3
            declared_m = header[1]
            continue
        want = 3 if weighted else 2
        if len(parts) != want:
            raise GraphParseError(
                f"line {lineno}: expected {want} fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: bad endpoint in {line!r}") from None
        if not (0 <= u < header[0] and 0 <= v < header[0]):
            raise GraphParseError(
                f"line {lineno}: endpoint out of range for n={header[0]}")
        if weighted:
            edges.append((u, v, _scaled_weight(parts[2], weight_scale, lineno)))
        else:
            edges.append((u, v))
    if header is None:
        raise GraphParseError("line 1: missing header")
    if len(edges) != declared_m:
        raise GraphParseError(
            f"header declares {declared_m} edges but file has {len(edges)}")
    try:
        return build_graph(header[0], edges, directed=directed)
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
    header = f"{g.n} {rows.size} w" if g.weighted else f"{g.n} {rows.size}"
    lines = [header]
    if g.weighted:
        lines.extend(f"{u} {v} {w}" for u, v, w in zip(rows, cols, wts))
    else:
        lines.extend(f"{u} {v}" for u, v in zip(rows, cols))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS shortest-path file: ``p sp n m`` header and
    ``a u v w`` arcs, 1-indexed.  Produces a directed weighted graph."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphParseError(f"line {lineno}: bad problem line {line!r}")
            n = int(parts[2])
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
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        if line[0] in ("c", "p", "a"):
            return parse_dimacs(text)
        return parse_edge_list(text, directed=directed, weight_scale=weight_scale)
    raise GraphParseError("empty graph text")
