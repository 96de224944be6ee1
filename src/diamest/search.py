"""Search primitives consumed by every estimator.

One kernel per job, where on unweighted graphs a batch chooses between a
numpy kernel that pays a fixed cost per level and scipy's C search, which
pays per vertex and arc; measured prices in visits of the C search (the
_UNITS constants) set the exchange rate:

- A full search (``search``, ``nearest_in_set``) is one scipy BFS on
  unweighted graphs, from an extra vertex whose arcs point at the sources
  when there are several; pointer jumping over the BFS tree gives the
  distances, and for ``search`` one sort the (distance, id) order of the
  reached vertices.  Weighted graphs run scipy's Dijkstra, exact because
  build_graph keeps every path length within 2^53.
- Near sets, the s closest vertices of each of many sources
  (``near_sets``, ``nearest_s``), run one batched truncated BFS on
  unweighted graphs: every source keeps its own tree, and the trees of a
  chunk of sources advance level by level together.  On weighted graphs
  they run scipy's Dijkstra over chunks of sources with a distance limit
  that doubles until each row reaches s vertices, then take each row's
  first s in (distance, id) order in one vectorized pass.
- Depths of many sources, and whether each tree spans the graph
  (``batch_search_stats``), run one bit-parallel multi-source BFS that
  advances 64 sources per machine word on unweighted graphs, unless a
  probe of the depth shows that one C search per source costs less; then,
  and on weighted graphs, they run the same chunked scipy Dijkstra
  without a limit.  Its bitsets are vertex-major, W words per row, and a
  level whose frontier is large pulls over in-arcs laid out as ELL slices
  over rows sorted by descending in-degree, plus a CSR tail for the arcs
  no slice takes.

Searches never mutate the graph; each owns its private arrays, so any
number may run concurrently over one shared Graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from .graph import Graph, InfiniteDiameterError, UNREACHED, _key_dtype

OUT = "out"
IN = "in"

@dataclass(frozen=True, eq=False)
class SearchTree:
    """Result of one single-source search.

    ``dist`` holds exact distances with UNREACHED for unreached vertices;
    ``order`` lists the reached vertices sorted by (distance, id), so
    ``order[:s]`` is always the s closest with the canonical tie-break.
    """

    source: int
    direction: str
    dist: np.ndarray
    order: np.ndarray

    @property
    def depth(self) -> int:
        """Largest finite distance in the tree (0 for a lone vertex)."""
        return int(self.dist[self.order[-1]])

    @property
    def reached(self) -> int:
        return int(self.order.size)


@dataclass(frozen=True, eq=False)
class NearSet:
    """The s closest vertices of ``center`` in one direction.

    ``members`` are the first s entries of the full (distance, id) order;
    ``member_dists`` are their distances and ``radius`` is the largest one.
    """

    center: int
    direction: str
    s: int
    members: np.ndarray
    member_dists: np.ndarray

    @property
    def radius(self) -> int:
        return int(self.member_dists[-1])


def _oriented(g: Graph, direction: str) -> Graph:
    """The graph to traverse for the given direction (IN = reverse graph)."""
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be {OUT!r} or {IN!r}, got {direction!r}")
    return g if direction == OUT else g.reverse()


# Memory policy of every batched search: a chunk of sources, a run of
# gathered arcs or a block of distances keeps its largest array within
# _CHUNK_BYTES, taking as many units (sources, arcs, words) as fit.
_CHUNK_BYTES = 1 << 22


def _per_chunk(unit_bytes):
    """Units of ``unit_bytes`` bytes each that one chunk takes, at least
    one; a unit of 0 bytes (a row of the empty graph) counts as 1."""
    return max(1, _CHUNK_BYTES // max(1, unit_bytes))


def _runs(starts, counts):
    """Positions starts[i], ..., starts[i] + counts[i] - 1 for every i in
    turn: the entries of a gather of CSR rows."""
    ends = np.cumsum(counts)
    return (np.repeat(starts + counts - ends, counts)
            + np.arange(ends[-1] if ends.size else 0))


def _gather(indptr, indices, frontier):
    """Concatenated adjacency rows of the frontier vertices."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    return indices[_runs(starts, counts)], counts


def _unique(a, span):
    """Sorted distinct values of ``a``, all in [0, span), as intp.  The
    sort runs in int32 when ``span`` allows, about twice as fast as in
    int64; np.unique hashes before it sorts (numpy >= 2.3), which is
    10-20x slower on arrays of a few thousand entries."""
    a = np.sort(a.astype(_key_dtype(span), copy=False))
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep].astype(np.intp, copy=False)


def _row_runs(rows, fan):
    """Bounds of runs of whole rows of the row-sorted frontier, each run
    gathering about as many arcs as a chunk takes at 64 bytes of
    temporaries per arc (one row may gather more alone), so a hub that
    every row reaches costs at most one run at a time."""
    ends, arcs = np.cumsum(fan), _per_chunk(64)
    if ends[-1] <= arcs:
        return [0, rows.size]
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    run = (ends - fan)[first] // arcs
    return [*first[np.diff(run, prepend=-1) != 0].tolist(), rows.size]


def _near_bfs(indptr, indices, n, sources, s, members, dists):
    """Fill row i of ``members``/``dists`` with the s-truncated BFS tree of
    ``sources[i]``; the rows of a chunk advance level by level together.

    The frontier is a list of (row, vertex) pairs sorted by row.  A level
    gathers their out-arcs, drops pairs already seen and sorts the rest by
    the key row * n + vertex, so each row's new level comes out by
    ascending id and is trimmed to the row's free slots, as a single-source
    search settling in (distance, id) order would; the sort runs in int32
    when a chunk's seen map, which the keys index, has under 2^31
    entries.  The seen map is allocated once: a chunk sets only the keys
    of its members, so the next chunk clears just those.
    """
    if s == 1 or sources.size == 0:
        return
    fan = np.diff(indptr)
    k = min(_per_chunk(n), sources.size)  # a seen map of n bools per source
    seen = np.zeros(k * n, dtype=bool)
    ids = np.arange(k)
    for lo in range(0, sources.size, k):
        if lo:
            done = members[lo - k:lo]
            seen[(ids[:, None] * n + done)[done >= 0]] = False
        front = sources[lo:lo + k]
        rows = chunk = ids[:front.size]
        edges = np.arange(front.size + 1) * n  # row i: [edges[i], edges[i + 1])
        out = members[lo:lo + front.size].reshape(-1)
        out_d = dists[lo:lo + front.size].reshape(-1)
        seen[edges[:-1] + front] = True
        count = np.ones(front.size, dtype=np.int64)
        level = 0
        while front.size:
            level += 1
            runs = _row_runs(rows, fan[front])
            parts = []
            for a, b in zip(runs, runs[1:]):
                nbrs, got = _gather(indptr, indices, front[a:b])
                key = np.repeat(rows[a:b], got) * n + nbrs
                key = _unique(key[~seen[key]], seen.size)
                # each row's new pairs, by one search of the row edges;
                # the slot of a pair is its rank in its row plus the
                # row's members so far
                bound = np.searchsorted(key, edges)
                per = np.diff(bound)
                row = np.repeat(chunk, per)
                slot = np.arange(key.size) + np.repeat(count - bound[:-1], per)
                if key.size and slot.max() >= s:
                    keep = slot < s
                    key, row, slot = key[keep], row[keep], slot[keep]
                seen[key] = True
                new = key - row * n
                out[row * s + slot] = new
                out_d[row * s + slot] = level
                count += per
                live = count[row] < s
                parts.append((row[live], new[live]))
            rows = np.concatenate([r for r, _ in parts])
            front = np.concatenate([v for _, v in parts])


def _bfs_tree(h: Graph, sources: np.ndarray):
    """One scipy BFS of unweighted ``h`` from the distinct ``sources``.

    Returns (order, d): the reached vertices in BFS order and their
    distances.  Several sources hang off one extra vertex n whose arcs
    point at them.  The distances come from pointer jumping over the
    tree's parents, by position in the BFS order: while ``up[i]`` is not
    the root, ``d[i]`` is the distance from position i up to ``up[i]``,
    and a round doubles the jump.  The last vertex of a BFS order is a
    deepest one, so once its jump reaches the root every jump has, after
    ceil(log2 depth) rounds, and ``d[-1]`` is the depth.
    """
    mat = h.scipy_matrix()
    if sources.size == 1:
        root = int(sources[0])
    else:
        arcs = int(mat.indptr[-1])
        mat = csr_matrix((np.ones(arcs + sources.size),
                          np.concatenate((mat.indices,
                                          sources.astype(mat.indices.dtype))),
                          np.append(mat.indptr, arcs + sources.size)),
                         shape=(h.n + 1, h.n + 1))
        root = h.n
    order, pred = breadth_first_order(mat, root, directed=True)
    # scipy's int32 arrays, widened once rather than at every index
    order, pred = order.astype(np.intp), pred.astype(np.intp)
    pred[root] = root
    pos = np.empty(pred.size, dtype=np.intp)
    pos[order] = np.arange(order.size)
    up = pos[pred[order]]
    d = np.ones(order.size, dtype=np.int64)
    d[0] = 0
    while up[-1]:
        d += d[up]
        up = up[up]
    if root == h.n:
        return order[1:], d[1:] - 1
    return order, d


def _search_from(h: Graph, sources: np.ndarray):
    """(dist, reached) of one full search of ``h`` from the sorted,
    distinct ``sources``: one scipy BFS on unweighted graphs, which lists
    the reached vertices in BFS order, and scipy's Dijkstra on weighted
    ones, which lists them by id, exact because build_graph keeps every
    path length within 2^53."""
    dist = np.full(h.n, UNREACHED, dtype=np.int64)
    if not h.weighted:
        reached, d = _bfs_tree(h, sources)
        dist[reached] = d
        return dist, reached
    d = _scipy_dijkstra(h.scipy_matrix(), directed=True, indices=sources,
                        min_only=True)
    reached = np.flatnonzero(np.isfinite(d))
    dist[reached] = d[reached]
    return dist, reached


def _dijkstra_blocks(h: Graph, sources: np.ndarray, s: int):
    """Distances in ``h`` from chunks of ``sources`` by scipy's Dijkstra,
    exact as in _search_from.

    Yields (lo, d): row i of the float64 block d holds the distances from
    ``sources[lo + i]`` up to the row's search radius r, inf beyond it.
    r starts at the largest weight and doubles for the rows that reach
    fewer than s vertices; once it covers (n - 1) times the largest
    weight, every path, the search runs without a limit, so a row that
    never reaches s vertices still ends.  s = n asks for full searches.
    """
    mat, w = h.scipy_matrix(), h.max_weight()
    top = (h.n - 1) * w

    def run(indices, r):
        return _scipy_dijkstra(mat, directed=True, indices=indices,
                               limit=r if r < top else np.inf)

    chunk = _per_chunk(8 * h.n)  # a float64 row per source
    for lo in range(0, sources.size, chunk):
        part = sources[lo:lo + chunk]
        r = w if s < h.n else top
        d = block = run(part, r)
        rows = np.arange(part.size)
        while r < top:
            rows = rows[np.count_nonzero(np.isfinite(block), axis=1) < s]
            if rows.size == 0:
                break
            r *= 2
            block = d[rows] = run(part[rows], r)
        yield lo, d


def _checked_sources(sources, n):
    """``sources`` as a flat int64 array; names the first one outside [0, n),
    which may be past int64."""
    sources = np.asarray(sources).reshape(-1)
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise ValueError(f"source {bad[0]} out of range for n={n}")
    return sources.astype(np.int64, copy=False)


def _first_s(d, s, members, dists):
    """Write the first s entries of the (distance, id) order of the finite
    entries of every row of ``d`` into the same rows of members/dists.

    The s-th smallest distance t of a row bounds its candidates; they come
    out of np.nonzero with ids ascending in each row, and one lexsort by
    (row, distance, id) ranks them, so zero-weight ties need no care.
    """
    t = np.partition(d, s - 1, axis=1)[:, s - 1, None]
    row, col = np.nonzero(d <= t)
    dist = d[row, col]
    order = np.lexsort((col, dist, row))
    row, col, dist = row[order], col[order], dist[order]
    rank = np.arange(row.size) - np.searchsorted(row, row)
    keep = (rank < s) & np.isfinite(dist)
    row, rank = row[keep], rank[keep]
    members[row, rank] = col[keep]
    dists[row, rank] = dist[keep]


def near_sets(g: Graph, sources, s: int, direction: str = OUT):
    """The s closest vertices of every source, by truncated searches.

    Returns (members, dists), int64 arrays of shape (len(sources), s):
    row i lists the first s vertices of the (distance, id) order of a
    search from ``sources[i]`` and their distances.  A row whose source
    reaches fewer than s vertices ends in members -1 at distance
    UNREACHED.  Unweighted graphs run one batched BFS, weighted ones
    scipy's Dijkstra over chunks of sources, its distance limit doubling
    until each row reaches s vertices.
    """
    sources = _checked_sources(sources, g.n)
    if not (1 <= s <= g.n):
        raise ValueError(f"s must be in [1, {g.n}], got {s}")
    h = _oriented(g, direction)
    members = np.full((sources.size, s), -1, dtype=np.int64)
    dists = np.full((sources.size, s), UNREACHED, dtype=np.int64)
    members[:, 0] = sources
    dists[:, 0] = 0
    if not h.weighted:
        _near_bfs(h.indptr, h.indices, g.n, sources, s, members, dists)
    else:
        for lo, d in _dijkstra_blocks(h, sources, s):
            _first_s(d, s, members[lo:lo + len(d)], dists[lo:lo + len(d)])
    return members, dists


def search(g: Graph, v: int, direction: str = OUT) -> SearchTree:
    """Exact single-source distances from/to ``v`` (BFS or Dijkstra)."""
    dist, reached = _search_from(_oriented(g, direction),
                                 _checked_sources(v, g.n))
    if g.weighted:
        # reached ids ascend, so a stable sort by distance breaks ties by id
        order = reached[np.argsort(dist[reached], kind="stable")]
    else:
        # d * n + v < n^2, which build_graph keeps within int64
        order = np.sort(dist[reached] * g.n + reached) % g.n
    dist.setflags(write=False)
    order.setflags(write=False)
    return SearchTree(v, direction, dist, order)


def nearest_s(g: Graph, v: int, s: int, direction: str = OUT) -> NearSet:
    """The s closest vertices of ``v``, computed by a truncated search.

    Raises InfiniteDiameterError when fewer than s vertices are reachable
    (the toolkit assumes finite diameter wherever near sets are used).
    """
    (members,), (mdists,) = near_sets(g, [v], s, direction)
    if mdists[-1] == UNREACHED:
        raise InfiniteDiameterError(
            f"graph has infinite diameter: only {np.count_nonzero(members >= 0)}"
            f" of {s} vertices reachable {direction} of {v}")
    members.setflags(write=False)
    mdists.setflags(write=False)
    return NearSet(v, direction, s, members, mdists)


def nearest_in_set(g: Graph, members, direction: str = OUT) -> np.ndarray:
    """Distance between every vertex and a vertex set, in one search.

    Direction OUT gives d(v, set) (the set member is the target), IN gives
    d(set, v).  Returns an int64 array with UNREACHED for the vertices
    that cannot reach (or be reached from) the set.
    """
    # distance from v to the set is a distance in the reverse graph from
    # the set to v, so direction OUT traverses reversed arcs
    h = _oriented(g, direction).reverse()
    members = _checked_sources(members, g.n)
    if members.size == 0:
        raise ValueError("member set must be nonempty")
    return _search_from(h, _unique(members, g.n))[0]


def nearest_high_degree(g: Graph, degree: int) -> np.ndarray:
    """Distance from every vertex to its closest vertex of out-degree >=
    ``degree``.

    An empty candidate set is legal: every distance is then UNREACHED.
    """
    cands = np.flatnonzero(g.out_degrees >= degree)
    if cands.size == 0:
        return np.full(g.n, UNREACHED, dtype=np.int64)
    return nearest_in_set(g, cands, OUT)


# ---- bulk depth queries ----------------------------------------------------

def _msbfs_chunk(h: Graph) -> int:
    """Sources per chunk of _msbfs_stats in ``h``: 64 * W, a chunk keeping
    a uint64 word per vertex and per arc for each of its W words."""
    return 64 * _per_chunk(8 * max(h.n, h.arc_count))

# A level pushes from its frontier when that is cheaper than pulling into
# every vertex: a pushed arc word costs about _PUSH_COST pulled ones, and a
# push level costs about _PUSH_START pulled arc words more to set up.
_PUSH_COST = 16
_PUSH_START = 4096

# A pull slice is one np.take of whole rows into a reused buffer and one
# OR, about 1-2 ns per word plus a fixed few microseconds; it pays while it
# moves at least _SLICE_WORDS words, against the ~5 ns per word that
# bitwise_or.reduceat pays for the arcs no slice takes.  Relabelling the
# rows costs about as much as a few levels of slices moving n + arcs
# words, so slices are taken only when together they move at least
# _RELABEL_PAYS (n + arcs) words a level.  Both measured on a 2-core host.
_SLICE_WORDS = 1024
_RELABEL_PAYS = 2


def _or_rows(a):
    """OR of the rows of the (n, W) uint64 array ``a``.  A reduce along
    axis 0 runs its inner loop once per row, which costs more than the ORs
    when W is small, so rows are first folded into rows of ~256 words."""
    n, w = a.shape
    r = 256 // w  # rows per folded row
    if w == 1 or r < 2 or n < 2 * r:
        return np.bitwise_or.reduce(a, axis=0)
    q = n // r * r
    folded = np.bitwise_or.reduce(a[:q].reshape(-1, r * w), axis=0)
    return np.bitwise_or.reduce(np.concatenate((folded.reshape(r, w), a[q:])),
                                axis=0)


@dataclass(frozen=True)
class _Pull:
    """The in-arcs of ``h`` laid out for a multi-source BFS of W words.

    Row r of the bitsets holds vertex ``order[r]`` and vertex v lies in row
    ``rank[v]`` (both None: row v holds vertex v).  Slice j lists, for the
    first ``slices[j].size`` rows, the row of their j-th in-neighbour; the
    in-arcs past the last slice are ``tail``, in groups from ``starts``,
    one group for each of ``rows``.
    """

    order: np.ndarray | None
    rank: np.ndarray | None
    slices: list
    rows: slice | np.ndarray
    tail: np.ndarray
    starts: np.ndarray

    def vertex(self, rows):
        return rows if self.order is None else self.order[rows]

    def row(self, vertices):
        return vertices if self.rank is None else self.rank[vertices]


def _pull_plan(h: Graph, words: int) -> _Pull:
    """The pull of ``h`` at W = ``words`` (ELL slices plus a CSR tail, Bell
    & Garland, SC 2009).  Rows go by descending in-degree, so the c_j
    vertices of in-degree above j are a prefix of the rows and slice j is
    one gather into it; slices run while c_j * W >= _SLICE_WORDS, and only
    when together they move at least _RELABEL_PAYS (n + arcs) words a
    level.  Otherwise rows keep the vertex ids and one reduceat does the
    pull."""
    n, pull = h.n, h.reverse()
    deg = np.diff(pull.indptr)
    # above[j] vertices have in-degree above j; above[-1] is 0
    above = n - np.cumsum(np.bincount(deg, minlength=1))
    cut = int(np.count_nonzero(above * words >= _SLICE_WORDS))
    if int(above[:cut].sum()) * words < _RELABEL_PAYS * (n + h.arc_count):
        rows = np.flatnonzero(deg)
        starts = pull.indptr[rows]
        if rows.size == n:
            rows = slice(0, n)
        return _Pull(None, None, [], rows, pull.indices, starts)
    # nbr: the row of the source of every in-arc; first: each row's first
    if (np.diff(deg) <= 0).all():  # the vertex ids already sort
        order = rank = None
        nbr, first = pull.indices, pull.indptr[:-1]
    else:
        # by descending in-degree, ties by id: one sort of distinct keys
        order = np.sort((deg.max() - deg) * n + np.arange(n)) % n
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        nbr, first, deg = rank[pull.indices], pull.indptr[order], deg[order]
    slices = [nbr[first[:c] + j] for j, c in enumerate(above[:cut].tolist())]
    # the c rows of in-degree above cut keep their in-arcs from cut on
    c = int(above[cut])
    extra = deg[:c] - cut
    return _Pull(order, rank, slices, slice(0, c),
                 nbr[_runs(first[:c] + cut, extra)], np.cumsum(extra) - extra)


def _msbfs_stats(h: Graph, sources: np.ndarray):
    """Depth of every source's BFS tree in ``h``, and whether it holds every
    vertex, 64 sources per word.

    All sources of a chunk advance together, one bit each in W words per
    vertex (multi-source BFS, Then et al., VLDB 2015); the bitsets are
    (n, W) arrays, word w of row r at flat entry r*W + w, with the rows
    laid out by _pull_plan.  A level with a small frontier pushes its
    nonzero entries along their out-arcs and merges the ones that land on
    the same entry; a large one pulls every row's words over its in-arcs,
    a few whole-row gathers plus one reduceat, as direction-optimizing BFS
    does.  A level thus costs O(min(f, arcs * W)) for f the out-arcs of its
    nonzero entries, so a deep graph pays for what each source reaches,
    not for every arc on every level.  A source's depth is the last level
    whose frontier holds its bit; its tree spans ``h`` when no row of the
    unseen set keeps that bit at the end.
    """
    n, k, arcs = h.n, sources.size, h.arc_count
    depths = np.empty(k, dtype=np.int64)
    spans = np.empty(k, dtype=bool)
    fan = np.diff(h.indptr)
    least = int(fan.min()) if n else 0  # smallest out-degree
    chunk = _msbfs_chunk(h)
    for lo in range(0, k, chunk):
        part = sources[lo:lo + chunk]
        depth = depths[lo:lo + part.size]
        words = (part.size + 63) >> 6
        plan = _pull_plan(h, words)
        row_fan = fan if plan.order is None else fan[plan.order]
        bit = np.arange(part.size, dtype=np.int64)
        front = np.zeros((n, words), dtype=np.uint64)
        np.bitwise_or.at(front, (plan.row(part), bit >> 6),
                         np.uint64(1) << (bit & 63).astype(np.uint64))
        # complement of the seen set: it masks each new frontier
        unseen = ~front
        flat = unseen.reshape(-1)
        # a pull writes the next frontier into ``pulled`` and gathers each
        # slice into ``gathered``; reused, they cost no page faults
        pulled, gathered = np.empty_like(front), np.empty_like(front)
        stamp = np.empty(n * words, dtype=np.int64)
        alive = _or_rows(front)
        # a sparse frontier lists its nonzero flat entries in ``entry`` and
        # their words in ``val``; None: the frontier is dense
        entry = None
        spare = arcs * words - _PUSH_START  # a pull beyond a push's set-up
        level = 0
        while True:
            if entry is None:
                # the out-arcs of the nonzero entries, when a lower bound
                # does not already rule the push out
                pushing = (spare >= 0 and _PUSH_COST * least * int(
                    np.count_nonzero(front)) <= spare and _PUSH_COST * int(
                        (row_fan @ (front != 0)).sum()) <= spare)
                if pushing:
                    entry = np.flatnonzero(front)
                    val = front.reshape(-1)[entry]
            if entry is not None:
                row, word = np.divmod(entry, words)
                cnt = row_fan[row]
                pushing = _PUSH_COST * int(cnt.sum()) <= spare
            if pushing:
                nbr = h.indices[_runs(h.indptr[plan.vertex(row)], cnt)]
                entry = plan.row(nbr) * words + np.repeat(word, cnt)
                val = np.repeat(val, cnt) & flat[entry]
                keep = np.flatnonzero(val)
                entry, val = entry[keep], val[keep]
                # one entry per target keeps its stamp; OR the rest into it
                pos = np.arange(entry.size)
                stamp[entry] = pos
                win = stamp[entry]
                first = win == pos
                if not first.all():
                    lost = ~first
                    np.bitwise_or.at(val, win[lost], val[lost])
                    entry, val = entry[first], val[first]
                flat[entry] ^= val
                new = np.zeros(words, dtype=np.uint64)
                np.bitwise_or.at(new, entry % words, val)
            else:
                if entry is not None:
                    front.fill(0)
                    front.reshape(-1)[entry] = val
                    entry = None
                pulled.fill(0)
                for s in plan.slices:
                    got = gathered[:s.size]
                    np.take(front, s, axis=0, out=got, mode="clip")
                    pulled[:s.size] |= got
                if plan.tail.size:
                    pulled[plan.rows] |= np.bitwise_or.reduceat(
                        np.take(front, plan.tail, axis=0), plan.starts, axis=0)
                front, pulled = pulled, front
                front &= unseen
                unseen ^= front
                new = _or_rows(front)
            if (new != alive).any():
                done = (alive & ~new).astype("<u8", copy=False).view(np.uint8)
                depth[np.unpackbits(done, count=part.size, bitorder="little")
                      .astype(bool)] = level
                alive = new
                if not alive.any():
                    break
            level += 1
        missed = _or_rows(unseen).astype("<u8", copy=False).view(np.uint8)
        spans[lo:lo + part.size] = np.unpackbits(
            missed, count=part.size, bitorder="little") == 0
    return depths, spans


def _dijkstra_stats(h: Graph, sources: np.ndarray):
    """Depth of every source's search tree in ``h``, and whether it holds
    every vertex, one scipy search per source over chunks of sources."""
    depths = np.empty(sources.size, dtype=np.int64)
    spans = np.empty(sources.size, dtype=bool)
    for lo, d in _dijkstra_blocks(h, sources, h.n):
        finite = np.isfinite(d)
        spans[lo:lo + len(d)] = finite.all(axis=1)
        d[~finite] = -1.0
        depths[lo:lo + len(d)] = d.max(axis=1)
    return depths, spans


# In visits of scipy's C search, one search per source costs about
# _SOURCE_UNITS + n + arcs, and one level of _msbfs_stats costs about
# _MSBFS_LEVEL_UNITS plus _MSBFS_WORD_UNITS per word of its chunk.  Fitted
# on a 2-core host to both kernels timed on gnm graphs of n = 16-4096,
# cycles, paths, grids, barbells and bounded-degree graphs of n = 96-4096.
_SOURCE_UNITS = 500
_MSBFS_LEVEL_UNITS = 3000
_MSBFS_WORD_UNITS = 1000


def _per_source_wins(h: Graph, sources: np.ndarray) -> bool:
    """Whether one C search per source beats the multi-source BFS of
    ``sources`` in unweighted ``h``.

    The two costs above make the choice turn on the depth: one search per
    source wins when per_source < level_cost * (depth + 1), that is when
    the depth reaches per_source // level_cost steps.  Only when that can
    go either way does one scipy BFS from ``sources[0]`` probe it, walking
    up the tree from the last vertex of the BFS order, a deepest one, for
    at most that many steps.
    """
    n, k = h.n, sources.size
    chunk = _msbfs_chunk(h)
    words = (min(k, chunk) + 63) >> 6
    per_source = k * (_SOURCE_UNITS + n + h.arc_count)
    level_cost = -(-k // chunk) * (_MSBFS_LEVEL_UNITS
                                   + _MSBFS_WORD_UNITS * words)
    if per_source >= level_cost * n:  # MS-BFS wins even at depth n - 1
        return False
    steps = per_source // level_cost
    if steps == 0:
        return True
    order, pred = breadth_first_order(h.scipy_matrix(), int(sources[0]),
                                      directed=True)
    v, up = int(order[-1]), pred.item
    for _ in range(steps):
        v = up(v)
        if v < 0:  # above the root: the depth is below ``steps``
            return False
    return True


def batch_search_stats(g: Graph, sources, direction: str = OUT):
    """Depths of many sources at once, and whether each tree spans.

    Unweighted graphs run one bit-parallel multi-source BFS over chunks of
    sources, unless the graph is deep enough that one scipy search per
    source costs less; weighted graphs always run scipy's Dijkstra over
    chunks of sources, sized to bound memory.  Depth is the largest finite
    distance from (OUT) or to (IN) the source.  Returns (depths, spans)
    aligned with ``sources``, which may be unsorted and hold duplicates:
    int64 depths, and bools that are True where the source's tree holds
    every vertex.
    """
    h = _oriented(g, direction)
    sources = _checked_sources(sources, g.n)
    if g.weighted or _per_source_wins(h, sources):
        return _dijkstra_stats(h, sources)
    return _msbfs_stats(h, sources)


def batch_depths(g: Graph, sources, direction: str = OUT) -> np.ndarray:
    """Depth of the search tree of every source (max finite distance)."""
    return batch_search_stats(g, sources, direction)[0]
