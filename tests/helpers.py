"""Reference oracles and graph makers for the test suite.

Everything here is deliberately independent of the library's search and
oracle code paths: distances come from a plain Floyd-Warshall recurrence
and set queries from brute-force scans, so the tests cross-check two
implementations rather than one against itself.
"""
from __future__ import annotations

import numpy as np

from diamest import IN, OUT, build_graph, nearest_s


def fw_apsp(g):
    """All-pairs distances by the Floyd-Warshall recurrence (float, inf)."""
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    if g.arc_count:
        rows = np.repeat(np.arange(n), np.diff(g.indptr))
        w = (np.ones(rows.size) if g.weights is None
             else g.weights.astype(np.float64))
        d[rows, g.indices] = np.minimum(d[rows, g.indices], w)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def has_edge(g, u, v):
    return int(v) in g.neighbors(u).tolist()


def arc_weights(g, v):
    """Weights of v's out-arcs, in the order of ``g.neighbors(v)``."""
    return g.weights[g.indptr[v]:g.indptr[v + 1]]


def fw_diameter(g):
    """(finite, D) from the Floyd-Warshall matrix."""
    d = fw_apsp(g)
    if np.isinf(d).any():
        return False, None
    return True, int(d.max())


def random_edges(rng, n, m, directed=False):
    cap = n * (n - 1) if directed else n * (n - 1) // 2
    m = min(m, cap)
    seen = {}
    while len(seen) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        seen.setdefault(key, None)
    return list(seen)


def random_graph(rng, n, m, directed=False, weight_hi=0, connected=False):
    """Random graph built straight from sampled pairs (no generator module).

    With ``connected`` a random permutation backbone (path, or cycle when
    directed) guarantees a finite diameter.
    """
    edges = random_edges(rng, n, m, directed)
    if connected and n > 1:
        perm = rng.permutation(n)
        backbone = [(int(perm[i]), int(perm[i + 1])) for i in range(n - 1)]
        if directed:
            backbone.append((int(perm[-1]), int(perm[0])))
        have = set(edges)
        for u, v in backbone:
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key not in have:
                edges.append(key)
                have.add(key)
    if weight_hi:
        edges = [(u, v, int(rng.integers(1, weight_hi + 1))) for u, v in edges]
    return build_graph(n, edges, directed=directed)


def path_graph(n, weights=None):
    if weights is None:
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    return build_graph(n, [(i, i + 1, w) for i, w in zip(range(n - 1), weights)])


def cycle_graph(n, directed=False):
    if n == 2 and not directed:
        return build_graph(2, [(0, 1)])
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], directed=directed)


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n, center=0):
    return build_graph(n, [(center, v) for v in range(n) if v != center])


def decompose(d):
    """Split a diameter into (h, z) with d = 3h + z, z in {0, 1, 2}."""
    return d // 3, d % 3


def greedy_hitting_set_reference(members, n):
    """Greedy hitting set by a full recount per pick: every pick counts the
    members of all not-yet-hit rows afresh and takes the most frequent
    vertex, ties to the smallest id."""
    n_sets, s = members.shape
    flat = members.ravel()
    rows = np.repeat(np.arange(n_sets), s)
    covered = np.zeros(n_sets, dtype=bool)
    picks = []
    while True:
        alive = ~covered[rows]
        if not alive.any():
            break
        counts = np.bincount(flat[alive], minlength=n)
        pick = int(np.argmax(counts))
        picks.append(pick)
        covered |= (members == pick).any(axis=1)
    return np.asarray(picks, dtype=np.int64)


def dense_pairs_reference(g, s):
    """Every (u, v, bound) with u != v that the dense pair scan accepts.

    Both truncated trees (the vertices strictly inside the near-set radius)
    come from one ``nearest_s`` call per vertex and are compared as Python
    sets: the pair passes when the trees share no vertex and no arc runs
    from u's tree into v's.  The bound is radius_out(u) + radius_in(v).
    Sorted by (u, v).
    """
    def tree(near):
        return set(near.members[near.member_dists < near.radius].tolist())

    outs = [nearest_s(g, u, s, OUT) for u in range(g.n)]
    ins = [nearest_s(g, v, s, IN) for v in range(g.n)]
    in_trees = [tree(near) for near in ins]
    hits = []
    for u in range(g.n):
        tree_out = tree(outs[u])
        reach = tree_out | {y for x in tree_out
                            for y in g.neighbors(x).tolist()}
        for v in range(g.n):
            if u != v and not reach & in_trees[v]:
                hits.append((u, v, outs[u].radius + ins[v].radius))
    return hits


def fit_time_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def parse_metadata(text):
    """The key=value lines of a reduction's ``.meta`` file as a dict."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out
