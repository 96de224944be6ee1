"""Diameter approximation estimators with provable floors.

Every estimator returns an :class:`Estimate` whose value is the depth of a
real shortest-path tree (or a certified pair distance) in the input graph,
so the value never exceeds the true diameter.  The individual lower-bound
guarantees are documented per function in terms of the decomposition
D = 3h + z with h >= 0 and z in {0, 1, 2}.

All tie-breaks are by smallest vertex id and randomness is consumed only
in single-threaded setup (sampling), so a fixed seed and input yield a
bit-identical Estimate regardless of how the per-source searches are
scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, GraphError, InfiniteDiameterError, UNREACHED,
                    finite_diameter_check)
from .oracle import exact_diameter
from .search import (IN, OUT, batch_depths, near_sets, nearest_in_set,
                     nearest_s, search, _gather, _key_dtype, _runs)

DEFAULT_SAMPLE_CONST = 2.0
DEFAULT_SAMPLING_EPSILON = 0.5
DEFAULT_SAMPLING_DELTA = 0.25
DEFAULT_RERUN_CAP = 64

_FLIP = {OUT: IN, IN: OUT}

# The greedy hitting set makes this many picks at one count by argmax
# before it settles the rest of that count's vertices in one pass.  Of
# 1, 2, 4, 8 and 16, 4 kept the greedy on corpus-small's aingworth tables
# within 1-4% of one argmax per pick and about halved it on the nearset
# graphs at s = 2 (2-core host).
_BAND_PICKS = 4


class RestartLimitError(RuntimeError):
    """The Las Vegas verification loop hit its safety cap (pathological)."""


@dataclass(frozen=True)
class Witness:
    """Certificate for an estimate.

    kind "tree": the estimate is the depth of the (source, direction)
    search tree.  kind "pair": the estimate is the certified lower bound
    for the scan pair (u, v).  kind "distance": the estimate came from a
    distance-oracle maximum at pair (a, b).
    """

    kind: str
    source: int | None = None
    direction: str | None = None
    pair: tuple[int, int] | None = None

    def describe(self) -> str:
        if self.kind == "tree":
            return f"tree:{self.direction}:{self.source}"
        return f"{self.kind}:{self.pair[0]},{self.pair[1]}"


@dataclass(frozen=True)
class Estimate:
    """An estimator's output: value, certificate and the parameters used."""

    value: int
    method: str
    witness: Witness
    reruns: int = 0
    params: tuple[tuple[str, object], ...] = ()

    def param(self, name, default=None):
        for key, val in self.params:
            if key == name:
                return val
        return default


def _params(**kw) -> tuple:
    return tuple(kw.items())


def _iceil(x: float) -> int:
    """Ceiling with a tiny backlash so 8**(1/3) style floats stay exact."""
    return max(1, math.ceil(x - 1e-9))


def _sample_size(x: float, n: int) -> int:
    """ceil(x), at least 1 and at most n; clamped first, so x = inf is n."""
    return max(1, math.ceil(min(x, n)))


def _require_finite(g: Graph):
    if not finite_diameter_check(g):
        raise InfiniteDiameterError("graph has infinite diameter")


def _covers(g: Graph, sources: np.ndarray) -> bool:
    """Whether the distinct ``sources`` are every vertex of ``g``.  On a
    finite graph the deepest of their OUT trees is then the diameter, so no
    later offer can beat it, nor, as ties keep the earlier offer, replace
    it: the estimator may stop after that batch."""
    return sources.size == g.n


def _require_unweighted(g: Graph, what: str):
    if g.weighted:
        raise GraphError(f"{what} requires an unweighted graph")


def _require_sample_const(sample_const: float):
    if sample_const > 0 and math.isinf(sample_const):
        raise ValueError("sample_const must be finite, got infinity")
    if not sample_const > 0:  # also NaN
        raise ValueError(f"sample_const must be > 0, got {sample_const}")


def _clamp_s(g: Graph, s, default: int) -> int:
    if s is None:
        s = default
    return min(max(1, int(s)), g.n)


class _Deepest:
    """Running maximum over tree depths; ties keep the earliest offer and,
    inside one batch, the smallest source id."""

    __slots__ = ("depth", "source", "direction")

    def __init__(self):
        self.depth = -1
        self.source = 0
        self.direction = OUT

    def offer(self, depth: int, source: int, direction: str):
        if depth > self.depth:
            self.depth = depth
            self.source = source
            self.direction = direction

    def offer_batch(self, depths: np.ndarray, sources: np.ndarray, direction: str):
        if depths.size == 0:
            return
        top = int(depths.max())
        if top > self.depth:
            self.offer(top, int(sources[depths == top].min()), direction)

    def witness(self) -> Witness:
        return Witness("tree", source=self.source, direction=self.direction)


# ---- shared machinery -------------------------------------------------------

def _near_sets_all(g: Graph, s: int):
    """members[v], dists[v] = the s closest out-vertices of every v."""
    members, mdists = near_sets(g, np.arange(g.n), s, OUT)
    short = np.flatnonzero(mdists[:, -1] == UNREACHED)
    if short.size:
        v = short[0]
        raise InfiniteDiameterError(
            f"graph has infinite diameter: vertex {v} reaches only "
            f"{np.count_nonzero(members[v] >= 0)} vertices")
    return members, mdists


def _greedy_hitting_set(members: np.ndarray, n: int) -> np.ndarray:
    """Deterministic greedy hitting set for the near-set family.

    Repeatedly picks the vertex contained in the most not-yet-hit sets
    (ties to the smallest id); size O((n/s) log n) by the usual covering
    argument since every set has s members.  Each row of ``members`` is
    a set: it lists s distinct vertices in [0, n).

    This is the incremental greedy set cover (Chvatal 1979): ``counts``
    holds, per vertex, the number of unhit rows that contain it, and an
    index from each vertex to its rows lets a pick subtract only the
    members of the rows it newly hits.  Setup is O(n s) plus one sort of
    the n s (vertex, row) keys.

    Picks go by count level, the count of the vertices picked.  A pick
    costs one O(n) argmax and the members of the rows it newly hits.
    After _BAND_PICKS picks at one count, the band, every vertex of that
    count, is settled at once when it is sure to hold _BAND_PICKS more
    picks.  This is exact: every band vertex has exactly ``top`` unhit
    rows and counts only fall, so walking the band by id, a vertex is
    the next greedy pick exactly when no pick made earlier in the walk
    hit one of its rows.  Its count is then still the largest and every
    smaller id has been picked or has dropped; a vertex whose row was hit
    drops below the level and waits for a later one.  The walk starts by
    taking every band vertex that is the smallest band vertex in each of
    its rows: no earlier band vertex shares a row with it, so the walk
    picks it whatever it decides before it, and their rows, disjoint, are
    hit at once.  Such a level costs one O(n) band scan instead of an
    argmax per pick; at s = 2 the greedy has about a dozen levels.
    """
    n_sets, s = members.shape
    flat = members.ravel()
    counts = np.bincount(flat, minlength=n)
    # rows_of[start[v]:start[v + 1]] are the rows that contain v; a sort
    # of (vertex, row) keys is 2-3x as fast as an argsort of the members;
    # in int32, where they fit, the sort and the modulo take half as long
    key = _key_dtype(n * n_sets)
    rows_of = (np.sort(flat.astype(key, copy=False) * n_sets
                       + np.repeat(np.arange(n_sets, dtype=key), s))
               % n_sets).astype(np.intp, copy=False)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    covered = np.zeros(n_sets, dtype=bool)

    def hit(rows):
        covered[rows] = True
        # against a length-n bincount per pick: 1.5-1.8x as fast at s = 2
        # (n = 4096, 16384), within 5% at s = 64 and 128
        np.subtract.at(counts, members[rows].ravel(), 1)

    def settle(band, top):
        """The picks of the whole band at count ``top``, in id order."""
        # its unhit rows, sorted by (row, owner), show which vertices lead
        # every row they are in
        cnt = start[band + 1] - start[band]
        rows = rows_of[_runs(start[band], cnt)]
        owner = np.repeat(np.arange(band.size), cnt)
        live = ~covered[rows]
        rows, owner = rows[live], owner[live]
        pair = np.sort(rows * band.size + owner)
        row = pair // band.size
        late = np.zeros(band.size, dtype=bool)
        late[(pair - row * band.size)[1:][row[1:] == row[:-1]]] = True
        hit(rows[~late[owner]])
        taken = band[~late].tolist()
        band = band[late]
        for v in band[counts[band] == top].tolist():
            if counts[v] == top:
                rows = rows_of[start[v]:start[v + 1]]
                hit(rows[~covered[rows]])
                taken.append(v)
        return sorted(taken)

    picks = []
    level, run = n_sets + 1, 0  # the count of the last pick, and its picks
    while True:
        pick = int(counts.argmax())
        top = counts[pick]
        if top <= 0:  # every row is hit
            break
        if top < level:
            level, run = top, 0
        elif run == _BAND_PICKS:
            # each pick rejects at most top * (s - 1) band vertices, so the
            # band holds at least band.size / (top * (s - 1) + 1) picks
            band = np.flatnonzero(counts == top)
            if band.size >= _BAND_PICKS * (top * (s - 1) + 1):
                picks += settle(band, top)
                continue
        rows = rows_of[start[pick]:start[pick + 1]]
        hit(rows[~covered[rows]])
        picks.append(pick)
        run += 1
    return np.asarray(picks, dtype=np.int64)


def _depths(g: Graph, out_sources: np.ndarray, in_sources: np.ndarray):
    """OUT-tree depths of ``out_sources`` and IN-tree depths of
    ``in_sources``: the batching rule of every sweep.  A directed graph
    runs a batch per nonempty side.  On an undirected one in-trees are
    out-trees, so one OUT batch serves both sides."""
    if not g.directed:
        d = batch_depths(g, np.concatenate((out_sources, in_sources)), OUT)
        return d[:out_sources.size], d[out_sources.size:]
    # an empty side runs no batch: it is its own empty result
    return tuple(batch_depths(g, src, way) if src.size else src
                 for src, way in ((out_sources, OUT), (in_sources, IN)))


def _aingworth_sweep(g: Graph, s: int):
    """One full run of the near-set estimator on ``g``.

    Computes every vertex's s-nearest out-set, searches outward from the
    vertex with the largest near-set radius, inward from that vertex's
    near set, and outward from a greedy hitting set of all near sets.
    Returns (tracker, members, member_dists); the latter two let callers
    reuse the truncated trees.
    """
    members, mdists = _near_sets_all(g, s)
    w = int(np.argmax(mdists[:, -1]))
    hitters = _greedy_hitting_set(members, g.n)
    near_w = members[w]
    out, in_depths = _depths(g, np.concatenate(([w], hitters)), near_w)
    # the offers go w, near set of w, hitters: the order that decides
    # ties between equal depths
    tracker = _Deepest()
    tracker.offer(int(out[0]), w, OUT)
    tracker.offer_batch(in_depths, near_w, IN)
    tracker.offer_batch(out[1:], hitters, OUT)
    return tracker, members, mdists


def _pivot_sweep(g: Graph, hitters: np.ndarray, radius: int | None, size: int):
    """The sweep of the pivot estimators, rv and sparse.

    Searches out of ``hitters``, picks the vertex w farthest from them
    (vertex 0 if there are none) and searches into w's ball: its first
    ``size`` vertices in (distance, id) order, w's near set, cut at
    min(``radius``, d(w, hitters)) when a ``radius`` is given.  Returns
    the tracker, or None, before any batch, when the hitters miss the
    near set.  Hitters that are every vertex end the sweep (_covers).
    The offers go hitters, w, ball: the order that decides ties.
    """
    tracker = _Deepest()
    if _covers(g, hitters):
        tracker.offer_batch(_depths(g, hitters, hitters[:0])[0], hitters, OUT)
        return tracker
    w, reach = 0, UNREACHED
    if hitters.size:
        to_hitters = nearest_in_set(g, hitters, OUT)
        w = int(np.argmax(to_hitters))
        reach = int(to_hitters[w])
    tree = search(g, w, OUT)
    ball = tree.order[:size]
    if size < g.n and not np.intersect1d(hitters, ball,
                                         assume_unique=True).size:
        return None
    if radius is not None:
        ball = ball[:np.searchsorted(tree.dist[ball], min(radius, reach),
                                     side="right")]
    out, into = _depths(g, hitters, ball)
    tracker.offer_batch(out, hitters, OUT)
    tracker.offer(tree.depth, w, OUT)
    tracker.offer_batch(into, ball, IN)
    return tracker


# ---- estimators -------------------------------------------------------------

def two_approx(g: Graph) -> Estimate:
    """Max of the out- and in-eccentricity of vertex 0.

    Any vertex's eccentricity (in the better direction) is at least half
    the diameter, so ceil(D/2) <= value <= D.  The two trees also decide
    finiteness, as finite_diameter_check would: the diameter is finite iff
    both reach every vertex.
    """
    if g.n == 0:
        _require_finite(g)  # names the empty graph
    tracker = _Deepest()
    # undirected: the IN tree is the OUT tree
    for direction in (OUT, IN) if g.directed else (OUT,):
        tree = search(g, 0, direction)
        if tree.reached < g.n:
            raise InfiniteDiameterError("graph has infinite diameter")
        tracker.offer(tree.depth, 0, direction)
    return Estimate(tracker.depth, "two-approx", tracker.witness())


def aingworth(g: Graph, s: int | None = None) -> Estimate:
    """Deterministic near-set estimator (Aingworth et al. style).

    On unweighted graphs with D = 3h + z the value is at least 2h+z for
    z in {0, 1} and at least 2h+1 for z = 2, in particular always
    >= floor(2D/3).  Weighted input is accepted (Dijkstra searches) and
    stays upper-sound, but only the unweighted floor is guaranteed.
    Default s = ceil(sqrt(n)).
    """
    _require_finite(g)
    s = _clamp_s(g, s, _iceil(math.sqrt(g.n)))
    tracker, _, _ = _aingworth_sweep(g, s)
    return Estimate(tracker.depth, "aingworth", tracker.witness(),
                    params=_params(s=s))


def _sampled_core(g, s, seed, sample_const, method):
    _require_sample_const(sample_const)
    _require_finite(g)
    n = g.n
    s = _clamp_s(g, s, _iceil(math.sqrt(n)))
    size = _sample_size(sample_const * (n / s) * math.log(n), n)
    # at s = 1 w's near set is w, and w, farthest from a sample that misses
    # a vertex, is outside it unless a zero-weight arc ties it to the sample
    if s == 1 and size < n and not (g.weighted and g.weights.min() == 0):
        raise ValueError(f"s=1 needs a sample of every vertex, got "
                         f"sample_size={size} of n={n}")
    rng = np.random.default_rng(seed)
    for rerun in range(DEFAULT_RERUN_CAP + 1):
        sample = np.sort(rng.choice(n, size=size, replace=False))
        tracker = _pivot_sweep(g, sample, None, s)
        if tracker is not None:  # else the sample missed the near set
            return Estimate(tracker.depth, method, tracker.witness(), rerun,
                            _params(s=s, seed=seed, sample_const=sample_const,
                                    sample_size=size))
    raise RestartLimitError(
        f"hitting-sample verification failed {DEFAULT_RERUN_CAP + 1} times")


def sampled_estimate(g: Graph, s: int | None = None, seed: int = 0,
                     sample_const: float = DEFAULT_SAMPLE_CONST) -> Estimate:
    """Las Vegas near-set estimator using a random hitting sample.

    Replaces the all-vertices near-set computation with a random sample of
    ceil(sample_const * (n/s) * ln n) vertices (capped at n) and pivots on
    the vertex farthest from the sample.  Before returning, verifies the
    sample actually hits the pivot's near set and reruns otherwise, so the
    returned value satisfies the same floors as :func:`aingworth`
    unconditionally; ``reruns`` records the restarts.
    """
    _require_unweighted(g, "sampled_estimate")
    return _sampled_core(g, s, seed, sample_const, "rv")


def sampled_estimate_weighted(g: Graph, s: int | None = None, seed: int = 0,
                              sample_const: float = DEFAULT_SAMPLE_CONST
                              ) -> Estimate:
    """Weighted variant of :func:`sampled_estimate` (Dijkstra searches).

    Identical control flow; unweighted graphs degenerate to the unit-cost
    behavior.  Guarantees floor(2D/3) <= value <= D up to the snap of the
    path split to a vertex, which can cost one edge weight.
    """
    return _sampled_core(g, s, seed, sample_const, "rv-weighted")


def dense_estimate(g: Graph, s: int | None = None) -> Estimate:
    """Near-set estimator sharpened by a disjoint-trees pair scan.

    Runs the near-set sweep on the graph and its reverse, then scans all
    ordered pairs (u, v): when u's truncated out-tree and v's truncated
    in-tree share no vertex and no edge runs between them, every u-v path
    must cross both tree boundaries, certifying d(u, v) >= radius_out(u) +
    radius_in(v).  With D = 3h + z and h >= 1 the value is at least 2h+z
    for every z, i.e. >= ceil(2D/3).  Default s = ceil((m/n)^(1/3)).
    """
    _require_unweighted(g, "dense_estimate")
    _require_finite(g)
    s = _clamp_s(g, s, _iceil((g.m / g.n) ** (1.0 / 3.0)) if g.m else 1)
    # rows of the sweep on g are out-trees, rows of the one on its reverse
    # are in-trees; an undirected graph is its own reverse
    fwd = _aingworth_sweep(g, s)
    rev = _aingworth_sweep(g.reverse(), s) if g.directed else fwd
    (fwd_tr, out_members, out_dists), (rev_tr, in_members, in_dists) = fwd, rev
    radii_out, radii_in = out_dists[:, -1], in_dists[:, -1]
    tracker = _Deepest()
    tracker.offer(fwd_tr.depth, fwd_tr.source, fwd_tr.direction)
    tracker.offer(rev_tr.depth, rev_tr.source, _FLIP[rev_tr.direction])
    value = tracker.depth
    witness = tracker.witness()
    max_in = int(radii_in.max())
    # value only grows, so a u pruned now stays pruned; the bitsets are
    # built for the survivors alone, and not at all when none survives
    scan = np.flatnonzero(radii_out + max_in > value)
    if scan.size:
        in_bits = _tree_bitsets(in_members, in_dists, g.n)
        reach_bits = _tree_bitsets(out_members[scan], out_dists[scan], g.n, g)
        for u, reach in zip(scan.tolist(), reach_bits):
            if radii_out[u] + max_in <= value:
                continue
            allowed = ~np.bitwise_and(in_bits, reach).any(axis=1)
            if not allowed.any():
                continue
            top = int(radii_in[allowed].max())
            total = int(radii_out[u]) + top
            if total > value:
                v = int(np.flatnonzero(allowed & (radii_in == top))[0])
                value = total
                witness = Witness("pair", pair=(u, v))
    return Estimate(value, "dense", witness, params=_params(s=s))


def _truncated_tree(members_row, dists_row):
    """Vertices strictly inside the near-set radius (< s of them)."""
    return members_row[dists_row < dists_row[-1]]


def _tree_bitsets(members, mdists, n, g: Graph | None = None):
    """Row i: bitset of the truncated tree of near set i.

    With ``g``, each row also holds the tree's out-neighbors in ``g``, its
    closed reach.  A pair passes the scan iff the closed reach of one side
    is disjoint from the other side's tree: that encodes both "no shared
    vertex" and "no edge between the trees" in one word-wise AND.
    """
    rows, cols = np.nonzero(mdists < mdists[:, -1:])
    verts = members[rows, cols]
    if g is not None:
        nbrs, counts = _gather(g.indptr, g.indices, verts)
        rows = np.concatenate([rows, np.repeat(rows, counts)])
        verts = np.concatenate([verts, nbrs])
    bits = np.zeros((len(members), (n + 63) >> 6), dtype=np.uint64)
    np.bitwise_or.at(bits, (rows, verts >> 6),
                     np.uint64(1) << (verts & 63).astype(np.uint64))
    return bits


def _sparse(g: Graph, hint: int, delta: int, **extra) -> Estimate:
    """The sweep and Estimate of both sparse forms, on input they checked."""
    tracker = _pivot_sweep(g, np.flatnonzero(g.out_degrees >= delta), hint + 1, g.n)
    return Estimate(tracker.depth, "sparse", tracker.witness(),
                    params=_params(htilde=hint, delta=delta, **extra))


def sparse_estimate(g: Graph, depth_hint: int, degree_threshold: int) -> Estimate:
    """Degree-threshold estimator for sparse graphs.

    Searches outward from every vertex of out-degree >= degree_threshold,
    picks the vertex w farthest from that set, and searches inward from
    the ball around w of radius min(depth_hint + 1, d(w, high-degree
    set)).  If depth_hint >= h (for D = 3h + z) the value is at least
    2h+z for every z; the value never exceeds D regardless.
    """
    _require_unweighted(g, "sparse_estimate")  # then htilde, delta, finiteness
    if depth_hint < 0 or degree_threshold < 1:
        raise ValueError(f"sparse needs htilde >= 0 and delta >= 1, got "
                         f"htilde={depth_hint}, delta={degree_threshold}")
    _require_finite(g)
    return _sparse(g, depth_hint, degree_threshold)


def sparse_driver(g: Graph) -> Estimate:
    """Self-tuning wrapper for :func:`sparse_estimate`.

    Derives the depth hint from a 2-approximation E: since E >= D/2 and
    h <= D/3, the integer floor(2E/3) is always >= h, which is exactly
    what :func:`sparse_estimate` needs for its floor.  The degree
    threshold follows as m**(1/(2*hint+3)); the result is always
    >= ceil(2D/3).  two_approx has checked finiteness on the way.
    """
    _require_unweighted(g, "sparse_estimate")  # before two_approx searches
    base = two_approx(g)
    hint = (2 * base.value) // 3
    return _sparse(g, hint, _iceil(g.m ** (1.0 / (2 * hint + 3))) if g.m else 1,
                   two_approx=base.value)


def four_fifths_estimate(g: Graph, distance_oracle=None) -> Estimate:
    """Undirected estimator with floor(4D/5) <= value <= D.

    ``distance_oracle`` maps a graph to (distance_matrix, additive_error)
    with additive_error in {0, 2}.  By default the exact diameter (error
    0), streamed through one search per vertex without a distance matrix,
    stands in for an additive-2 scheme; its witness is the same
    lexicographically smallest farthest pair a matrix argmax would give.
    The oracle maximum minus its error bound is returned directly when it
    is >= 4; the value 3 case falls back to the pair-scan estimator and
    <= 2 to the near-set estimator, which cover the remaining small
    diameters.
    """
    if g.directed:
        raise GraphError("four_fifths_estimate requires an undirected graph")
    _require_unweighted(g, "four_fifths_estimate")
    _require_finite(g)
    if distance_oracle is None:
        exact = exact_diameter(g)
        top, (a, b), err = exact.diameter, exact.witness, 0
    else:
        dmat, err = distance_oracle(g)
        if err not in (0, 2):
            raise ValueError(f"additive error bound must be 0 or 2, got {err}")
        top = int(dmat.max())
        a, b = (int(x) for x in divmod(int(np.argmax(dmat)), g.n))
    dhat = max(0, top - err)
    if dhat >= 4:
        return Estimate(dhat, "four-fifths", Witness("distance", pair=(a, b)),
                        params=_params(eps=err, dhat=dhat, branch="direct"))
    if dhat == 3:
        sub = dense_estimate(g)
        branch = "dense"
    else:
        sub = aingworth(g)
        branch = "near"
    extra = _params(eps=err, dhat=dhat, branch=branch) + sub.params
    if sub.value > dhat:
        return Estimate(sub.value, "four-fifths", sub.witness, params=extra)
    return Estimate(dhat, "four-fifths", Witness("distance", pair=(a, b)),
                    params=extra)


def sampling_estimate(g: Graph, epsilon: float = DEFAULT_SAMPLING_EPSILON,
                      delta: float = DEFAULT_SAMPLING_DELTA, seed: int = 0,
                      sample_const: float = DEFAULT_SAMPLE_CONST) -> Estimate:
    """Random-sample estimator for large diameters.

    Takes ceil(sample_const * n**(1-epsilon) * ln(n) / delta) random
    vertices (capped at n) and returns the deepest of their out/in trees.
    Always <= D; when D >= n**epsilon the value is >= (1-delta)*D with
    high probability, because some sample lands near a diameter endpoint.
    """
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie strictly between 0 and 1")
    _require_sample_const(sample_const)
    _require_finite(g)
    n = g.n
    size = _sample_size(sample_const * n ** (1 - epsilon) * math.log(n)
                        / delta, n)
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(n, size=size, replace=False))
    tracker = _Deepest()
    tracker.offer_batch(batch_depths(g, sample, OUT), sample, OUT)
    # undirected: IN depths equal OUT ones, and ties keep OUT
    if g.directed and not _covers(g, sample):
        tracker.offer_batch(batch_depths(g, sample, IN), sample, IN)
    return Estimate(tracker.depth, "sampling", tracker.witness(),
                    params=_params(epsilon=epsilon, delta=delta, seed=seed,
                                   sample_const=sample_const, sample_size=size))


# ---- witness verification ---------------------------------------------------

def recompute_witness(g: Graph, est: Estimate) -> int:
    """Recompute the quantity an estimate's witness certifies.

    Tree witnesses reproduce the value exactly with one search.  Scan-pair
    witnesses re-derive both truncated trees, re-check the disjointness
    condition and return the certified bound.  Distance witnesses return
    the exact pair distance (equal to the value for an error-0 oracle).
    """
    w = est.witness
    if w.kind == "tree":
        return search(g, w.source, w.direction).depth
    if w.kind == "pair":
        s = int(est.param("s"))
        u, v = w.pair
        out_near = nearest_s(g, u, s, OUT)
        in_near = nearest_s(g, v, s, IN)
        tree_out = _truncated_tree(out_near.members, out_near.member_dists)
        tree_in = _truncated_tree(in_near.members, in_near.member_dists)
        if np.intersect1d(tree_out, tree_in).size:
            raise ValueError("scan pair invalid: trees intersect")
        inside = set(tree_in.tolist())
        for x in tree_out:
            if any(int(y) in inside for y in g.neighbors(int(x))):
                raise ValueError("scan pair invalid: edge between trees")
        return out_near.radius + in_near.radius
    if w.kind == "distance":
        a, b = w.pair
        return int(search(g, a, OUT).dist[b])
    raise ValueError(f"unknown witness kind {w.kind!r}")
