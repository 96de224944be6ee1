"""Seeded graph generators for the test and benchmark corpus.

Every family is a pure function of its GenSpec: the PRNG is numpy's PCG64
(recorded as PRNG_NAME in emitted metadata) keyed by the 64-bit seed, so
a spec regenerates the identical graph byte for byte.  Random families are
post-processed to guarantee a finite diameter: after a few resampling
attempts a random Hamiltonian backbone is overlaid (a path for undirected
graphs, a cycle for directed ones, which plain paths cannot make strongly
connected).  An attempt that leaves some vertex without an arc cannot
connect, so it builds no graph.  The structured families (path, cycle,
star, complete, grid, barbell) build their edges as one array with numpy
calls, so like gnm and gnp they hand build_graph an array without a
per-edge Python loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _key_dtype, build_graph, edge_table, finite_diameter_check

PRNG_NAME = "numpy-pcg64"
CONNECT_RETRIES = 8

FAMILIES = ("gnm", "gnp", "path", "cycle", "star", "complete", "grid",
            "barbell", "bounded_degree")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance."""

    family: str
    n: int
    m: int | None = None
    p: float | None = None
    max_degree: int | None = None
    weight_range: tuple[int, int] | None = None
    seed: int = 0
    directed: bool = False
    clique: int | None = None    # barbell: size of each end clique
    path_len: int | None = None  # barbell: number of bridge edges


def _pair_capacity(n: int, directed: bool) -> int:
    return n * (n - 1) if directed else n * (n - 1) // 2


def _rng(spec: GenSpec) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(spec.seed))


def _sample_pairs(rng, n, m, directed):
    """m distinct non-loop vertex pairs, unordered unless directed, as an
    (m, 2) array.

    Draws chunks of 2 * need + 8 pairs; within a chunk the first draw of
    a pair not chosen yet wins, in draw order, until m are chosen."""
    chosen = np.empty(0, dtype=np.int64)  # pair (u, v) as key u * n + v
    while chosen.size < m:
        need = m - chosen.size
        us = rng.integers(0, n, size=2 * need + 8)
        vs = rng.integers(0, n, size=2 * need + 8)
        if not directed:
            us, vs = np.minimum(us, vs), np.maximum(us, vs)
        keys = (us * n + vs)[us != vs]
        # each distinct key at its first draw position, in draw order: a
        # draw's position packed under its key sorts it first in its run
        bits = keys.size.bit_length()
        if dtype := _key_dtype(n * n << bits):
            packed = np.sort((keys << bits | np.arange(keys.size)).astype(dtype))
            first = packed[np.diff(packed >> bits, prepend=-1) != 0] & (1 << bits) - 1
        else:  # too wide to pack
            order = np.argsort(keys, kind="stable")
            first = order[np.diff(keys[order], prepend=-1) != 0]
        keys = keys[np.sort(first)]
        fresh = keys[~np.isin(keys, chosen)]
        chosen = np.concatenate((chosen, fresh[:need]))
    return np.column_stack(np.divmod(chosen, n))


def _backbone(rng, n, directed):
    """Random Hamiltonian path (undirected) or cycle (directed), as an
    (n - 1, 2) or (n, 2) array."""
    perm = rng.permutation(n)
    ends = np.roll(perm, -1) if directed and n > 1 else perm[1:]
    return np.column_stack((perm[:ends.size], ends))


def _misses_a_vertex(n, edges, directed):
    """True when some vertex has no out-arc or no in-arc (no edge at all
    when undirected), which proves that the loop-free ``edges`` leave a
    graph on n > 1 vertices unconnected; False proves nothing."""
    if n < 2:
        return False
    ends = (edges[:, 0], edges[:, 1]) if directed else (edges.ravel(),)
    return any(np.bincount(e, minlength=n).min() == 0 for e in ends)


def _connected_random(spec, rng, sampler):
    for _ in range(CONNECT_RETRIES):
        edges = sampler(rng)
        if _misses_a_vertex(spec.n, edges, spec.directed):
            continue
        g = build_graph(spec.n, edges, directed=spec.directed)
        if finite_diameter_check(g):
            return g
    edges = np.concatenate((sampler(rng), _backbone(rng, spec.n, spec.directed)))
    g = build_graph(spec.n, edges, directed=spec.directed)
    if not finite_diameter_check(g):
        raise RuntimeError("backbone overlay failed to connect the graph")
    return g


def _grid_dims(n: int) -> tuple[int, int]:
    r = int(math.isqrt(n))
    while r > 1 and n % r:
        r -= 1
    return r, n // r


def generate(spec: GenSpec) -> Graph:
    """Emit the graph a GenSpec describes; deterministic in spec.seed."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.n < 1:
        raise ValueError("n must be >= 1")
    if spec.m is not None and spec.m < 0:
        raise ValueError(f"m must be >= 0, got {spec.m}")
    rng = _rng(spec)
    n = spec.n
    fam = spec.family

    if fam in ("gnm", "gnp", "bounded_degree"):
        g = _random_family(spec, rng)
    else:
        if spec.directed and fam not in ("cycle", "complete"):
            raise ValueError(f"family {fam!r} is undirected-only")
        g = _structured_family(spec)

    if spec.weight_range is not None:
        lo, hi = spec.weight_range
        if not (0 <= lo <= hi):
            raise ValueError(f"bad weight range {spec.weight_range}")
        g = _attach_weights(g, rng, lo, hi)
    return g


def _random_family(spec: GenSpec, rng) -> Graph:
    n = spec.n
    if spec.family == "gnm":
        if spec.m is None:
            raise ValueError("gnm needs m")
        cap = _pair_capacity(n, spec.directed)
        if spec.m > cap:
            raise ValueError(f"m={spec.m} exceeds {cap} possible edges")
        return _connected_random(spec, rng,
                                 lambda r: _sample_pairs(r, n, spec.m, spec.directed))
    if spec.family == "gnp":
        if spec.p is None or not (0 <= spec.p <= 1):
            raise ValueError("gnp needs p in [0, 1]")
        if n > 8192:
            raise ValueError("gnp draws an n*n Bernoulli matrix; use gnm past n=8192")

        def sampler(r):
            if spec.directed:
                mask = r.random((n, n)) < spec.p
                np.fill_diagonal(mask, False)
            else:
                mask = np.triu(r.random((n, n)) < spec.p, k=1)
            return np.argwhere(mask)

        return _connected_random(spec, rng, sampler)
    # bounded_degree: Hamiltonian backbone plus random edges that respect
    # the degree bound
    if spec.max_degree is None or spec.max_degree < 2:
        raise ValueError("bounded_degree needs max_degree >= 2")
    target = spec.m if spec.m is not None else n
    deg_cap = spec.max_degree
    # every edge takes up two degree slots, so no draw could reach more
    cap = min(n * deg_cap // 2, _pair_capacity(n, spec.directed))
    if spec.m is not None and spec.m > cap:
        raise ValueError(f"m={spec.m} exceeds {cap} possible edges at "
                         f"max_degree={deg_cap}")
    backbone = _backbone(rng, n, spec.directed)
    if not spec.directed:
        backbone.sort(axis=1)
    edges = set(map(tuple, backbone.tolist()))
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    attempts = 0
    while len(edges) < target and attempts < 20 * target:
        attempts += 1
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v or deg[u] >= deg_cap or deg[v] >= deg_cap:
            continue
        key = (u, v) if spec.directed else (min(u, v), max(u, v))
        if key in edges:
            continue
        edges.add(key)
        deg[u] += 1
        deg[v] += 1
    if spec.m is not None and len(edges) < spec.m:
        # the capped draws can strand free degree slots on adjacent vertices
        raise ValueError(f"bounded_degree placed {len(edges)} of m={spec.m} "
                         f"edges at max_degree={deg_cap}")
    g = build_graph(n, sorted(edges), directed=spec.directed)
    if not finite_diameter_check(g):
        raise RuntimeError("bounded_degree backbone failed to connect")
    return g


def _path_edges(first: int, last: int) -> np.ndarray:
    """The edges (i, i + 1) for i in [first, last), as an array."""
    i = np.arange(first, last, dtype=np.int64)
    return np.column_stack((i, i + 1))


def _structured_family(spec: GenSpec) -> Graph:
    n = spec.n
    fam = spec.family
    if fam == "path":
        return build_graph(n, _path_edges(0, n - 1))
    if fam == "cycle":
        # at n = 2 an undirected cycle's two edges collapse to one
        i = np.arange(n, dtype=np.int64)
        return build_graph(n, np.column_stack((i, np.roll(i, -1))),
                           directed=spec.directed)
    if fam == "star":
        return build_graph(n, np.column_stack((np.zeros(n - 1, dtype=np.int64),
                                               np.arange(1, n))))
    if fam == "complete":
        edges = (np.argwhere(~np.eye(n, dtype=bool)) if spec.directed
                 else np.column_stack(np.triu_indices(n, 1)))
        return build_graph(n, edges, directed=spec.directed)
    if fam == "grid":
        ids = np.arange(n, dtype=np.int64).reshape(_grid_dims(n))
        edges = [np.column_stack((a.ravel(), b.ravel()))
                 for a, b in ((ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:]))]
        return build_graph(n, np.concatenate(edges))
    if fam == "barbell":
        if spec.clique is None and spec.path_len is None:
            if n < 4:
                raise ValueError("barbell needs n >= 4")
            c = max(2, n // 3)
            bridge = n - 2 * c + 1
        else:
            c = spec.clique if spec.clique is not None else 2
            bridge = spec.path_len if spec.path_len is not None else 1
        if c < 2 or bridge < 1:
            raise ValueError("barbell needs clique >= 2 and path_len >= 1")
        total = 2 * c + bridge - 1
        if n != total:
            raise ValueError(
                f"barbell with clique={c}, path_len={bridge} has {total} "
                f"vertices, but n={n} was given")
        clique = np.column_stack(np.triu_indices(c, 1))
        # clique A, clique B and the bridge from the last vertex of A to
        # the first of B
        return build_graph(n, np.concatenate(
            (clique, clique + c + bridge - 1, _path_edges(c - 1, c + bridge - 1))))
    raise AssertionError(fam)


def _attach_weights(g: Graph, rng, lo: int, hi: int) -> Graph:
    edges = edge_table(g)
    wts = rng.integers(lo, hi + 1, size=len(edges))
    return build_graph(g.n, np.column_stack((edges, wts)), directed=g.directed)


def spec_metadata(spec: GenSpec) -> str:
    """Comment block recording how an emitted graph was produced."""
    fields = [f"family={spec.family}", f"n={spec.n}"]
    if spec.m is not None:
        fields.append(f"m={spec.m}")
    if spec.p is not None:
        fields.append(f"p={spec.p}")
    if spec.max_degree is not None:
        fields.append(f"max_degree={spec.max_degree}")
    if spec.weight_range is not None:
        fields.append(f"weights={spec.weight_range[0]}:{spec.weight_range[1]}")
    if spec.clique is not None:
        fields.append(f"clique={spec.clique}")
    if spec.path_len is not None:
        fields.append(f"path_len={spec.path_len}")
    fields.append(f"seed={spec.seed}")
    fields.append(f"directed={int(spec.directed)}")
    fields.append(f"prng={PRNG_NAME}")
    return "# " + " ".join(fields) + "\n"
