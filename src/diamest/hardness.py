"""Adversarial 2-vs-3 diameter instances from dominating-set structure.

Given an undirected graph G and a subset size k, the construction takes
one node per vertex of G (made into a clique) plus one node per k-subset
of vertices, connecting a subset node to exactly the clique nodes it does
NOT dominate.  Any diameter estimator sharper than 3/2 must then decide
whether some union of two k-subsets dominates G: the derived graph has
diameter 2 precisely when no 2k-vertex dominating set exists, and 3 when
one does.  The instance ships with that expected diameter and a
certificate so estimator stress tests can check both sides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, GraphError, build_graph

NODE_CAP_DEFAULT = 10 ** 6


@dataclass(frozen=True, eq=False)
class ReductionInstance:
    """A constructed 2-vs-3 instance plus bookkeeping.

    ``subsets`` lists the k-subsets in colex order; derived node ``base_n +
    i`` stands for ``subsets[i]`` while nodes below ``base_n`` are the
    clique copies of the original vertices.  ``early_exit`` carries a
    dominating k-subset when one was found during construction (the
    derived graph is then not emitted).  ``certificate`` is a dominating
    set of at most 2k vertices when ``expected_diameter`` is 3, else None.
    """

    gprime: Graph | None
    k: int
    base_n: int
    subsets: tuple[tuple[int, ...], ...]
    early_exit: tuple[int, ...] | None
    expected_diameter: int | None
    certificate: tuple[int, ...] | None


def _closed_neighborhood_masks(g: Graph) -> list[int]:
    masks = []
    for v in range(g.n):
        m = 1 << v
        for u in g.neighbors(v):
            m |= 1 << int(u)
        masks.append(m)
    return masks


def _colex_subsets(n: int, k: int):
    """All k-subsets of range(n) in colex order (compare largest element
    first); matches the subset-node numbering of the construction."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex_subsets(top, k - 1):
            yield rest + (top,)


def brute_force_dominating_set(g: Graph, k: int):
    """Lexicographically first k-subset whose closed neighborhoods cover
    every vertex, or None.  Domination uses closed neighborhoods: a vertex
    is dominated if it is in the set or adjacent to a member."""
    if g.directed:
        raise GraphError("dominating set search requires an undirected graph")
    if not (0 <= k <= g.n):
        raise ValueError(f"k must be in [0, {g.n}], got {k}")
    full = (1 << g.n) - 1
    masks = _closed_neighborhood_masks(g)
    for cand in combinations(range(g.n), k):
        cover = 0
        for v in cand:
            cover |= masks[v]
        if cover == full:
            return tuple(cand)
    return None


def build_diameter_instance(g: Graph, k: int,
                            node_cap: int = NODE_CAP_DEFAULT) -> ReductionInstance:
    """Construct the 2-vs-3 instance for (g, k).

    While wiring each subset node we check whether its subset already
    dominates g; if so construction stops early (the decision is trivial)
    and ``early_exit`` reports the witness.  Otherwise the expected
    diameter is decided by brute force over min(2k, n)-subsets.
    """
    if g.directed:
        raise GraphError("the reduction requires an undirected graph")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > g.n:
        raise ValueError(f"k={k} exceeds vertex count {g.n}")
    n = g.n
    total_nodes = math.comb(n, k) + n
    if total_nodes > node_cap:
        raise ValueError(
            f"instance would have {total_nodes} nodes, above the cap {node_cap}")

    full = (1 << n) - 1
    masks = _closed_neighborhood_masks(g)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]  # clique
    subsets = []
    for subset in _colex_subsets(n, k):
        cover = 0
        for v in subset:
            cover |= masks[v]
        if cover == full:
            return ReductionInstance(None, k, n, tuple(subsets), subset, None, None)
        node = n + len(subsets)
        subsets.append(subset)
        undominated = full & ~cover
        while undominated:
            low = undominated & -undominated
            edges.append((node, low.bit_length() - 1))
            undominated ^= low
        # a subset node with no edge would dominate everything, which the
        # early exit above already caught
        assert cover != full

    gprime = build_graph(total_nodes, edges, directed=False)
    witness = brute_force_dominating_set(g, min(2 * k, n))
    if witness is not None:
        return ReductionInstance(gprime, k, n, tuple(subsets), None, 3, witness)
    return ReductionInstance(gprime, k, n, tuple(subsets), None, 2, None)


def write_metadata(inst: ReductionInstance) -> str:
    """key=value sidecar describing an instance (pairs with the edge list)."""
    lines = [f"k={inst.k}", f"base_n={inst.base_n}"]
    if inst.early_exit is not None:
        lines.append("early_exit=" + ",".join(map(str, inst.early_exit)))
    else:
        lines.append(f"nodes={inst.gprime.n}")
        lines.append(f"expected_diameter={inst.expected_diameter}")
        if inst.certificate is not None:
            lines.append("certificate=" + ",".join(map(str, inst.certificate)))
        else:
            lines.append("certificate=none")
    return "\n".join(lines) + "\n"
