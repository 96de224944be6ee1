"""Ground-truth diameter, eccentricities and all-pairs distances.

The oracle runs a full search from every source (no matrix-multiply
shortcuts): exact_diameter streams all sources through the batched depth
kernel, which bounds its memory by chunking them, so it scales to graphs
far beyond the all-pairs matrix cap, while exact_apsp materializes the
full distance matrix for small graphs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from .graph import Graph, UNREACHED
from .search import OUT, batch_search_stats, search

APSP_CAP_DEFAULT = 2048


@dataclass(frozen=True, eq=False)
class ExactResult:
    """Exact diameter with a witness pair and per-vertex out-eccentricities.

    ``diameter`` is None when it is infinite; ``witness``, the
    lexicographically smallest pair (a, b) realizing it, only when finite.
    Eccentricities are the maximum *finite* out-distance of each vertex,
    so they are defined even for disconnected graphs.
    """

    diameter: int | None
    witness: tuple[int, int] | None
    eccentricities: np.ndarray


def exact_diameter(g: Graph) -> ExactResult:
    """Diameter by a full search from every vertex; deterministic witness."""
    if g.n == 0:
        raise ValueError("exact_diameter requires at least one vertex")
    sources = np.arange(g.n, dtype=np.int64)
    ecc, spans = batch_search_stats(g, sources, OUT)
    ecc = ecc.copy()
    ecc.setflags(write=False)
    if not spans.all():
        return ExactResult(None, None, ecc)
    d = int(ecc.max())
    a = int(np.argmax(ecc))  # first maximum = smallest source id
    row = search(g, a, OUT).dist
    b = int(np.flatnonzero(row == d)[0])
    return ExactResult(d, (a, b), ecc)


def exact_apsp(g: Graph, cap: int = APSP_CAP_DEFAULT) -> np.ndarray:
    """Full distance matrix (int64, UNREACHED sentinel for no path).

    ``cap`` bounds the vertex count to keep the n*n matrix in memory;
    exact distances trivially satisfy any additive-error contract.
    """
    if g.n > cap:
        raise ValueError(f"exact_apsp matrix cap is n <= {cap}, got n={g.n}")
    if g.n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    d = _scipy_dijkstra(g.scipy_matrix(), directed=True,
                        unweighted=not g.weighted)
    out = np.where(np.isfinite(d), d, 0.0).astype(np.int64)
    out[~np.isfinite(d)] = UNREACHED
    return out
