"""Shared fixed-seed corpora for the acceptance suite.

Everything is session-scoped and deterministic: graph i of a corpus is a
pure function of the corpus seed, so reruns exercise identical inputs.
The exact diameters are computed once and shared across criteria.
"""
import math

import numpy as np
import pytest

from diamest import GenSpec, exact_diameter, generate, sampled_estimate

CORPUS_SEED = 20260808

DENSITY_CLASSES = ("1.5", "3", "8", "n/4")


def _density_m(cls: str, n: int, directed: bool) -> int:
    density = {"1.5": 1.5, "3": 3.0, "8": 8.0, "n/4": n / 4}[cls]
    cap = n * (n - 1) if directed else n * (n - 1) // 2
    return min(max(1, int(density * n)), cap)


@pytest.fixture(scope="session")
def corpus_main():
    """2000 random graphs, n <= 200, both orientations, four densities."""
    rng = np.random.default_rng(CORPUS_SEED)
    graphs = []
    for i in range(2000):
        u = rng.random()
        n = 16 + int(184 * u * u)
        directed = bool((i // 4) % 2)
        m = _density_m(DENSITY_CLASSES[i % 4], n, directed)
        graphs.append(generate(GenSpec("gnm", n, m=m, seed=1000 + i,
                                       directed=directed)))
    return graphs


@pytest.fixture(scope="session")
def oracle_main(corpus_main):
    return np.array([exact_diameter(g).diameter for g in corpus_main])


@pytest.fixture(scope="session")
def corpus_sparse():
    """1000 sparse graphs, m ~ 3n, n <= 300."""
    rng = np.random.default_rng(CORPUS_SEED + 1)
    graphs = []
    for i in range(1000):
        n = int(rng.integers(16, 301))
        directed = bool(i % 2)
        graphs.append(generate(GenSpec("gnm", n, m=3 * n, seed=50_000 + i,
                                       directed=directed)))
    return graphs


@pytest.fixture(scope="session")
def oracle_sparse(corpus_sparse):
    return np.array([exact_diameter(g).diameter for g in corpus_sparse])


@pytest.fixture(scope="session")
def corpus_weighted():
    """500 weighted graphs, integer weights 1..10, n <= 150."""
    rng = np.random.default_rng(CORPUS_SEED + 2)
    graphs = []
    for i in range(500):
        n = int(rng.integers(16, 151))
        directed = bool(i % 2)
        m = _density_m(DENSITY_CLASSES[i % 4], n, directed)
        graphs.append(generate(GenSpec("gnm", n, m=m, seed=90_000 + i,
                                       directed=directed, weight_range=(1, 10))))
    return graphs


@pytest.fixture(scope="session")
def oracle_weighted(corpus_weighted):
    return np.array([exact_diameter(g).diameter for g in corpus_weighted])


@pytest.fixture(scope="session")
def rv_results(corpus_main):
    """One verified sampled-estimator run per main-corpus graph, s=ceil(sqrt n)."""
    out = []
    for i, g in enumerate(corpus_main):
        s = math.isqrt(g.n)
        if s * s < g.n:
            s += 1
        out.append(sampled_estimate(g, s=s, seed=CORPUS_SEED + i))
    return out
