"""oracle module: exact diameter, eccentricities, all-pairs matrix."""
import numpy as np
import pytest

from diamest import (OUT, UNREACHED, build_graph, exact_apsp, exact_diameter,
                     finite_diameter_check, search)
from helpers import complete_graph, cycle_graph, fw_apsp, path_graph, random_graph


def test_exact_diameter_path():
    res = exact_diameter(path_graph(10))
    assert res.diameter == 9
    assert res.witness == (0, 9)
    assert res.eccentricities.tolist() == [9, 8, 7, 6, 5, 5, 6, 7, 8, 9]


def test_exact_diameter_complete():
    res = exact_diameter(complete_graph(5))
    assert res.diameter == 1
    assert res.witness == (0, 1)


def test_exact_diameter_cycle():
    assert exact_diameter(cycle_graph(9)).diameter == 4


def test_exact_diameter_infinite():
    res = exact_diameter(build_graph(3, [(0, 1)], directed=True))
    assert res.diameter is None
    assert res.witness is None
    assert res.eccentricities.tolist() == [1, 0, 0]


def test_witness_is_lexicographically_smallest():
    # both (0,3) and (3,0) realize the diameter; ties inside row 0 as well
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    res = exact_diameter(g)
    assert res.diameter == 2
    assert res.witness == (0, 2)
    a, b = res.witness
    assert int(search(g, a, OUT).dist[b]) == res.diameter


def test_exact_apsp_small():
    assert (exact_apsp(complete_graph(3)) == np.array(
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]])).all()
    d = exact_apsp(build_graph(3, [(0, 1), (1, 2)], directed=True))
    assert d[0, 2] == 2
    assert d[2, 0] == UNREACHED


def test_exact_apsp_cap():
    with pytest.raises(ValueError, match="cap"):
        exact_apsp(path_graph(10), cap=5)


def test_exact_apsp_matches_per_source_search():
    rng = np.random.default_rng(2)
    for i in range(100):
        n = int(rng.integers(1, 40))
        g = random_graph(rng, n, 2 * n, directed=bool(i % 2),
                         weight_hi=8 if i % 3 == 0 else 0)
        mat = exact_apsp(g)
        for v in range(n):
            assert np.array_equal(mat[v], search(g, v, OUT).dist)


def test_diameter_consistency_invariants():
    rng = np.random.default_rng(13)
    for i in range(80):
        n = int(rng.integers(1, 48))
        g = random_graph(rng, n, int(rng.integers(0, 3 * n)), directed=bool(i % 2))
        res = exact_diameter(g)
        assert (res.diameter is not None) == finite_diameter_check(g)
        mat = exact_apsp(g)
        if res.diameter is not None:
            assert int(mat.max()) == res.diameter
            fin, ref_d = True, int(fw_apsp(g).max())
            assert res.diameter == ref_d
        else:
            assert (mat == UNREACHED).any()


def test_eccentricities_bound_by_weight_sum():
    g = build_graph(4, [(0, 1, 3), (1, 2, 5), (2, 3, 2)])
    res = exact_diameter(g)
    assert res.diameter == 10
    assert res.diameter <= (g.n - 1) * g.max_weight()
