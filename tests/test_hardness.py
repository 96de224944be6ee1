"""hardness module: dominating-set brute force and the 2-vs-3 construction."""
import math

import numpy as np
import pytest

from diamest import (GraphError, brute_force_dominating_set,
                     build_diameter_instance, build_graph, exact_apsp,
                     exact_diameter)
from diamest.hardness import write_metadata
from helpers import (complete_graph, has_edge, parse_metadata, path_graph,
                     random_graph, star_graph)


def node_label(inst, node):
    """Original vertex id for clique nodes, k-subset for subset nodes."""
    if node < inst.base_n:
        return node
    return inst.subsets[node - inst.base_n]


def test_dominating_set_star():
    assert brute_force_dominating_set(star_graph(6), 1) == (0,)


def test_dominating_set_complete():
    assert brute_force_dominating_set(complete_graph(5), 1) == (0,)


def test_dominating_set_absent_on_isolated():
    assert brute_force_dominating_set(build_graph(3, []), 2) is None


def test_dominating_set_lexicographically_first():
    # both {1} and {4} dominate this double star; lex-first is {1}
    g = build_graph(5, [(1, 0), (1, 2), (1, 3), (1, 4), (4, 0), (4, 2), (4, 3)])
    assert brute_force_dominating_set(g, 1) == (1,)


def test_dominating_set_rejects_directed():
    with pytest.raises(GraphError):
        brute_force_dominating_set(build_graph(2, [(0, 1)], directed=True), 1)


def test_reduction_isolated_triple_gives_diameter_two():
    g = build_graph(3, [])
    inst = build_diameter_instance(g, 1)
    assert inst.early_exit is None
    assert inst.expected_diameter == 2
    assert inst.certificate is None
    assert inst.gprime.n == math.comb(3, 1) + 3
    assert exact_diameter(inst.gprime).diameter == 2


def test_reduction_path6_gives_diameter_three():
    inst = build_diameter_instance(path_graph(6), 1)
    assert inst.expected_diameter == 3
    cert = inst.certificate
    assert cert is not None and len(cert) <= 2
    assert exact_diameter(inst.gprime).diameter == 3


def test_reduction_early_exit_on_star():
    inst = build_diameter_instance(star_graph(5), 1)
    assert inst.early_exit == (0,)
    assert inst.gprime is None
    assert inst.expected_diameter is None


def test_reduction_structure():
    g = path_graph(8)  # no 2-subset dominates an 8-path
    k = 2
    inst = build_diameter_instance(g, k)
    gp = inst.gprime
    n = g.n
    assert gp.n == math.comb(n, k) + n
    assert gp.m <= n * math.comb(n, k) + math.comb(n, 2)
    # the first n nodes form a clique
    for u in range(n):
        for v in range(u + 1, n):
            assert has_edge(gp, u, v)
    # subset nodes never touch each other
    for i in range(n, gp.n):
        assert all(int(x) < n for x in gp.neighbors(i))
        assert gp.neighbors(i).size > 0
    # adjacency encodes exactly non-domination
    masks = [{v} | set(int(x) for x in g.neighbors(v)) for v in range(n)]
    for i in range(n, gp.n):
        subset = node_label(inst, i)
        dominated = set()
        for v in subset:
            dominated |= masks[v]
        expect = set(range(n)) - dominated
        assert set(int(x) for x in gp.neighbors(i)) == expect


def test_reduction_colex_numbering():
    inst = build_diameter_instance(build_graph(4, []), 2)
    assert inst.subsets == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    assert node_label(inst, 4) == (0, 1)
    assert node_label(inst, 0) == 0


def test_reduction_mixed_distances_bounded():
    inst = build_diameter_instance(path_graph(6), 1)
    dmat = exact_apsp(inst.gprime)
    n = 6
    # clique pairs at distance 1, every mixed pair within 2
    assert (dmat[:n, :n][~np.eye(n, dtype=bool)] == 1).all()
    assert dmat[:n, n:].max() <= 2 and dmat[n:, :n].max() <= 2


def test_reduction_node_cap():
    with pytest.raises(ValueError, match="cap"):
        build_diameter_instance(path_graph(30), 4, node_cap=1000)


def test_reduction_parameter_validation():
    with pytest.raises(ValueError):
        build_diameter_instance(path_graph(3), 0)
    with pytest.raises(ValueError):
        build_diameter_instance(path_graph(3), 4)
    with pytest.raises(GraphError):
        build_diameter_instance(build_graph(2, [(0, 1)], directed=True), 1)


def test_reduction_correctness_sweep():
    rng = np.random.default_rng(19)
    complete_cases = 0
    for i in range(140):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, int(rng.integers(0, 2 * n)))
        k = 1 + i % 2
        if k > n:
            continue
        inst = build_diameter_instance(g, k)
        if inst.early_exit is not None:
            cover = set()
            for v in inst.early_exit:
                cover.add(v)
                cover.update(int(x) for x in g.neighbors(v))
            assert cover == set(range(n))
            continue
        complete_cases += 1
        got = exact_diameter(inst.gprime).diameter
        assert got == inst.expected_diameter
        witness = brute_force_dominating_set(g, min(2 * k, n))
        assert (witness is not None) == (inst.expected_diameter == 3)
    assert complete_cases >= 40


def test_metadata_round_trip():
    inst = build_diameter_instance(path_graph(6), 1)
    meta = parse_metadata(write_metadata(inst))
    assert meta["k"] == "1"
    assert meta["expected_diameter"] == "3"
    assert meta["base_n"] == "6"
    early = build_diameter_instance(star_graph(5), 1)
    meta2 = parse_metadata(write_metadata(early))
    assert meta2["early_exit"] == "0"
