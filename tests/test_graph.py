"""graph module: construction, reversal, connectivity screening, I/O."""
import gc
import weakref

import numpy as np
import pytest

import diamest.graph as graph_module
from diamest import (GraphError, GraphParseError, build_graph, exact_diameter,
                     finite_diameter_check, parse_dimacs, parse_edge_list,
                     parse_graph, write_edge_list)
from helpers import arc_weights, has_edge, random_graph


def test_build_undirected_symmetry():
    g = build_graph(2, [(0, 1)])
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0]
    assert g.m == 1 and g.arc_count == 2


def test_build_collapses_duplicates():
    g = build_graph(2, [(0, 1), (0, 1)], directed=True)
    assert g.m == 1
    assert g.neighbors(0).tolist() == [1]


def test_build_min_weight_merge():
    g = build_graph(2, [(0, 1, 3), (0, 1, 2)], directed=True)
    assert g.m == 1
    assert arc_weights(g, 0).tolist() == [2]


def test_build_drops_self_loops():
    g = build_graph(3, [(0, 0), (0, 1)])
    assert g.m == 1


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(2, [(0, 2)])


def test_build_rejects_negative_weight():
    with pytest.raises(GraphError, match="negative weight"):
        build_graph(2, [(0, 1, -1)])


def test_build_rejects_mixed_arity():
    with pytest.raises(GraphError, match="mix"):
        build_graph(3, [(0, 1), (1, 2, 4)])


def test_adjacency_sorted_and_membership():
    g = build_graph(5, [(0, 4), (0, 2), (0, 1), (2, 3)], directed=True)
    assert g.neighbors(0).tolist() == [1, 2, 4]
    assert has_edge(g, 0, 2) and not has_edge(g, 0, 3)


def test_reverse_undirected_fixed_point():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.reverse() is g


def test_reverse_directed_cycle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    r = g.reverse()
    assert r.neighbors(0).tolist() == [2]
    assert r.neighbors(2).tolist() == [1]
    assert r.neighbors(1).tolist() == [0]


def test_reverse_involution_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)), directed=True)
        back = g.reverse().reverse()
        assert back == g
        assert g.reverse().m == g.m


def test_reverse_leaves_no_reference_cycle():
    # a directed graph and its reverse are freed with their last reference,
    # not when the cyclic collector next runs; many calls in one process
    # would otherwise pile up their graphs
    edges = [(0, 1), (1, 2)]
    gc.disable()
    try:
        g = build_graph(3, edges, directed=True)
        r = g.reverse()
        assert r.reverse() is g
        probes = weakref.ref(g), weakref.ref(r)
        del g, r
        assert probes[0]() is None and probes[1]() is None
    finally:
        gc.enable()
    # the reverse outlives its graph: reversing it again rebuilds the graph
    r = build_graph(3, edges, directed=True).reverse()
    back = r.reverse()
    assert back == build_graph(3, edges, directed=True)
    assert back.reverse() is r


def test_reverse_preserves_weights():
    g = build_graph(3, [(0, 1, 5), (1, 2, 7)], directed=True)
    r = g.reverse()
    assert has_edge(r, 1, 0) and arc_weights(r, 1).tolist() == [5]
    assert arc_weights(r, 2).tolist() == [7]


def _random_arcs(rng, n, weighted):
    """Up to 4n random arcs with loops and parallel arcs; weights 0..3, so
    parallel arcs often differ in weight."""
    m = int(rng.integers(0, 4 * n + 1))
    arcs = rng.integers(0, n, size=(m, 2))
    return np.column_stack((arcs, rng.integers(0, 4, size=m))) if weighted else arcs


def _flipped_arc_cases(seed):
    """(n, arcs, arcs flipped) for 400 random arc sets, half weighted."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        for weighted in (False, True):
            arcs = _random_arcs(rng, n, weighted)
            flipped = arcs.copy()
            flipped[:, :2] = arcs[:, 1::-1]
            yield n, arcs, flipped


def test_reverse_equals_build_of_flipped_arcs():
    # reverse() sorts the keys dst * n + src, with each weight packed in
    # their low bits, through build_graph's own CSR tail
    for n, arcs, flipped in _flipped_arc_cases(11):
        g = build_graph(n, arcs, directed=True)
        assert g.reverse() == build_graph(n, flipped, directed=True)


def _same_arrays(a, b):
    assert a == b
    for x in (a.indptr, a.indices, a.weights, b.indptr, b.indices, b.weights):
        assert x is None or x.dtype == np.int64


def test_int64_keys_build_and_reverse_the_same_graphs(monkeypatch):
    # every key of these small graphs fits int32; forced int64 keys must
    # sort the same, and either way the arrays stay int64
    cases = []
    for n, arcs, _ in _flipped_arc_cases(11):
        g = build_graph(n, arcs, directed=True)
        cases.append((n, arcs, g, g.reverse(), build_graph(n, arcs)))
    monkeypatch.setattr(graph_module, "_key_dtype", lambda span: np.dtype(np.int64))
    for n, arcs, g, rev, undirected in cases:
        got = build_graph(n, arcs, directed=True)
        _same_arrays(got, g)
        _same_arrays(got.reverse(), rev)
        _same_arrays(build_graph(n, arcs), undirected)


def test_weights_too_wide_to_pack_sort_by_lexsort():
    # at n = 4096 a weight of 2^41 keeps paths within 2^53 but leaves no
    # room in an int64 key; the graph must be the one that the weights'
    # ranks, which pack, give
    n, top = 4096, 2 ** 41
    assert graph_module._key_dtype(n * n << top.bit_length()) is None
    rng = np.random.default_rng(13)
    for directed in (False, True):
        arcs = rng.integers(0, n, size=(30000, 2))
        arcs[:20000] %= [512, 8]  # about 5 parallel arcs per pair
        wts = rng.integers(0, top + 1, size=len(arcs))
        wts[::3] = top
        values, ranks = np.unique(wts, return_inverse=True)
        wide = build_graph(n, np.column_stack((arcs, wts)), directed=directed)
        packed = build_graph(n, np.column_stack((arcs, ranks)), directed=directed)
        for got, want in ((wide, packed), (wide.reverse(), packed.reverse())):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.weights, values[want.weights])
            assert got.weights.dtype == np.int64


def test_build_unweighted_and_weighted_share_the_csr():
    # one sort of packed keys orders the arcs with or without weights
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        arcs = _random_arcs(rng, n, True)
        for directed in (False, True):
            plain = build_graph(n, arcs[:, :2], directed=directed)
            weighted = build_graph(n, arcs, directed=directed)
            assert np.array_equal(plain.indptr, weighted.indptr)
            assert np.array_equal(plain.indices, weighted.indices)


def test_finite_check_isolated_pair():
    assert not finite_diameter_check(build_graph(2, []))


def test_finite_check_one_way_arc():
    assert not finite_diameter_check(build_graph(2, [(0, 1)], directed=True))


def test_finite_check_cycles_and_singleton():
    assert finite_diameter_check(build_graph(4, [(i, (i + 1) % 4) for i in range(4)],
                                             directed=True))
    assert finite_diameter_check(build_graph(1, []))


def test_finite_check_matches_oracle():
    rng = np.random.default_rng(11)
    agree = 0
    for _ in range(120):
        n = int(rng.integers(2, 64))
        directed = bool(rng.integers(0, 2))
        g = random_graph(rng, n, int(rng.integers(0, 2 * n)), directed=directed)
        assert finite_diameter_check(g) == (exact_diameter(g).diameter is not None)
        agree += 1
    assert agree == 120


def test_parse_edge_list_basic():
    g = parse_edge_list("2 1\n0 1\n")
    assert g == build_graph(2, [(0, 1)])


def test_parse_edge_list_weighted():
    g = parse_edge_list("3 2 w\n0 1 5\n1 2 7\n")
    assert g.weighted
    assert sorted(g.weights.tolist()) == [5, 5, 7, 7]


def test_parse_edge_list_comments_and_errors():
    g = parse_edge_list("# a comment\n2 1\n# another\n0 1\n")
    assert g.m == 1
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("2 1\n0 x\n")
    with pytest.raises(GraphParseError, match="declares"):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(GraphParseError, match="header"):
        parse_edge_list("nope\n")
    with pytest.raises(GraphParseError, match="3 fields"):
        parse_edge_list("2 1 w\n0 1\n")


def test_parse_reports_line_numbers_for_range_errors():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("3 2\n0 1\n1 9\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_dimacs("p sp 2 1\na 1 5 2\n")
    with pytest.raises(GraphParseError, match="line 2.*negative"):
        parse_dimacs("p sp 2 1\na 1 2 -4\n")


def test_parse_weight_scaling():
    g = parse_edge_list("2 1 w\n0 1 2.5\n", weight_scale=1)
    assert g.weights.tolist() == [25, 25]
    with pytest.raises(GraphParseError, match="not integral"):
        parse_edge_list("2 1 w\n0 1 2.5\n")


def test_round_trip_random_graphs():
    rng = np.random.default_rng(3)
    for i in range(100):
        n = int(rng.integers(1, 40))
        directed = bool(i % 2)
        hi = 9 if i % 3 == 0 else 0
        g = random_graph(rng, n, int(rng.integers(0, 2 * n)),
                         directed=directed, weight_hi=hi)
        text = write_edge_list(g)
        again = parse_edge_list(text, directed=directed)
        assert again == g
        assert write_edge_list(again) == text


def test_parse_dimacs():
    text = "c tiny instance\np sp 3 3\na 1 2 4\na 2 3 1\na 3 1 2\n"
    g = parse_dimacs(text)
    assert g.directed and g.weighted and g.n == 3 and g.m == 3
    assert has_edge(g, 0, 1) and arc_weights(g, 0).tolist() == [4]
    with pytest.raises(GraphParseError):
        parse_dimacs("a 1 2 3\n")


def test_parse_graph_sniffs_format():
    assert parse_graph("p sp 2 1\na 1 2 3\n").directed
    assert not parse_graph("2 1\n0 1\n").directed
    with pytest.raises(GraphParseError):
        parse_graph("   \n")


def test_n1_graph_is_legal():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0
    assert finite_diameter_check(g)
    assert exact_diameter(g).diameter == 0


def test_graph_arrays_immutable():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.indices[0] = 0
