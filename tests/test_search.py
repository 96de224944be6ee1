"""search module: BFS/Dijkstra trees, near sets, set-distance queries."""
import importlib

import numpy as np
import pytest

from diamest import (IN, OUT, GenSpec, InfiniteDiameterError, UNREACHED,
                     batch_depths, batch_search_stats, build_graph, generate,
                     nearest_high_degree, nearest_in_set, nearest_s, search)
from diamest.search import near_sets
from helpers import (complete_graph, fw_apsp, path_graph, random_graph,
                     star_graph)

# the package re-exports the function search(), which hides the module name
search_module = importlib.import_module("diamest.search")


def test_search_path():
    g = path_graph(10)
    t = search(g, 0, OUT)
    assert t.depth == 9
    assert t.dist.tolist() == list(range(10))
    assert t.order.tolist() == list(range(10))


def test_search_star():
    t = search(star_graph(7), 0, OUT)
    assert t.depth == 1
    assert t.order.tolist() == list(range(7))


def test_search_unreachable_sentinel():
    g = build_graph(3, [(0, 1)], directed=True)
    t = search(g, 0, OUT)
    assert t.dist[2] == UNREACHED
    assert t.reached == 2 and t.depth == 1


def test_search_matches_floyd_warshall():
    rng = np.random.default_rng(5)
    for i in range(200):
        n = int(rng.integers(2, 50))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)), directed=True,
                         weight_hi=10 if i % 2 else 0)
        ref = fw_apsp(g)
        v = int(rng.integers(0, n))
        t = search(g, v, OUT)
        got = np.where(t.dist == UNREACHED, np.inf, t.dist.astype(float))
        assert np.array_equal(got, ref[v])
        tin = search(g, v, IN)
        got_in = np.where(tin.dist == UNREACHED, np.inf, tin.dist.astype(float))
        assert np.array_equal(got_in, ref[:, v])


def test_search_order_is_distance_then_id():
    # two vertices at distance 1 (ids 3 and 1): order must be id-sorted
    g = build_graph(4, [(0, 3), (0, 1), (1, 2)])
    t = search(g, 0, OUT)
    assert t.order.tolist() == [0, 1, 3, 2]


def test_direction_duality():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, 2 * n, directed=True)
        v = int(rng.integers(0, n))
        assert np.array_equal(search(g, v, IN).dist,
                              search(g.reverse(), v, OUT).dist)


def test_nearest_s_trivial_and_tie_break():
    g = path_graph(5)
    one = nearest_s(g, 2, 1, OUT)
    assert one.members.tolist() == [2] and one.radius == 0
    two = nearest_s(g, 2, 2, OUT)
    assert two.members.tolist() == [2, 1]  # tie at distance 1 broken by id
    three = nearest_s(g, 2, 3, OUT)
    assert sorted(three.members.tolist()) == [1, 2, 3]
    assert three.radius == 1


def test_nearest_s_infinite_diameter_error():
    g = build_graph(3, [(0, 1)], directed=True)
    with pytest.raises(InfiniteDiameterError, match="infinite diameter"):
        nearest_s(g, 0, 3, OUT)


def test_nearest_s_validates_s():
    g = path_graph(4)
    with pytest.raises(ValueError):
        nearest_s(g, 0, 0, OUT)
    with pytest.raises(ValueError):
        nearest_s(g, 0, 5, OUT)


def test_near_set_calls_validate_vertex_and_direction():
    g = path_graph(4)
    for v in (-1, 4):
        with pytest.raises(ValueError, match=f"source {v} out of range for n=4"):
            nearest_s(g, v, 2, OUT)
    for direction in ("sideways", "OUT", None):
        with pytest.raises(ValueError, match="direction must be 'out' or 'in'"):
            nearest_in_set(g, [0], direction)
        with pytest.raises(ValueError, match="direction must be 'out' or 'in'"):
            batch_search_stats(g, [0], direction)


def test_nearest_s_matches_full_sort():
    rng = np.random.default_rng(17)
    for i in range(500):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)), directed=bool(i % 2),
                         weight_hi=7 if i % 3 == 0 else 0, connected=True)
        v = int(rng.integers(0, n))
        s = int(rng.integers(1, n + 1))
        direction = OUT if i % 4 < 2 else IN
        near = nearest_s(g, v, s, direction)
        t = search(g, v, direction)
        assert near.members.tolist() == t.order[:s].tolist()
        assert near.radius == int(t.dist[t.order[s - 1]])


def test_nearest_s_full_radius_is_depth():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, 2 * n, connected=True)
        v = int(rng.integers(0, n))
        assert nearest_s(g, v, n, OUT).radius == search(g, v, OUT).depth


def test_nearest_in_set_validates_members():
    g = path_graph(4)
    with pytest.raises(ValueError, match="^member set must be nonempty$"):
        nearest_in_set(g, [], OUT)
    # a -1 is caught before deduplication could drop it, and named as
    # search, near_sets and batch_search_stats name a bad source
    for members, bad in (([-1], -1), ([2, -1], -1), ([4], 4), ([0, 4, 5], 4),
                         ([1, 2 ** 70], 2 ** 70)):
        with pytest.raises(ValueError, match=f"^source {bad} out of range for n=4$"):
            nearest_in_set(g, members, OUT)
        with pytest.raises(ValueError, match=f"^source {bad} out of range for n=4$"):
            search(g, bad, OUT)
    assert nearest_in_set(g, [3, 1, 3], OUT).tolist() == [1, 0, 1, 0]


def test_nearest_in_set_whole_vertex_set():
    g = path_graph(6)
    dist = nearest_in_set(g, list(range(6)), OUT)
    assert dist.tolist() == [0] * 6


def test_nearest_in_set_singleton_matches_search():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, 2 * n, directed=True, connected=True)
        x = int(rng.integers(0, n))
        dist = nearest_in_set(g, [x], OUT)
        assert np.array_equal(dist, search(g, x, IN).dist)


def test_nearest_in_set_brute_force():
    rng = np.random.default_rng(37)
    for i in range(300):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)), directed=bool(i % 2),
                         weight_hi=9 if i % 3 == 0 else 0)
        ref = fw_apsp(g)
        k = int(rng.integers(1, n + 1))
        members = np.sort(rng.choice(n, size=k, replace=False))
        direction = OUT if i % 4 < 2 else IN
        dist = nearest_in_set(g, members, direction)
        table = ref[:, members] if direction == OUT else ref[members, :].T
        for v in range(n):
            best = table[v].min()
            if np.isinf(best):
                assert dist[v] == UNREACHED
            else:
                assert dist[v] == int(best)


def test_nearest_high_degree_examples():
    g = star_graph(6)
    assert nearest_high_degree(g, 0).tolist() == [0] * 6
    assert nearest_high_degree(g, 2)[3] == 1  # leaves route to the center
    assert (nearest_high_degree(g, 50) == UNREACHED).all()


def test_nearest_high_degree_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, 2 * n, directed=True)
        ref = fw_apsp(g)
        degree = int(rng.integers(0, 6))
        qualifying = np.flatnonzero(g.out_degrees >= degree)
        d = nearest_high_degree(g, degree)
        if qualifying.size == 0:
            assert (d == UNREACHED).all()
            continue
        for v in range(n):
            best = ref[v, qualifying].min()
            if np.isinf(best):
                assert d[v] == UNREACHED
            else:
                assert d[v] == int(best)


def test_triangle_inequality_against_oracle():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        g = random_graph(rng, n, 2 * n, directed=True, weight_hi=5)
        src = int(rng.integers(0, n))
        row = search(g, src, OUT).dist.astype(float)
        row[row == UNREACHED] = np.inf
        ref = fw_apsp(g)
        # d(src, w) <= d(src, v) + d(v, w) for every v, w
        assert (row[None, :] <= row[:, None] + ref + 1e-9).all()


def _check_batch(g, sources):
    for direction in (OUT, IN):
        depths, spans = batch_search_stats(g, sources, direction)
        assert depths.shape == spans.shape == (len(sources),)
        for j, v in enumerate(sources):
            t = search(g, int(v), direction)
            assert depths[j] == t.depth
            assert spans[j] == (t.reached == g.n)


def test_batch_depths_matches_search(monkeypatch):
    # a huge per-source price keeps every unweighted batch on the
    # multi-source BFS and a huge level price runs one scipy search per
    # source; a chunk of 1 byte splits every batch into 64-source chunks;
    # push costs of 0 make every level push from the frontier, a huge one
    # makes every level pull.
    # A pull takes every in-arc in a slice at a slice size of 1, slices and
    # a reduceat tail at 2 (the highest in-degree alone is never a slice),
    # and no slice, on the vertex ids, at a huge one
    msbfs = dict(_SOURCE_UNITS=1 << 62)
    pull = dict(msbfs, _PUSH_COST=1 << 62, _PUSH_START=0)
    for values in (msbfs, dict(msbfs, _PUSH_COST=0, _PUSH_START=0),
                   dict(msbfs, _CHUNK_BYTES=1, _PUSH_COST=0, _PUSH_START=0),
                   dict(pull, _CHUNK_BYTES=1),
                   dict(pull, _SLICE_WORDS=1, _RELABEL_PAYS=0),
                   dict(pull, _SLICE_WORDS=2, _RELABEL_PAYS=0),
                   dict(pull, _CHUNK_BYTES=1, _SLICE_WORDS=2, _RELABEL_PAYS=0),
                   dict(pull, _SLICE_WORDS=1 << 62),
                   dict(_MSBFS_LEVEL_UNITS=1 << 62)):
        with monkeypatch.context() as patch:
            for name, value in values.items():
                patch.setattr(search_module, name, value)
            _check_batch_inputs()


def _check_batch_inputs():
    rng = np.random.default_rng(47)
    for i in range(40):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, 2 * n, directed=bool(i % 2),
                         weight_hi=6 if i % 3 == 0 else 0)
        sources = rng.choice(n, size=min(n, 7), replace=False)
        _check_batch(g, sources)
        assert np.array_equal(batch_depths(g, sources, OUT),
                              batch_search_stats(g, sources, OUT)[0])
    # sparse directed graph: empty in-rows, trees that miss vertices;
    # unsorted sources with duplicates around the 64-bit word edges
    g = random_graph(rng, 150, 150, directed=True)
    assert (np.diff(g.reverse().indptr) == 0).any()
    for k in (63, 64, 65, 129):
        _check_batch(g, rng.integers(0, g.n, size=k))
    _check_batch(build_graph(5, [], directed=True), [4, 0, 4])
    # 300 levels of small frontiers; directed, so IN trees stop at the
    # source
    deep = build_graph(300, [(i, i + 1) for i in range(299)], directed=True)
    _check_batch(deep, [0, 299, 150, 0])
    _check_batch(path_graph(260), rng.permutation(260)[:70])
    # in-degrees far apart: a hub of in-degree n - 1 (undirected, and
    # directed with every other vertex of in-degree 0), complete graphs,
    # where the ids already sort by in-degree, and cliques on a path
    into_hub = build_graph(70, [(v, 7) for v in range(70) if v != 7]
                           + [(7, 3), (3, 5)], directed=True)
    for g in (star_graph(70, center=7), into_hub, complete_graph(20),
              build_graph(9, [(u, v) for u in range(9) for v in range(9)],
                          directed=True),
              generate(GenSpec("barbell", 60, seed=2))):
        for k in (1, 63, 64, 65, 129):
            _check_batch(g, rng.integers(0, g.n, size=k))
    # more than 256 words per vertex: each of 16 sources 1028 times
    g = random_graph(rng, 16, 40, directed=True)
    _check_batch(g, np.arange(16))
    for direction in (OUT, IN):
        once = batch_search_stats(g, np.arange(16), direction)
        many = batch_search_stats(g, np.tile(np.arange(16), 1028), direction)
        for a, b in zip(once, many):
            assert np.array_equal(np.tile(a, 1028), b)


def test_batch_of_no_sources_and_bad_sources():
    graphs = [random_graph(np.random.default_rng(3), 20, 40, weight_hi=hi)
              for hi in (0, 5)]
    # no sources give empty arrays, on the empty graph too
    for g in (build_graph(0, []), *graphs):
        for direction in (OUT, IN):
            depths, spans = batch_search_stats(g, [], direction)
            assert depths.dtype == np.int64 and spans.dtype == bool
            assert depths.size == spans.size == 0
            depths = batch_depths(g, [], direction)
            assert depths.dtype == np.int64 and depths.size == 0
    for g in graphs:
        for bad, first in (([-1], -1), ([20], 20), ([3, 25, -1], 25)):
            with pytest.raises(ValueError,
                               match=f"^source {first} out of range for n=20$"):
                batch_search_stats(g, bad, OUT)


def test_zero_weight_edges():
    # zero weights are legal; distances and settle order must respect them
    g = build_graph(4, [(0, 1, 0), (1, 2, 0), (2, 3, 4)], directed=True)
    t = search(g, 0, OUT)
    assert t.dist.tolist() == [0, 0, 0, 4]
    assert t.order.tolist() == [0, 1, 2, 3]
    assert batch_search_stats(g, [0], OUT)[0].tolist() == [4]
    near = nearest_s(g, 0, 3, OUT)
    assert near.members.tolist() == [0, 1, 2] and near.radius == 0
    assert nearest_in_set(g, [2, 3], OUT).tolist() == [0, 0, 0, 0]


def test_zero_weight_edges_settle_by_id():
    # a zero-weight path reaches id 1 only through id 3; the order must
    # still list the distance-0 class by id, full or truncated
    g = build_graph(4, [(0, 3, 0), (3, 1, 0), (1, 2, 5)], directed=True)
    t = search(g, 0, OUT)
    assert t.dist.tolist() == [0, 0, 5, 0]
    assert t.order.tolist() == [0, 1, 3, 2]
    for s, members in ((1, [0]), (2, [0, 1]), (3, [0, 1, 3]), (4, [0, 1, 3, 2])):
        near = nearest_s(g, 0, s, OUT)
        assert near.members.tolist() == members
    members, dists = near_sets(g, [0], 2)
    assert members.tolist() == [[0, 1]]
    assert dists.tolist() == [[0, 0]]


def test_search_trees_are_concurrency_safe_values():
    g = path_graph(8)
    t1 = search(g, 0, OUT)
    t2 = search(g, 0, OUT)
    assert np.array_equal(t1.dist, t2.dist)
    with pytest.raises(ValueError):
        t1.dist[0] = 5


def test_concurrent_searches_share_one_graph():
    # many searches and batches (bench --threads) race over one Graph,
    # including the first (lazy) builds of the reverse view; results must
    # match the sequential ones exactly
    from concurrent.futures import ThreadPoolExecutor

    def make():
        return random_graph(np.random.default_rng(53), 120, 360,
                            directed=True, connected=True)

    def run(g, job):
        if isinstance(job, int):
            return search(g, job, IN if job % 2 else OUT).depth
        sources, direction = job
        return [a.tolist() for a in batch_search_stats(g, sources, direction)]

    g_seq, g_par = make(), make()
    assert g_seq == g_par
    jobs = list(range(g_seq.n))
    jobs += [(np.arange(k, g_seq.n, 7), OUT if k % 2 else IN) for k in range(7)] * 3
    expected = [run(g_seq, job) for job in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda job: run(g_par, job), jobs))
    assert got == expected
