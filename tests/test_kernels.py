"""Search kernels against Floyd-Warshall: the batched truncated BFS behind
every near set, the full search (one scipy BFS from one or many
sources), the bit-parallel depth batch and the chunked Dijkstra batch.
Small graphs come from hypothesis; each kernel also runs with its module
size caps shrunk, so chunk and run boundaries fall inside the graph, and
a batch runs each side of its numpy-or-C cost choice, forced through the
prices."""
import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamest import (IN, OUT, GenSpec, InfiniteDiameterError, build_graph,
                     generate, nearest_in_set, nearest_s, search)
from diamest.estimators import _near_sets_all
from diamest.graph import UNREACHED
from diamest.search import near_sets
from helpers import cycle_graph, fw_apsp, path_graph, random_graph

search_module = importlib.import_module("diamest.search")

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# prices that keep every unweighted batch on the multi-source BFS, and that
# run one scipy search per source
MSBFS = dict(_SOURCE_UNITS=1 << 62)
PER_SOURCE = dict(_MSBFS_LEVEL_UNITS=1 << 62)


@st.composite
def graphs(draw, max_n=12, weighted=False):
    """Graphs with loops, duplicate edges and isolated vertices; weights
    include 0."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edge = (st.tuples(vertex, vertex, st.integers(0, 9)) if weighted
            else st.tuples(vertex, vertex))
    return build_graph(n, draw(st.lists(edge, max_size=3 * n)),
                       directed=draw(st.booleans()))


@contextlib.contextmanager
def caps(**values):
    """Set module constants of the search module for the block."""
    old = {name: getattr(search_module, name) for name in values}
    try:
        for name, value in values.items():
            setattr(search_module, name, value)
        yield
    finally:
        for name, value in old.items():
            setattr(search_module, name, value)


def _rows(g, direction):
    """Row v: distances from (OUT) or to (IN) v, float with inf."""
    d = fw_apsp(g)
    return d if direction == OUT else d.T


def _order(row):
    """Reached vertices of one distance row in (distance, id) order."""
    reached = np.flatnonzero(np.isfinite(row))
    return reached[np.lexsort((reached, row[reached]))]


def _near_reference(g, sources, s, direction):
    rows = _rows(g, direction)
    members = np.full((len(sources), s), -1, dtype=np.int64)
    dists = np.full((len(sources), s), UNREACHED, dtype=np.int64)
    for i, v in enumerate(sources):
        first = _order(rows[v])[:s]
        members[i, :first.size] = first
        dists[i, :first.size] = rows[v][first]
    return members, dists


def _check_near_sets(g, s, sources):
    """near_sets against the reference for every chunk size that matters:
    the default, one source per chunk, n - 1 per chunk, two per chunk,
    runs of one gathered arc, and one and two sources per Dijkstra chunk."""
    n = g.n
    chunkings = [{}, dict(_CHUNK_BYTES=n), dict(_CHUNK_BYTES=n * max(1, n - 1)),
                 dict(_CHUNK_BYTES=2 * n), dict(_CHUNK_BYTES=8),
                 dict(_CHUNK_BYTES=8 * n), dict(_CHUNK_BYTES=16 * n)]
    for direction in (OUT, IN):
        want = _near_reference(g, sources, s, direction)
        for values in chunkings:
            with caps(**values):
                got = near_sets(g, sources, s, direction)
            assert np.array_equal(got[0], want[0]), (direction, values)
            assert np.array_equal(got[1], want[1]), (direction, values)


def _check_errors(g, s):
    """The near-set callers name the smallest short vertex exactly."""
    rows = _rows(g, OUT)
    reach = np.isfinite(rows).sum(axis=1)
    short = np.flatnonzero(reach < s)
    if short.size == 0:
        assert np.array_equal(_near_sets_all(g, s)[0],
                              _near_reference(g, range(g.n), s, OUT)[0])
        return
    v = int(short[0])
    with pytest.raises(InfiniteDiameterError) as exc:
        _near_sets_all(g, s)
    assert str(exc.value) == (f"graph has infinite diameter: vertex {v} "
                              f"reaches only {reach[v]} vertices")
    with pytest.raises(InfiniteDiameterError) as exc:
        nearest_s(g, v, s, OUT)
    assert str(exc.value) == (f"graph has infinite diameter: only {reach[v]} "
                              f"of {s} vertices reachable out of {v}")


@PROPERTY
@given(st.one_of(graphs(), graphs(weighted=True)), st.data())
def test_near_sets_match_floyd_warshall(g, data):
    s = data.draw(st.sampled_from(sorted({1, min(2, g.n), g.n}))
                  | st.integers(1, g.n))
    # unsorted sources with repeats: every row is its own search
    sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    _check_near_sets(g, s, np.asarray(sources, dtype=np.int64))
    _check_errors(g, s)


@pytest.mark.parametrize("g", [path_graph(40), cycle_graph(41),
                               cycle_graph(41, directed=True),
                               build_graph(40, [(i, i + 1) for i in range(39)],
                                           directed=True),
                               build_graph(9, [(0, 1), (1, 2), (3, 4), (5, 6)])],
                         ids=["path", "cycle", "directed-cycle",
                              "directed-path", "disconnected"])
def test_kernels_on_deep_and_disconnected_graphs(g):
    for s in sorted({1, 2, 5, g.n // 2, g.n}):
        _check_near_sets(g, s, np.arange(g.n))
        _check_errors(g, s)
    for sources in ([0], [g.n // 2], [1, g.n - 1], np.arange(0, g.n, 7)):
        _check_bfs(g, np.asarray(sources))
    # the multi-source BFS forced, and one scipy search per source forced
    for values in (MSBFS, PER_SOURCE):
        with caps(**values):
            _check_batch_stats(g, np.arange(g.n))


def test_near_sets_reuse_the_seen_map_across_chunks(monkeypatch):
    # chunks of 1, 3 and 7 sources, the last one short, over random graphs
    # and rows that never fill; each chunk clears the keys of the last,
    # and int64 keys must sort the same
    rng = np.random.default_rng(241)
    graphs = [random_graph(rng, n, 2 * n, directed=bool(n % 2),
                           connected=bool(n % 3)) for n in range(20, 60, 4)]
    graphs.append(build_graph(30, [(i, i + 1) for i in range(29) if i % 7],
                              directed=True))
    wide = lambda span: np.dtype(np.int64)
    for g in graphs:
        sources = np.concatenate((rng.permutation(g.n), rng.integers(0, g.n, 9)))
        for s in sorted({2, 3, int(np.ceil(np.sqrt(g.n))), g.n}):
            want = _near_reference(g, sources, s, OUT)
            for rows in (1, 3, 7):
                with caps(_CHUNK_BYTES=rows * g.n):
                    got = near_sets(g, sources, s)
                    with monkeypatch.context() as patch:
                        patch.setattr(search_module, "_key_dtype", wide)
                        assert all(map(np.array_equal, got,
                                       near_sets(g, sources, s)))
                assert np.array_equal(got[0], want[0]), (g, s, rows)
                assert np.array_equal(got[1], want[1]), (g, s, rows)


def test_key_dtype_turns_wide_at_2_to_31():
    key_dtype = search_module._key_dtype
    assert key_dtype(0) == key_dtype(2 ** 31 - 1) == np.int32
    assert key_dtype(2 ** 31) == key_dtype(3037000499 ** 2) == np.int64
    # keys past int32 sort as int64 and come back as intp
    unique = search_module._unique
    got = unique(np.array([2 ** 40, 3, 2 ** 31, 3, 2 ** 40]), 2 ** 41)
    assert got.tolist() == [3, 2 ** 31, 2 ** 40] and got.dtype == np.intp
    got = unique(np.array([5, 0, 5, 2 ** 31 - 2]), 2 ** 31 - 1)
    assert got.tolist() == [0, 5, 2 ** 31 - 2] and got.dtype == np.intp


# a weighted path whose one heavy arc takes several doublings of the
# near-set search radius to cross
HEAVY_ARC_PATH = build_graph(40, [(i, i + 1, 8 if i == 20 else 1)
                                  for i in range(39)])


@pytest.mark.parametrize("g", [
    build_graph(6, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)],
                directed=True),
    HEAVY_ARC_PATH,
    build_graph(9, [(0, 1, 4), (1, 2, 7), (3, 4, 1), (5, 6, 2), (6, 7, 9)],
                directed=True),
], ids=["all-zero-weights", "path-one-heavy-arc", "disconnected-weighted"])
def test_weighted_near_sets_on_fixed_graphs(g):
    # zero-weight ties, several radius doublings, and rows that never
    # reach s, whose searches must still end
    for s in range(1, g.n + 1):
        _check_near_sets(g, s, np.arange(g.n))
        _check_errors(g, s)


def test_weighted_near_set_radius_doubles_until_rows_fill(monkeypatch):
    g = HEAVY_ARC_PATH
    limits = []
    dijkstra = search_module._scipy_dijkstra

    def spy(*args, **kwargs):
        limits.append(kwargs["limit"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(search_module, "_scipy_dijkstra", spy)
    # the 39th closest vertex of 0 lies at distance 45; the radius starts
    # at the largest weight
    assert near_sets(g, [0], 39)[1][0, -1] == 45
    assert limits == [8, 16, 32, 64]
    limits.clear()
    # s = n is one full search
    near_sets(g, [0], 40)
    assert limits == [np.inf]


def test_near_sets_validate_their_arguments():
    g = path_graph(4)
    for bad in ([-1], [0, 4]):
        with pytest.raises(ValueError, match=f"source {bad[-1]} out of range for n=4"):
            near_sets(g, bad, 2)
    for s in (0, 5):
        with pytest.raises(ValueError, match=rf"s must be in \[1, 4\], got {s}"):
            near_sets(g, [0], s)
    with pytest.raises(ValueError, match="direction must be 'out' or 'in'"):
        near_sets(g, [0], 2, "sideways")
    members, dists = near_sets(g, [], 3)
    assert members.shape == dists.shape == (0, 3)


def _check_bfs(g, sources):
    """The full search from the sorted, distinct ``sources``: distances and
    the reached vertices, out of and into the sources; and the (distance,
    id) order of search() from the first source."""
    for direction in (OUT, IN):
        h = search_module._oriented(g, direction)
        rows = _rows(g, direction)
        ref = rows[sources].min(axis=0)
        order = _order(ref)
        want = np.full(g.n, UNREACHED, dtype=np.int64)
        want[order] = ref[order]
        dist, got = search_module._search_from(h, sources)
        assert np.array_equal(np.sort(got), np.sort(order))
        assert np.array_equal(dist, want)
        tree = search(g, int(sources[0]), direction)
        assert np.array_equal(tree.order, _order(rows[sources[0]]))


@PROPERTY
@given(graphs(), st.data())
def test_multi_source_bfs_matches_floyd_warshall(g, data):
    _check_bfs(g, np.unique(data.draw(st.lists(st.integers(0, g.n - 1),
                                               min_size=1))))


def test_unweighted_full_search_runs_no_dijkstra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's Dijkstra ran on an unweighted graph")

    monkeypatch.setattr(search_module, "_scipy_dijkstra", refuse)
    # deep, and with many sources: neither leaves the BFS
    g = path_graph(300)
    assert search(g, 0).depth == 299
    assert nearest_in_set(g, [0, 299]).max() == 149
    g = generate(GenSpec("gnm", 1024, m=3072, seed=1, directed=True))
    for direction in (OUT, IN):
        assert search(g, 5, direction).reached == g.n
        assert nearest_in_set(g, np.arange(0, g.n, 3), direction).max() >= 1


def _check_batch_stats(g, sources):
    for direction in (OUT, IN):
        depths, spans = search_module.batch_search_stats(g, sources, direction)
        rows = _rows(g, direction)[sources]
        finite = np.isfinite(rows)
        assert spans.dtype == bool
        assert np.array_equal(spans, finite.all(axis=1))
        assert np.array_equal(depths, np.where(finite, rows, -1).max(axis=1))


@PROPERTY
@given(graphs(max_n=20), st.data())
def test_bit_parallel_depths_match_floyd_warshall(g, data):
    sources = np.asarray(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                            max_size=3 * g.n)), dtype=np.int64)
    # the multi-source BFS as tuned, in one 64-source chunk pushing every
    # level and pulling every level; then one scipy search per source
    for values in (MSBFS,
                   dict(MSBFS, _CHUNK_BYTES=1, _PUSH_COST=0, _PUSH_START=0),
                   dict(MSBFS, _CHUNK_BYTES=1, _PUSH_COST=1 << 62,
                        _PUSH_START=0),
                   PER_SOURCE):
        with caps(**values):
            _check_batch_stats(g, sources)


def test_bit_parallel_push_level_then_pull_level():
    # a star of 8 entered from leaves, alone and beside an isolated vertex:
    # at a push price of 3 the leaves' out-arcs (1 each) push, the
    # centre's 7 pull, so a pull reads the frontier a push left behind;
    # the star of 200 entered from 130 leaves does so at W = 3 words
    star = build_graph(8, [(0, v) for v in range(1, 8)])
    lonely = build_graph(9, [(0, v) for v in range(1, 8)])
    wide = build_graph(200, [(0, v) for v in range(1, 200)])
    cases = [(g, s) for g in (star, lonely) for s in ([1], [1, 5], [3, 3, 6])]
    cases.append((wide, range(1, 131)))
    for g, sources in cases:
        with caps(**MSBFS, _PUSH_COST=3, _PUSH_START=0):
            _check_batch_stats(g, np.array(sources))


@PROPERTY
@given(graphs(weighted=True), st.data())
def test_chunked_dijkstra_depths_match_floyd_warshall(g, data):
    sources = np.asarray(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                            max_size=3 * g.n)), dtype=np.int64)
    # one source per chunk, two per chunk, all in one
    for budget in (1, 16 * g.n, search_module._CHUNK_BYTES):
        with caps(_CHUNK_BYTES=budget):
            _check_batch_stats(g, sources)


def test_batch_kernel_choice_follows_the_depth(monkeypatch):
    calls = []
    for name in ("_msbfs_stats", "_dijkstra_stats", "breadth_first_order"):
        def spy(*args, _name=name, _kernel=getattr(search_module, name),
                **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(search_module, name, spy)
    # 130 levels of 2 arcs each: one C search per source is cheaper, and
    # only a probe of the depth can tell
    g = path_graph(130)
    _check_batch_stats(g, np.arange(g.n))
    assert calls == ["breadth_first_order", "_dijkstra_stats"] * 2
    # on a 32 x 32 grid (depth 62 from corner 0, one chunk) the choice
    # flips where k (_SOURCE_UNITS + n + arcs) meets (depth + 1) times the
    # price of a level of ceil(k / 64) words
    g = generate(GenSpec("grid", 1024))

    def per_source_wins(k):
        level = (search_module._MSBFS_LEVEL_UNITS
                 + search_module._MSBFS_WORD_UNITS * -(-k // 64))
        per_source = search_module._SOURCE_UNITS + g.n + g.arc_count
        return k * per_source < 63 * level

    edge = max(k for k in range(1, g.n + 1) if per_source_wins(k))
    assert 1 < edge < 64 and not per_source_wins(edge + 1)
    for k, kernel in ((edge, "_dijkstra_stats"), (edge + 1, "_msbfs_stats")):
        calls.clear()
        search_module.batch_search_stats(g, np.arange(k), OUT)
        assert calls == ["breadth_first_order", kernel]
    calls.clear()
    # dense and shallow: the multi-source BFS wins even at depth n - 1
    g = generate(GenSpec("gnm", 256, m=40 * 256, seed=1, directed=True))
    search_module.batch_search_stats(g, np.arange(g.n), OUT)
    assert calls == ["_msbfs_stats"]


def test_depth_probe_keeps_the_kernel_choice():
    # _per_source_wins walks at most per_source // level_cost steps up the
    # probe's tree; the choice must equal the rule applied to the depth of
    # a full search, on every side of each flip of the choice
    def rule(h, k, depth):
        chunk = search_module._msbfs_chunk(h)
        words = (min(k, chunk) + 63) >> 6
        per_source = k * (search_module._SOURCE_UNITS + h.n + h.arc_count)
        level = -(-k // chunk) * (search_module._MSBFS_LEVEL_UNITS
                                  + search_module._MSBFS_WORD_UNITS * words)
        return per_source < level * (depth + 1)

    specs = [GenSpec("path", 130), GenSpec("grid", 1024),
             GenSpec("gnm", 256, m=40 * 256, seed=1, directed=True),
             GenSpec("gnm", 72, m=216, seed=1, directed=True),
             GenSpec("gnm", 1024, m=3072, seed=1, directed=True),
             GenSpec("path", 4096), GenSpec("grid", 4096), GenSpec("cycle", 4096),
             GenSpec("cycle", 4096, directed=True)]
    flips = 0
    for spec in specs:
        g = generate(spec)
        for h in (g, g.reverse()) if g.directed else (g,):
            depth = search(h, 0).depth
            want = [rule(h, k, depth) for k in range(1, h.n + 1)]
            edges = [k for k in range(2, h.n + 1) if want[k - 1] != want[k - 2]]
            flips += len(edges)
            ks = {1, 2, h.n, *(1 << e for e in range(h.n.bit_length())),
                  *(k + d for k in edges for d in (-1, 0, 1))}
            for k in sorted(k for k in ks if 1 <= k <= h.n):
                got = search_module._per_source_wins(h, np.arange(k))
                assert got == want[k - 1], (spec, k)
    assert flips >= len(specs) - 1  # only the dense gnm never flips


def test_pull_plan_orders_rows_by_descending_in_degree():
    # the order sorts the distinct keys (top - deg) * n + id; many vertices
    # share an in-degree here, so ties must still go by id
    for spec in (GenSpec("grid", 400), GenSpec("bounded_degree", 300, m=450,
                                               max_degree=4, seed=2),
                 GenSpec("gnm", 300, m=900, seed=3, directed=True),
                 GenSpec("gnm", 300, m=600, seed=4)):
        h = generate(spec)
        deg = np.diff(h.reverse().indptr)
        assert np.unique(deg).size < h.n // 20
        plan = search_module._pull_plan(h, 64)
        assert plan.order is not None
        assert np.array_equal(plan.order, np.argsort(-deg, kind="stable"))
