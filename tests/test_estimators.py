"""estimators module: guarantees, determinism, witnesses, edge cases."""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamest import (IN, OUT, Estimate, GenSpec, GraphError,
                     InfiniteDiameterError, RestartLimitError, Witness,
                     aingworth, build_graph, dense_estimate, exact_diameter,
                     four_fifths_estimate, generate, recompute_witness,
                     sampled_estimate, sampled_estimate_weighted,
                     sampling_estimate, sparse_driver, sparse_estimate,
                     two_approx)
from diamest.estimators import _greedy_hitting_set, _near_sets_all
from diamest.search import batch_depths
from helpers import (complete_graph, cycle_graph, decompose,
                     dense_pairs_reference, fw_apsp,
                     greedy_hitting_set_reference, path_graph, random_graph,
                     star_graph)

estimators_module = importlib.import_module("diamest.estimators")
search_module = importlib.import_module("diamest.search")


def _sweep_graphs(rng, count, n_hi=60, weight_hi=0, directed_mix=True):
    for i in range(count):
        n = int(rng.integers(2, n_hi))
        density = (1.5, 3.0, 8.0, n / 4)[i % 4]
        m = max(1, int(density * n))
        directed = bool(i % 2) if directed_mix else False
        yield random_graph(rng, n, m, directed=directed,
                           weight_hi=weight_hi, connected=True)


# ---- two_approx -------------------------------------------------------------

def test_two_approx_path_endpoint():
    est = two_approx(path_graph(9))
    assert est.value == 8  # vertex 0 is an endpoint, eccentricity = D


def test_two_approx_complete():
    assert two_approx(complete_graph(6)).value == 1


def test_two_approx_bounds_random():
    rng = np.random.default_rng(101)
    for g in _sweep_graphs(rng, 500, weight_hi=0):
        d = exact_diameter(g).diameter
        est = two_approx(g)
        assert 2 * est.value >= d
        assert est.value <= d


# ---- aingworth --------------------------------------------------------------

def test_aingworth_complete_is_exact():
    assert aingworth(complete_graph(4), 2).value == 1


def test_aingworth_path_bounds():
    est = aingworth(path_graph(10), 3)
    assert 6 <= est.value <= 9


def test_aingworth_floor_random():
    rng = np.random.default_rng(103)
    for g in _sweep_graphs(rng, 400, n_hi=80):
        d = exact_diameter(g).diameter
        h, z = decompose(d)
        est = aingworth(g)
        assert est.value <= d
        assert est.value >= (2 * h + z if z in (0, 1) else 2 * h + 1)
        assert est.value >= (2 * d) // 3


def test_aingworth_s_clamping():
    g = path_graph(5)
    assert aingworth(g, 100).value == 4   # s clamps to n: exact
    assert aingworth(g, 0).value <= 4     # s clamps to 1


def test_aingworth_weighted_stays_upper_sound():
    rng = np.random.default_rng(97)
    for _ in range(30):
        g = random_graph(rng, 25, 60, weight_hi=9, connected=True)
        d = exact_diameter(g).diameter
        assert aingworth(g, 5).value <= d


def _mirror_aingworth(g, s):
    """Step-by-step reference built only from full searches and sorting."""
    from diamest import IN, OUT, search

    n = g.n
    near = []
    for v in range(n):
        t = search(g, v, OUT)
        members = [int(x) for x in t.order[:s]]
        near.append((members, int(t.dist[members[-1]])))
    radii = np.array([r for _, r in near])
    w = int(np.argmax(radii))
    best = search(g, w, OUT).depth
    for u in near[w][0]:
        best = max(best, search(g, u, IN).depth)
    sets = [set(m) for m, _ in near]
    uncovered = set(range(n))
    while uncovered:
        counts = np.zeros(n, dtype=int)
        for i in uncovered:
            for x in sets[i]:
                counts[x] += 1
        pick = int(np.argmax(counts))
        best = max(best, search(g, pick, OUT).depth)
        uncovered = {i for i in uncovered if pick not in sets[i]}
    return best


def test_aingworth_matches_step_mirror():
    rng = np.random.default_rng(211)
    for i in range(40):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, 2 * n, directed=bool(i % 2), connected=True)
        s = int(rng.integers(1, n + 1))
        assert aingworth(g, s).value == _mirror_aingworth(g, s)


def _mirror_sparse(g, hint, thresh):
    from diamest import IN, OUT, UNREACHED, search

    n = g.n
    high = [v for v in range(n) if g.neighbors(v).size >= thresh]
    best = 0
    if high:
        rows = {u: search(g, u, IN).dist for u in high}
        for u in high:
            best = max(best, search(g, u, OUT).depth)
        to_high = [min(int(rows[u][v]) for u in high) for v in range(n)]
        w = int(np.argmax(to_high))
        radius = min(hint + 1, to_high[w])
    else:
        w, radius = 0, hint + 1
    tw = search(g, w, OUT)
    best = max(best, tw.depth)
    for v in range(n):
        if tw.dist[v] != UNREACHED and tw.dist[v] <= radius:
            best = max(best, search(g, v, IN).depth)
    return best


def test_sparse_matches_step_mirror():
    rng = np.random.default_rng(223)
    for i in range(40):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, 2 * n, directed=bool(i % 2), connected=True)
        hint = int(rng.integers(0, 6))
        thresh = int(rng.integers(1, 8))
        assert (sparse_estimate(g, hint, thresh).value
                == _mirror_sparse(g, hint, thresh))


# ---- greedy hitting set -------------------------------------------------------

def _check_hitting_set(members, n):
    picks = _greedy_hitting_set(members, n)
    assert np.array_equal(picks, greedy_hitting_set_reference(members, n))
    assert picks.dtype == np.int64
    assert np.isin(members, picks).any(axis=1).all()  # every row is hit
    assert np.unique(picks).size == picks.size        # no pick repeats


@st.composite
def _member_tables(draw):
    """Tables of sets: each row lists s distinct vertices in [0, n)."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(1, n))
    rows = draw(st.lists(st.permutations(range(n)), min_size=n, max_size=3 * n))
    return np.array([row[:s] for row in rows], dtype=np.int64), n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_member_tables())
def test_hitting_set_matches_recount_reference(table):
    _check_hitting_set(*table)


def test_hitting_set_fixed_tables():
    tables = [
        # every vertex in two rows: each pick is a tie, broken by id
        (np.array([[0, 1], [2, 3], [0, 3], [1, 2]]), 4),
        (np.array([[3, 2], [1, 0], [2, 1], [0, 3], [4, 5], [5, 4]]), 6),
        # pick 1 also lies in row 0, hit by pick 0: row 0 must not take a
        # second count off vertex 2, or the tie 2 = 5 = 6 goes to 5
        (np.array([[0, 1, 2], [0, 3, 4], [3, 1, 4], [5, 6, 2]]), 7),
        (np.arange(7)[::-1, None], 7),                                # s = 1
        (np.array([[4], [4], [0], [2], [4], [0]]), 5),                # s = 1
        (np.tile(np.arange(6)[::-1], (6, 1)), 6),                     # s = n
        (np.array([np.roll(np.arange(5), k) for k in range(5)]), 5),  # s = n
    ]
    for n, s in ((9, 3), (9, 9), (40, 1), (40, 6)):  # a hub in every row
        tables.append((_near_sets_all(star_graph(n, center=n // 2), s)[0], n))
    for members, n in tables:
        _check_hitting_set(np.asarray(members, dtype=np.int64), n)


def test_hitting_set_on_near_sets():
    rng = np.random.default_rng(227)
    graphs = [cycle_graph(30), cycle_graph(25, directed=True), path_graph(33),
              complete_graph(12),
              generate(GenSpec("grid", 36)),
              generate(GenSpec("barbell", 25, clique=8, path_len=10)),
              generate(GenSpec("bounded_degree", 60, max_degree=3, seed=5)),
              # zero-weight arcs: distance ties settle by vertex id
              build_graph(6, [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 0),
                              (4, 5, 2), (5, 0, 0), (0, 3, 0)], directed=True),
              build_graph(5, [(0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0),
                              (1, 2, 3)])]
    for i in range(12):
        n = int(rng.integers(5, 50))
        graphs.append(random_graph(rng, n, 2 * n, directed=bool(i % 2),
                                   weight_hi=(0, 3)[i % 3 == 0], connected=True))
    for g in graphs:
        for s in sorted({1, 2, 3, int(np.ceil(np.sqrt(g.n))), g.n}):
            _check_hitting_set(_near_sets_all(g, s)[0], g.n)


@st.composite
def _tie_tables(draw):
    """Tables of sets of 1 or 2 vertices, many rows each: counts tie in
    large bands."""
    n = draw(st.integers(2, 40))
    s = draw(st.integers(1, 2))
    rows = draw(st.lists(st.permutations(range(n)), min_size=n,
                         max_size=4 * n))
    return np.array([row[:s] for row in rows], dtype=np.int64), n


# every band settled in one pass from its second pick on, and the default
BAND_PICKS = [1, estimators_module._BAND_PICKS]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tie_tables(), st.sampled_from(BAND_PICKS))
def test_hitting_set_on_large_ties_matches_reference(table, picks):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators_module, "_BAND_PICKS", picks)
        _check_hitting_set(*table)


def test_hitting_set_bands_on_near_sets_of_random_graphs(monkeypatch):
    # n up to 300 at s = 2 gives levels of dozens of picks; int64 keys
    # must pick the same
    rng = np.random.default_rng(233)
    wide = lambda span: np.dtype(np.int64)
    for i in range(16):
        n = int(rng.integers(20, 300))
        g = random_graph(rng, n, int(rng.integers(n, 4 * n)),
                         directed=bool(i % 2), connected=True)
        for s in sorted({1, 2, int(np.ceil(np.sqrt(n)))}):
            members = _near_sets_all(g, s)[0]
            want = greedy_hitting_set_reference(members, n)
            for picks in BAND_PICKS:
                monkeypatch.setattr(estimators_module, "_BAND_PICKS", picks)
                assert np.array_equal(_greedy_hitting_set(members, n), want)
            monkeypatch.setattr(estimators_module, "_key_dtype", wide)
            assert np.array_equal(_greedy_hitting_set(members, n), want)
            monkeypatch.undo()


# ---- the near-set sweep -------------------------------------------------------

def _two_batch_sweep(g, s):
    """The sweep with an OUT batch for w and the hitters and an IN batch
    for w's near set, on any graph; returns (depth, witness)."""
    members, mdists = _near_sets_all(g, s)
    w = int(np.argmax(mdists[:, -1]))
    hitters = _greedy_hitting_set(members, g.n)
    out = batch_depths(g, np.concatenate(([w], hitters)), OUT)
    tracker = estimators_module._Deepest()
    tracker.offer(int(out[0]), w, OUT)
    tracker.offer_batch(batch_depths(g, members[w], IN), members[w], IN)
    tracker.offer_batch(out[1:], hitters, OUT)
    return tracker.depth, tracker.witness()


def _two_batch_rv(g, s, size, seed, sample_const):
    """rv as each attempt ran it before its sweep shared the batching
    rule: an OUT batch of the sample, the pivot w, and an IN batch of w's
    near set, on any graph.  Returns (value, witness, reruns, sample,
    near set), the near set None when the sample is every vertex."""
    rng = np.random.default_rng(seed)
    for rerun in range(estimators_module.DEFAULT_RERUN_CAP + 1):
        sample = np.sort(rng.choice(g.n, size=size, replace=False))
        tracker = estimators_module._Deepest()
        tracker.offer_batch(batch_depths(g, sample, OUT), sample, OUT)
        if sample.size == g.n:
            return tracker.depth, tracker.witness(), rerun, sample, None
        dist = search_module.nearest_in_set(g, sample, OUT)
        w = int(np.argmax(dist))
        tree = search_module.search(g, w, OUT)
        tracker.offer(tree.depth, w, OUT)
        near = tree.order[:s]
        if np.intersect1d(sample, near).size:
            tracker.offer_batch(batch_depths(g, near, IN), near, IN)
            return tracker.depth, tracker.witness(), rerun, sample, near
    raise RestartLimitError("reference")


def _two_batch_sparse(g, hint, threshold):
    """sparse as it ran before its sweep shared the batching rule, in the
    shape of :func:`_two_batch_rv`'s result."""
    high = np.flatnonzero(g.out_degrees >= threshold)
    tracker = estimators_module._Deepest()
    w, radius = 0, hint + 1
    if high.size:
        tracker.offer_batch(batch_depths(g, high, OUT), high, OUT)
        if high.size == g.n:
            return tracker.depth, tracker.witness(), 0, high, None
        dist = search_module.nearest_in_set(g, high, OUT)
        w = int(np.argmax(dist))
        radius = min(radius, int(dist[w]))
    tree = search_module.search(g, w, OUT)
    tracker.offer(tree.depth, w, OUT)
    ball = tree.order[tree.dist[tree.order] <= radius]
    tracker.offer_batch(batch_depths(g, ball, IN), ball, IN)
    return tracker.depth, tracker.witness(), 0, high, ball


def _pivot_calls(g, reruns, hitters, ball):
    """The searches a pivot estimator call runs: per rerun attempt the
    search to the hitters and the one from w, and no batch; then, unless
    the hitters are every vertex, those two searches (the first only with
    hitters) and the batches of the shared rule."""
    calls = ["nearest", "search"] * reruns
    if ball is None:
        return calls + [(OUT, hitters.size)]
    calls += ["nearest"] * bool(hitters.size) + ["search"]
    if not g.directed:
        return calls + [(OUT, hitters.size + ball.size)]
    return calls + [(OUT, hitters.size)] * bool(hitters.size) + [(IN, ball.size)]


@pytest.fixture
def search_log(monkeypatch):
    """Every batch (direction, sources), nearest_in_set and search that
    the estimators run, in order."""
    log = []
    batch = search_module.batch_search_stats
    nearest = estimators_module.nearest_in_set
    single = estimators_module.search

    def batch_spy(g, sources, direction):
        log.append((direction, len(sources)))
        return batch(g, sources, direction)

    def nearest_spy(*args):
        log.append("nearest")
        return nearest(*args)

    def search_spy(*args):
        log.append("search")
        return single(*args)

    monkeypatch.setattr(search_module, "batch_search_stats", batch_spy)
    monkeypatch.setattr(estimators_module, "nearest_in_set", nearest_spy)
    monkeypatch.setattr(estimators_module, "search", search_spy)
    return log


def _pivot_matches(est, calls, want, g):
    value, witness, reruns, hitters, ball = want
    assert (est.value, est.witness, est.reruns) == (value, witness, reruns)
    assert calls == _pivot_calls(g, reruns, hitters, ball)


def test_undirected_sweep_runs_one_batch(search_log):
    seen = set()
    rng = np.random.default_rng(239)
    for i in range(60):
        n = int(rng.integers(2, 70))
        directed = bool(i % 3 == 0)
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)),
                         directed=directed, connected=True)
        s = int(rng.integers(1, n + 1))
        tracker, members, _ = estimators_module._aingworth_sweep(g, s)
        out = 1 + _greedy_hitting_set(members, n).size  # w and the hitters
        assert search_log == ([(OUT, out), (IN, s)] if directed
                              else [(OUT, out + s)])
        want = _two_batch_sweep(g, s)
        assert (tracker.depth, tracker.witness()) == want
        est = aingworth(g, s)
        assert (est.value, est.witness) == want
        search_log.clear()

        try:
            est = sampled_estimate(g, s=s, seed=i,
                                   sample_const=(2.0, 0.5, 0.25, 50.0)[i % 4])
        except ValueError as exc:
            # at s = 1 w's near set is w, which a sample that is not every
            # vertex never holds: refused before the first attempt
            assert s == 1 and search_log == []
            assert str(exc).startswith("s=1 needs a sample of every vertex")
        else:
            calls = search_log[:]
            want = _two_batch_rv(g, s, est.param("sample_size"), i,
                                 est.param("sample_const"))
            _pivot_matches(est, calls, want, g)
            seen.add(("rv", directed, want[2] > 0, want[4] is None))
        search_log.clear()

        hint, threshold = i % 5, (1, 2, 4, n)[i % 4]
        est = sparse_estimate(g, hint, threshold)
        calls = search_log[:]
        want = _two_batch_sparse(g, hint, threshold)
        _pivot_matches(est, calls, want, g)
        seen.add(("sparse", directed, want[3].size == 0, want[4] is None))

        est = sparse_driver(g)
        want = _two_batch_sparse(g, est.param("htilde"), est.param("delta"))
        assert (est.value, est.witness) == want[:2]
        search_log.clear()
    # both orientations saw reruns, covering samples, empty hitter sets
    # and high-degree sets that are every vertex
    for method in ("rv", "sparse"):
        for directed in (False, True):
            for flag in (True, False):
                assert (method, directed, flag, False) in seen
            assert (method, directed, False, True) in seen


def test_pivot_sweep_searches_per_attempt(search_log):
    # a one-vertex sample of a star misses the pivot's near set on some
    # seeds; those attempts run the two searches and no batch
    g = star_graph(8)
    reruns = 0
    for seed in range(8):
        est = sampled_estimate(g, s=3, seed=seed, sample_const=1e-3)
        reruns += est.reruns
        assert search_log[:2 * est.reruns] == ["nearest", "search"] * est.reruns
        assert search_log[2 * est.reruns:] == ["nearest", "search", (OUT, 4)]
        search_log.clear()
    assert reruns
    # hitters that are every vertex: one OUT batch and nothing else
    directed = random_graph(np.random.default_rng(5), 30, 90, directed=True,
                            connected=True)
    for graph in (path_graph(12), directed):
        sparse_estimate(graph, 1, 1)
        sampled_estimate(graph, s=2, sample_const=1e9)
        assert search_log == [(OUT, graph.n)] * 2
        search_log.clear()
    # no hitter at all: no empty batch before the IN batch of the ball
    est = sparse_estimate(directed, 2, directed.n)
    assert search_log == ["search", (IN, search_log[-1][1])]
    assert est.value == _two_batch_sparse(directed, 2, directed.n)[0]


# ---- sampled (Las Vegas) estimator -----------------------------------------

def test_sampled_full_coverage_is_exact():
    g = path_graph(10)
    est = sampled_estimate(g, s=10, seed=5)
    assert est.value == 9


def test_sampled_path_bounds_and_reruns_counted():
    for seed in range(6):
        est = sampled_estimate(path_graph(10), s=3, seed=seed)
        assert 6 <= est.value <= 9
        assert est.reruns >= 0


def test_sampled_reruns_when_the_sample_misses_the_near_set():
    # a sample of one vertex of a star often misses the pivot's 3 closest
    # vertices; each such miss must resample, not return
    g = star_graph(8)
    d = exact_diameter(g).diameter
    h, z = decompose(d)
    reruns = []
    for seed in range(8):
        est = sampled_estimate(g, s=3, seed=seed, sample_const=1e-3)
        assert est.param("sample_size") == 1
        assert est.value == d
        assert est.value >= 2 * h + (z if z in (0, 1) else 1)
        assert est.value >= (2 * d) // 3
        reruns.append(est.reruns)
    assert max(reruns) >= 1


def test_s1_with_a_partial_sample_is_refused_unless_an_arc_weighs_0():
    # w's near set is w, which a partial sample never holds
    for g, run in ((path_graph(10), sampled_estimate),
                   (path_graph(10, weights=[1] * 9), sampled_estimate_weighted)):
        with pytest.raises(ValueError, match="^s=1 needs a sample of every "
                                             "vertex, got sample_size=3 of n=10$"):
            run(g, s=1, sample_const=0.1)
    # with every arc 0 all vertices lie at distance 0 of the sample, so w
    # is vertex 0, and an attempt whose sample holds it succeeds
    g = build_graph(6, [(i, (i + 1) % 6, 0) for i in range(6)])
    ests = [sampled_estimate_weighted(g, s=1, seed=seed, sample_const=0.3)
            for seed in range(4)]
    assert [e.param("sample_size") for e in ests] == [4] * 4
    assert max(e.reruns for e in ests) >= 1


def test_sampled_floor_random():
    rng = np.random.default_rng(107)
    for i, g in enumerate(_sweep_graphs(rng, 300, n_hi=80)):
        d = exact_diameter(g).diameter
        h, z = decompose(d)
        est = sampled_estimate(g, seed=i)
        assert est.value <= d
        assert est.value >= (2 * h + z if z in (0, 1) else 2 * h + 1)


def test_sampled_determinism():
    rng = np.random.default_rng(109)
    g = random_graph(rng, 60, 180, directed=True, connected=True)
    a = sampled_estimate(g, seed=42)
    b = sampled_estimate(g, seed=42)
    assert a == b


def test_sampled_rejects_weighted():
    g = build_graph(2, [(0, 1, 2)])
    with pytest.raises(GraphError, match="unweighted"):
        sampled_estimate(g)


def test_sampled_weighted_unit_matches_unweighted():
    rng = np.random.default_rng(113)
    plain = random_graph(rng, 40, 120, connected=True)
    unit = build_graph(plain.n,
                       [(u, v, 1) for u in range(plain.n)
                        for v in plain.neighbors(u) if u < v])
    a = sampled_estimate(plain, s=7, seed=3)
    b = sampled_estimate_weighted(unit, s=7, seed=3)
    assert a.value == b.value
    assert a.witness == b.witness
    assert a.reruns == b.reruns


def test_sampled_weighted_path():
    g = path_graph(4, weights=[5, 5, 5])
    for seed in range(5):
        est = sampled_estimate_weighted(g, s=2, seed=seed)
        assert 10 <= est.value <= 15


def test_sampled_weighted_floor_random():
    rng = np.random.default_rng(127)
    strict = 0
    total = 0
    for i, g in enumerate(_sweep_graphs(rng, 120, n_hi=50, weight_hi=10)):
        d = exact_diameter(g).diameter
        est = sampled_estimate_weighted(g, seed=i)
        assert est.value <= d
        assert est.value >= (2 * d) // 3 - 10
        strict += est.value >= (2 * d) // 3
        total += 1
    assert strict / total > 0.5  # the unrelaxed floor usually holds too


# ---- dense pair-scan estimator ----------------------------------------------

def test_dense_complete():
    assert dense_estimate(complete_graph(5), 2).value == 1


def test_dense_cycle5_exact():
    est = dense_estimate(cycle_graph(5))
    assert est.value == 2  # D = 2; the scan may fire but never exceeds D


def test_dense_floor_all_z_random():
    rng = np.random.default_rng(131)
    seen_z = set()
    for g in _sweep_graphs(rng, 400, n_hi=70):
        d = exact_diameter(g).diameter
        h, z = decompose(d)
        est = dense_estimate(g)
        assert est.value <= d
        if h >= 1:
            assert est.value >= 2 * h + z
            seen_z.add(z)
    assert seen_z == {0, 1, 2}


def test_dense_scan_soundness():
    rng = np.random.default_rng(137)
    fired = 0
    for i in range(60):
        n = int(rng.integers(4, 28))
        g = random_graph(rng, n, 2 * n, directed=bool(i % 2), connected=True)
        ref = fw_apsp(g)
        s = int(rng.integers(1, 5))
        for u, v, bound in dense_pairs_reference(g, s):
            assert ref[u, v] >= bound
            fired += 1
    assert fired > 0


def test_dense_rejects_weighted():
    with pytest.raises(GraphError, match="unweighted"):
        dense_estimate(build_graph(2, [(0, 1, 2)]))


def test_dense_pair_certificate_strictly_improves():
    # frozen instance: the tree part stalls below D=5 but the pair scan
    # certifies 5 exactly
    arcs = [(0, 1), (0, 5), (1, 0), (1, 4), (1, 5), (1, 7), (2, 0), (2, 3),
            (3, 1), (3, 2), (4, 6), (5, 0), (5, 3), (6, 5), (6, 7), (7, 5)]
    g = build_graph(8, arcs, directed=True)
    assert exact_diameter(g).diameter == 5
    tree_part = max(aingworth(g, 4).value, aingworth(g.reverse(), 4).value)
    assert tree_part < 5
    est = dense_estimate(g, 4)
    assert est.value == 5
    assert est.witness.kind == "pair" and est.witness.pair == (7, 6)
    assert recompute_witness(g, est) == 5


def test_recompute_witness_rejects_forged_pairs():
    # on a path of 6 at s = 3, the out-tree of 0 is {0, 1}; the in-tree of
    # 1 is {1}, which it holds, and that of 2 is {2}, one edge away
    g = path_graph(6)
    for v, message in ((1, "trees intersect"), (2, "edge between trees")):
        forged = Estimate(5, "dense", Witness("pair", pair=(0, v)),
                          params=(("s", 3),))
        with pytest.raises(ValueError, match=f"^scan pair invalid: {message}$"):
            recompute_witness(g, forged)


def test_dense_builds_bitsets_only_for_survivors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bitset built")

    # no u passes radius_out(u) + max radius_in > value: nothing to AND
    for g, s in ((path_graph(9), 3), (cycle_graph(12), 3),
                 (generate(GenSpec("gnm", 200, m=500, seed=3)), None)):
        expected = dense_estimate(g, s)
        with monkeypatch.context() as patch:
            patch.setattr(estimators_module, "_tree_bitsets", refuse)
            assert dense_estimate(g, s) == expected
    # the frozen instance of test_dense_pair_certificate_strictly_improves
    # has survivors: they build reach rows for themselves alone
    arcs = [(0, 1), (0, 5), (1, 0), (1, 4), (1, 5), (1, 7), (2, 0), (2, 3),
            (3, 1), (3, 2), (4, 6), (5, 0), (5, 3), (6, 5), (6, 7), (7, 5)]
    g = build_graph(8, arcs, directed=True)
    built = []
    real = estimators_module._tree_bitsets

    def count_rows(members, *args):
        built.append(len(members))
        return real(members, *args)

    monkeypatch.setattr(estimators_module, "_tree_bitsets", count_rows)
    assert dense_estimate(g, 4).witness.pair == (7, 6)
    assert built[0] == 8 and 0 < built[1] < 8  # all in-trees, some reaches


def _dense_scan_cases():
    rng = np.random.default_rng(179)
    for i in range(60):
        n = int(rng.integers(4, 36))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)),
                         directed=bool(i % 2), connected=True)
        # the default s, and larger ones, under which pairs win now and then
        for s in (None, 4, 8):
            yield g, s
    # frozen: at s = 6 the pairs (4, 11) and (4, 12) both certify the value
    yield build_graph(13, [
        (0, 3), (0, 5), (0, 6), (0, 8), (0, 9), (1, 2), (1, 5), (1, 9),
        (1, 10), (2, 6), (2, 7), (3, 4), (3, 9), (4, 5), (5, 9), (6, 7),
        (6, 8), (6, 10), (6, 11), (6, 12), (7, 8), (7, 10), (7, 11), (7, 12),
        (8, 11), (11, 12)]), 6


def test_dense_value_matches_exhaustive_scan():
    pair_witnesses = 0
    for g, s_arg in _dense_scan_cases():
        est = dense_estimate(g, s_arg)
        s = est.param("s")
        tree_part = max(aingworth(g, s).value, aingworth(g.reverse(), s).value)
        pairs = dense_pairs_reference(g, s)
        pair_part = max((b for _, _, b in pairs), default=-1)
        assert est.value == max(tree_part, pair_part)
        if est.witness.kind == "pair":
            # the scan keeps the first (u, v), in (u, v) order, that
            # certifies the value
            first = min((u, v) for u, v, b in pairs if b == est.value)
            assert est.witness.pair == first
            pair_witnesses += 1
    assert pair_witnesses > 0


# ---- sparse estimator ---------------------------------------------------------

def test_sparse_star():
    # D = 2 (leaf to leaf), h = 0, z = 2: the inward searches from the
    # radius-1 ball around the far vertex must certify 2
    est = sparse_estimate(star_graph(5), 0, 2)
    assert est.value == 2


def test_sparse_empty_high_degree_branch():
    rng = np.random.default_rng(139)
    for _ in range(40):
        n = int(rng.integers(3, 40))
        g = random_graph(rng, n, int(1.5 * n), connected=True)
        d = exact_diameter(g).diameter
        h, z = decompose(d)
        est = sparse_estimate(g, d, int(g.out_degrees.max()) + 1)
        assert est.value <= d
        assert est.value >= 2 * h + z


def test_sparse_oversized_hint_stays_bounded():
    g = path_graph(10)
    est = sparse_estimate(g, 10, 2)
    assert 6 <= est.value <= 9


def test_sparse_hint_below_h_still_sound():
    rng = np.random.default_rng(149)
    for _ in range(30):
        g = random_graph(rng, 30, 45, connected=True)
        d = exact_diameter(g).diameter
        est = sparse_estimate(g, 0, 3)
        assert est.value <= d  # the lower floor is forfeited, not soundness


def test_sparse_driver_examples():
    assert sparse_driver(complete_graph(6)).value == 1
    est = sparse_driver(path_graph(10))
    assert 6 <= est.value <= 9
    assert est.param("htilde") == 6


def test_sparse_driver_ceiling_floor_random():
    rng = np.random.default_rng(151)
    for i in range(300):
        n = int(rng.integers(4, 80))
        g = random_graph(rng, n, 3 * n, directed=bool(i % 2), connected=True)
        d = exact_diameter(g).diameter
        est = sparse_driver(g)
        assert est.value <= d
        assert est.value >= -(-2 * d // 3)  # ceil(2D/3)


def test_finiteness_needs_both_trees_of_vertex_0():
    # 0 reaches every vertex but no vertex reaches 0, and the reverse:
    # two_approx's own trees must catch both, for the sparse driver too
    for edges in ([(0, 1), (1, 2)], [(1, 0), (2, 1)]):
        g = build_graph(3, edges, directed=True)
        for run in (two_approx, sparse_driver,
                    lambda g: sparse_estimate(g, 1, 1)):
            with pytest.raises(InfiniteDiameterError) as exc:
                run(g)
            assert str(exc.value) == "graph has infinite diameter"
    with pytest.raises(GraphError, match="^finite_diameter_check requires "
                                         "at least one vertex$"):
        two_approx(build_graph(0, []))


# ---- early stops ----------------------------------------------------------------

def _bidirected_cycle(n):
    return build_graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, -1)],
                       directed=True)


# directed graphs on which each estimator's first OUT batch covers every
# vertex: sampling's sample (n <= its size formula), rv's (2 (n/s) ln n >=
# n at n = 16, s = 4) and sparse's high-degree set (every out-degree meets
# delta); each case checks its own premise on the Estimate
_FULL_COVER = [
    ("sampling", lambda g: sampling_estimate(g, seed=3),
     lambda g, est: est.param("sample_size") == g.n),
    ("rv", lambda g: sampled_estimate(g, seed=3),
     lambda g, est: est.param("sample_size") == g.n),
    ("rv-weighted", lambda g: sampled_estimate_weighted(g, seed=3),
     lambda g, est: est.param("sample_size") == g.n),
    ("sparse", lambda g: sparse_estimate(g, 2, 1),
     lambda g, est: g.out_degrees.min() >= 1),
    ("sparse-driver", sparse_driver,
     lambda g, est: g.out_degrees.min() >= est.param("delta")),
]


@pytest.mark.parametrize("name, run, premise", _FULL_COVER,
                         ids=[name for name, _, _ in _FULL_COVER])
def test_full_cover_stops_after_the_out_batch(monkeypatch, name, run, premise):
    directions = []
    real = search_module.batch_search_stats

    def spy(g, sources, direction):
        directions.append(direction)
        return real(g, sources, direction)

    monkeypatch.setattr(search_module, "batch_search_stats", spy)
    rng = np.random.default_rng(229)
    graphs = [random_graph(rng, 16, 48, directed=True, connected=True,
                           weight_hi=9 if name == "rv-weighted" else 0)
              for _ in range(5)]
    if name == "sparse-driver":
        graphs = [_bidirected_cycle(n) for n in (16, 24, 40)]
    for g in graphs:
        directions.clear()
        est = run(g)
        assert premise(g, est)
        assert directions == [OUT]
        # the mirror: the same run with the stop turned off takes every
        # step after the OUT batch, and must give the same Estimate
        with monkeypatch.context() as patch:
            patch.setattr(estimators_module, "_covers", lambda g, v: False)
            directions.clear()
            assert run(g) == est
            assert IN in directions


# ---- four-fifths estimator ----------------------------------------------------

def test_four_fifths_exact_oracle_branches():
    assert four_fifths_estimate(complete_graph(5)).value == 1
    # D = 5: with the exact oracle (error 0) the direct branch answers
    est = four_fifths_estimate(path_graph(6))
    assert est.value == 5
    assert est.param("branch") == "direct"


def test_four_fifths_rejects_directed_and_weighted():
    with pytest.raises(GraphError):
        four_fifths_estimate(build_graph(2, [(0, 1)], directed=True))
    with pytest.raises(GraphError):
        four_fifths_estimate(build_graph(2, [(0, 1, 2)]))


def test_four_fifths_rejects_other_error_bounds():
    from diamest import exact_apsp

    with pytest.raises(ValueError, match="^additive error bound must be 0 or"
                                         " 2, got 1$"):
        four_fifths_estimate(path_graph(6),
                             distance_oracle=lambda g: (exact_apsp(g), 1))


def test_four_fifths_degraded_oracle():
    from diamest import exact_apsp

    rng = np.random.default_rng(157)

    def degraded(seed):
        def oracle(g):
            mat = exact_apsp(g)
            noise_rng = np.random.default_rng(seed)
            noise = noise_rng.integers(0, 3, size=mat.shape)
            noise = np.triu(noise, 1)
            noise = noise + noise.T  # symmetric, zero diagonal
            return mat + noise, 2
        return oracle

    for i in range(150):
        n = int(rng.integers(2, 60))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)), connected=True)
        d = exact_diameter(g).diameter
        est = four_fifths_estimate(g, distance_oracle=degraded(i))
        assert (4 * d) // 5 <= est.value <= d


def test_four_fifths_default_oracle_matches_matrix_oracle():
    # the streamed exact diameter gives the matrix oracle's maximum and
    # its first argmax, so value, witness and branch all agree
    from diamest import exact_apsp

    rng = np.random.default_rng(163)
    graphs = [build_graph(1, []), complete_graph(5), cycle_graph(7),
              path_graph(6), star_graph(6)]
    graphs += _sweep_graphs(rng, 24, n_hi=40, directed_mix=False)
    branches = set()
    for g in graphs:
        est = four_fifths_estimate(g)
        assert est == four_fifths_estimate(
            g, distance_oracle=lambda h: (exact_apsp(h), 0))
        branches.add(est.param("branch"))
    assert branches == {"direct", "dense", "near"}


# ---- sampling estimator -------------------------------------------------------

def test_sampling_exhaustive_is_exact():
    g = cycle_graph(20)
    est = sampling_estimate(g, epsilon=0.5, delta=0.25, seed=1)
    assert est.param("sample_size") == 20  # formula caps at n here
    assert est.value == 10


def test_sample_sizes_that_overflow_take_every_vertex():
    # ceil(inf) used to raise "cannot convert float infinity to integer"
    g = path_graph(10)
    for est in (sampled_estimate(g, sample_const=1e308),
                sampled_estimate_weighted(g, sample_const=1e308),
                sampling_estimate(g, delta=1e-320)):
        assert est.param("sample_size") == 10
        assert est.value == 9


def test_sampling_parameter_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        sampling_estimate(g, epsilon=0.0)
    with pytest.raises(ValueError):
        sampling_estimate(g, delta=1.0)


def test_sampling_lower_bound_on_long_paths():
    g = path_graph(300)
    d = 299
    hits = 0
    for seed in range(40):
        est = sampling_estimate(g, epsilon=0.5, delta=0.25, seed=seed,
                                sample_const=0.25)
        assert est.value <= d
        hits += est.value >= 0.75 * d
    assert hits >= 38


# ---- cross-cutting properties ---------------------------------------------------

_ALL = [
    ("two-approx", lambda g, seed: two_approx(g)),
    ("aingworth", lambda g, seed: aingworth(g)),
    ("rv", lambda g, seed: sampled_estimate(g, seed=seed)),
    ("rv-weighted", lambda g, seed: sampled_estimate_weighted(g, seed=seed)),
    ("dense", lambda g, seed: dense_estimate(g)),
    ("sparse", lambda g, seed: sparse_driver(g)),
    ("four-fifths", lambda g, seed: four_fifths_estimate(g)),
    ("sampling", lambda g, seed: sampling_estimate(g, seed=seed)),
]


def test_upper_soundness_multi_seed():
    rng = np.random.default_rng(163)
    for i, g in enumerate(_sweep_graphs(rng, 60, n_hi=60)):
        d = exact_diameter(g).diameter
        for name, run in _ALL:
            if name == "four-fifths" and g.directed:
                continue
            for seed in (0, 1, 2):
                assert run(g, seed + 7 * i).value <= d, name


def test_estimator_determinism():
    rng = np.random.default_rng(167)
    g = random_graph(rng, 50, 150, directed=True, connected=True)
    gu = random_graph(rng, 50, 150, directed=False, connected=True)
    for name, run in _ALL:
        target = gu if name == "four-fifths" else g
        assert run(target, 9) == run(target, 9), name


def test_witness_recomputation_reproduces_value():
    rng = np.random.default_rng(173)
    checked = set()
    for i, g in enumerate(_sweep_graphs(rng, 120, n_hi=50)):
        for name, run in _ALL:
            if name == "four-fifths" and g.directed:
                continue
            est = run(g, i)
            assert recompute_witness(g, est) == est.value, name
            checked.add((name, est.witness.kind))
    kinds = {k for _, k in checked}
    assert "tree" in kinds and "distance" in kinds


def test_all_estimators_reject_infinite_diameter():
    g = build_graph(4, [(0, 1), (2, 3)])
    for name, run in _ALL:
        with pytest.raises(InfiniteDiameterError):
            run(g, 0)


def test_single_vertex_graph():
    g = build_graph(1, [])
    for name, run in _ALL:
        assert run(g, 0).value == 0, name
