"""generators module: family properties, determinism, connectivity."""
import dataclasses
import hashlib
import re

import numpy as np
import pytest

import diamest.generators as generators
from diamest import (GenSpec, build_graph, exact_diameter, finite_diameter_check,
                     generate, write_edge_list)
from diamest.generators import _misses_a_vertex, _sample_pairs


def _diam(g):
    return exact_diameter(g).diameter


def test_path_family():
    assert _diam(generate(GenSpec("path", 10))) == 9


def test_cycle_family():
    assert _diam(generate(GenSpec("cycle", 9))) == 4
    assert _diam(generate(GenSpec("cycle", 8, directed=True))) == 7


def test_star_and_complete():
    assert _diam(generate(GenSpec("star", 7))) == 2
    assert _diam(generate(GenSpec("complete", 6))) == 1
    assert _diam(generate(GenSpec("complete", 4, directed=True))) == 1


def test_grid_family():
    g = generate(GenSpec("grid", 12))
    assert g.n == 12
    assert _diam(g) == (3 - 1) + (4 - 1)


def test_barbell_family():
    g = generate(GenSpec("barbell", 13, clique=5, path_len=4))
    assert g.n == 13
    assert _diam(g) == 6
    default = generate(GenSpec("barbell", 15))
    assert default.n == 15
    with pytest.raises(ValueError):
        generate(GenSpec("barbell", 10, clique=5, path_len=4))
    # n is checked when only path_len is given, too; it used to be ignored
    assert generate(GenSpec("barbell", 6, path_len=3)).n == 6
    with pytest.raises(ValueError, match=r"^barbell with clique=2, path_len=3 has 6 "
                                         r"vertices, but n=100 was given$"):
        generate(GenSpec("barbell", 100, path_len=3))


def test_gnm_determinism():
    a = generate(GenSpec("gnm", 100, m=300, seed=7))
    b = generate(GenSpec("gnm", 100, m=300, seed=7))
    assert a == b
    assert write_edge_list(a) == write_edge_list(b)
    c = generate(GenSpec("gnm", 100, m=300, seed=8))
    assert c != a


def test_gnm_connectivity_guaranteed():
    for seed in range(12):
        for directed in (False, True):
            g = generate(GenSpec("gnm", 60, m=70, seed=seed, directed=directed))
            assert finite_diameter_check(g)
            assert 70 <= g.m <= 70 + 60  # backbone may add at most n edges


def test_gnp_family():
    g = generate(GenSpec("gnp", 40, p=0.1, seed=3))
    assert finite_diameter_check(g)
    gd = generate(GenSpec("gnp", 40, p=0.1, seed=3, directed=True))
    assert gd.directed and finite_diameter_check(gd)


def test_bounded_degree_family():
    g = generate(GenSpec("bounded_degree", 50, m=80, max_degree=4, seed=2))
    assert finite_diameter_check(g)
    degs = np.asarray([g.neighbors(v).size for v in range(g.n)])
    assert degs.max() <= 4


def test_bounded_degree_m_over_the_cap_is_rejected():
    # every edge takes two of the n * max_degree degree slots; m past that
    # used to make 20 m draws (no end at m = 10^20) and return fewer edges
    for directed in (False, True):
        spec = GenSpec("bounded_degree", 5, m=7, max_degree=3, directed=directed)
        try:  # at the cap the draws may strand a slot, which is an error
            assert generate(spec).m == 7
        except ValueError as exc:
            assert re.fullmatch(r"bounded_degree placed [0-6] of m=7 edges at "
                                r"max_degree=3", str(exc))
        for m in (8, 10 ** 20):
            with pytest.raises(ValueError, match=f"^m={m} exceeds 7 possible "
                                                 f"edges at max_degree=3$"):
                generate(dataclasses.replace(spec, m=m))
    # three vertices have three pairs, whatever the degree cap
    with pytest.raises(ValueError, match="^m=4 exceeds 3 possible edges"):
        generate(GenSpec("bounded_degree", 3, m=4, max_degree=9))


def test_bounded_degree_short_of_a_given_m_is_an_error():
    # at m = n * max_degree / 2 the capped draws can strand free slots on
    # two adjacent vertices, or on one vertex
    spec = GenSpec("bounded_degree", 100, m=150, max_degree=3)
    for seed in range(4):
        with pytest.raises(ValueError, match="^bounded_degree placed 149 of "
                                             "m=150 edges at max_degree=3$"):
            generate(dataclasses.replace(spec, seed=seed))
    assert generate(dataclasses.replace(spec, seed=4)).m == 150
    # with no m given the target is n edges, and a shortfall stands: a
    # Hamiltonian path closes into a cycle only if its two ends are drawn
    assert [generate(GenSpec("bounded_degree", 100, max_degree=2, seed=seed)).m
            for seed in (0, 1)] == [100, 99]


def test_weighted_variants():
    g = generate(GenSpec("gnm", 30, m=60, seed=5, weight_range=(1, 10)))
    assert g.weighted
    assert 1 <= g.weights.min() and g.weights.max() <= 10
    again = generate(GenSpec("gnm", 30, m=60, seed=5, weight_range=(1, 10)))
    assert again == g
    wp = generate(GenSpec("path", 6, weight_range=(3, 3)))
    assert _diam(wp) == 15


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate(GenSpec("nope", 5))
    with pytest.raises(ValueError):
        generate(GenSpec("gnm", 5))             # missing m
    with pytest.raises(ValueError):
        generate(GenSpec("gnm", 5, m=100))      # over capacity
    with pytest.raises(ValueError):
        generate(GenSpec("gnp", 5))             # missing p
    with pytest.raises(ValueError):
        generate(GenSpec("path", 5, directed=True))
    with pytest.raises(ValueError):
        generate(GenSpec("gnm", 0, m=0))


def test_negative_m_is_rejected():
    # gnm used to treat m = -1 as 0, and bounded_degree -3 as no extra edge
    for spec in (GenSpec("gnm", 5, m=-1), GenSpec("gnm", 5, m=-1, directed=True),
                 GenSpec("bounded_degree", 5, m=-3, max_degree=3),
                 GenSpec("path", 5, m=-2)):
        with pytest.raises(ValueError, match=f"^m must be >= 0, got {spec.m}$"):
            generate(spec)
    assert finite_diameter_check(generate(GenSpec("gnm", 5, m=0)))


def test_small_n_edge_cases():
    assert _diam(generate(GenSpec("path", 1))) == 0
    assert _diam(generate(GenSpec("cycle", 1))) == 0
    assert _diam(generate(GenSpec("cycle", 2))) == 1
    assert _diam(generate(GenSpec("cycle", 2, directed=True))) == 1
    assert _diam(generate(GenSpec("complete", 1))) == 0


# the benchmark's sweep-directed and nearset-undirected shapes, at the seed
# that its workload seed 1 derives for their first graph
SWEEP = GenSpec("gnm", 1024, m=3072, seed=1000013, directed=True)
NEARSET = GenSpec("gnm", 768, m=1920, seed=1000013)

# sha256 of write_edge_list(generate(spec)): the samplers draw in fixed
# chunks with first-seen-wins order, so every seed keeps its graph
PINNED = [
    (GenSpec("gnm", 200, m=600, seed=5),
     "3af6530b30b26939a09aa8fa3994f0e019272ad12d5380ef62c97ca8a6edaed0"),
    (GenSpec("gnm", 150, m=450, seed=6, directed=True),
     "d3774fb3093f2e236e4a755d82870c75ecbd07a2262824ebc176f16404f0ccef"),
    (GenSpec("gnm", 100, m=300, seed=7, directed=True, weight_range=(1, 10)),
     "42e1711ea6e7247007136b816f4dccc1068d9d5a4222240124ea6b6cfc9701cf"),
    (GenSpec("gnm", 300, m=250, seed=8),  # never connects: backbone overlay
     "d9b4379db914582b77fe4b5fff86ee4e6e19dd29848eef7e92f5b838fe477ce2"),
    (GenSpec("gnm", 40, m=700, seed=9),  # near capacity: many chunks
     "fdfe0ce91d5f6cd3753cd48f62df097257b70998a6a9e94b02593f5418f88521"),
    (GenSpec("gnm", 30, m=800, seed=10, directed=True, weight_range=(0, 3)),
     "4788738f293ac29ec80e315e108ab2a83f1a418c7c5f2f86ee540477ccf526d4"),
    (GenSpec("gnp", 80, p=0.05, seed=3, directed=True),
     "2d3c65e9de53da8aea665e87e9aec67c88c5431093a31726b0db83dcff08b151"),
    (GenSpec("gnp", 60, p=0.02, seed=4, weight_range=(5, 5)),
     "17dd64753a5276ffad54b5f89358b53a94ea7bd3a35be8fc2ad4d96c89772300"),
    (GenSpec("bounded_degree", 60, max_degree=3, m=80, seed=2),
     "65d462db4cf0580d5d9bcf69d00ee8ce1c9d47c7d91ea4ed3d2ae54f3531cfc4"),
    (SWEEP, "9539e04345a506cf566e83efe79842e82db3e96b011afb0f5d8b671f9c190b2a"),
    (NEARSET, "7a169b7dc97c024cee6d3f04fd6a33269484cf7581299e9c3c154322e83d2618"),
    # the structured families, pinned while they were built as tuple lists
    (GenSpec("path", 130),
     "4a573a0d8dd9b8b5ec18e76aa3e48041289bb2db9993619c6d2244fd4b1b79db"),
    (GenSpec("cycle", 96),
     "3fa3b2a24429815e38db4586a1a47e52c22d9b076a8bb03af9546e59dcf664d7"),
    (GenSpec("cycle", 96, directed=True),
     "e22bb7771234512e2f733c0a959db070fa9b3ec441499960a69de3d789b5a759"),
    (GenSpec("cycle", 2),
     "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"),
    (GenSpec("star", 7),
     "ad06cb270fd00884033da41a25508389b3efb9e97fbdd12f94b76f3f91a45af3"),
    (GenSpec("complete", 6),
     "3855aca69894c94c7c28e83bbef2440f4b3b44f44fe8567de447989fceb3317e"),
    (GenSpec("complete", 5, directed=True),
     "17ef3be649496f72772d9a4da4c29a4be7d97f9fa73b60a7f8fd0f9240eddf2c"),
    (GenSpec("grid", 96),
     "dd6136c720b5e24f90e35ffb1aac32681eb40d666e3f704db6fa4bcc88c09e47"),
    (GenSpec("grid", 7),  # a prime n: one row
     "cf064f6123409d88031a21cf5fb477cf8363544d74f99e476847bc69525553ac"),
    (GenSpec("barbell", 96),
     "5a9cec4501ff658b1f2fee8739c6d451bafc8c390e8ebe276283b1d374fe1d3c"),
    (GenSpec("barbell", 13, clique=5, path_len=4),
     "8ed555d5bc96d906bbbc0e0bf42b385a95c996aead75fac463cfc020aef0f8fd"),
    (GenSpec("barbell", 6, path_len=3),
     "af5d122d6b87e1e2689d2da7daee968ba55e609551d6e3de49e9f07974afed06"),
    (GenSpec("grid", 96, weight_range=(1, 10)),
     "0b02c6872b4fc286b0f9109ed2382ee32c5d111aefe2ffc6c502bf8ec8db4db9"),
    # the benchmark's ingest shapes, at the seeds that its workload seed 1
    # derives for their first files, pinned while pairs were drawn through
    # an argsort
    (GenSpec("gnm", 2500, m=25000, seed=1000013),
     "8b80ae5fb2598a0962b780fb5241e80b37ec8564438446d423d3edcc2ddb978e"),
    (GenSpec("gnm", 1250, m=12500, seed=1000023, weight_range=(1, 100)),
     "e9e0153c4dfe3850c5f8206783baf0ca47ae284b7c9881fd17c73753cf9a8f2a"),
    # a first chunk of 80008 draws, past 2^16 positions
    (GenSpec("gnm", 4096, m=40000, seed=11),
     "8d3d32a1e49cbc9ff89afffe3b82b3cd08a10f938d25002a2f4e1027951ca17a"),
    (GenSpec("gnm", 4096, m=40000, seed=12, directed=True),
     "7f22a26ee81472b78ce39116c211d4a108748788eceb706d7ecd926217185c3d"),
]


@pytest.mark.parametrize("spec,digest", PINNED)
def test_generated_graphs_are_pinned(spec, digest):
    text = write_edge_list(generate(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _reference_sample_pairs(rng, n, m, directed):
    """The per-draw loop that _sample_pairs vectorizes."""
    chosen = {}
    while len(chosen) < m:
        need = m - len(chosen)
        us = rng.integers(0, n, size=2 * need + 8)
        vs = rng.integers(0, n, size=2 * need + 8)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key not in chosen:
                chosen[key] = None
                if len(chosen) == m:
                    break
    return sorted(chosen)


def _matches_per_draw_loop(cases_seed):
    rng = np.random.default_rng(cases_seed)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        directed = bool(rng.integers(0, 2))
        cap = n * (n - 1) if directed else n * (n - 1) // 2
        m = int(rng.integers(0, cap + 1))
        seed = int(rng.integers(0, 2 ** 32))
        ref_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        want = _reference_sample_pairs(ref_rng, n, m, directed)
        got = _sample_pairs(new_rng, n, m, directed)
        assert sorted(map(tuple, got.tolist())) == want
        # the same number of draws, so later draws see the same stream
        assert ref_rng.integers(0, 2 ** 62) == new_rng.integers(0, 2 ** 62)


def test_sample_pairs_matches_per_draw_loop():
    _matches_per_draw_loop(5)


def test_sample_pairs_without_packed_keys_matches_per_draw_loop(monkeypatch):
    # the argsort taken when a position packed under a pair key would
    # overflow int64
    monkeypatch.setattr(generators, "_key_dtype", lambda span: None)
    _matches_per_draw_loop(6)


@pytest.mark.parametrize("spec", [SWEEP, NEARSET], ids=["sweep", "nearset"])
def test_draws_that_miss_a_vertex_build_no_graph(monkeypatch, spec):
    # every one of the 8 retried draws leaves some vertex without an arc,
    # so only the backbone overlay builds a graph
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(generators, "build_graph", counting)
    generate(spec)
    assert built == [spec.n]


def test_degree_check_skips_only_unconnected_draws(monkeypatch):
    # a skipped draw must be one that finite_diameter_check would refuse
    draws = []

    def recording(n, edges, directed):
        draws.append((n, edges, directed, _misses_a_vertex(n, edges, directed)))
        return draws[-1][-1]

    monkeypatch.setattr(generators, "_misses_a_vertex", recording)
    rng = np.random.default_rng(17)
    for _ in range(240):
        n = int(rng.integers(1, 24))
        directed = bool(rng.integers(0, 2))
        seed = int(rng.integers(0, 2 ** 32))
        if rng.integers(0, 2):
            cap = n * (n - 1) if directed else n * (n - 1) // 2
            m = int(rng.integers(0, min(cap, 3 * n) + 1))
            spec = GenSpec("gnm", n, m=m, seed=seed, directed=directed)
        else:
            spec = GenSpec("gnp", n, p=float(rng.uniform(0, 0.4)), seed=seed,
                           directed=directed)
        generate(spec)
    connected = [finite_diameter_check(build_graph(n, e, directed=d))
                 for n, e, d, _ in draws]
    skipped = [skip for *_, skip in draws]
    assert not any(c and s for c, s in zip(connected, skipped))
    # the draws hold all three kinds: skipped, built and refused, connected
    assert sum(skipped) >= 200 and any(connected)
    assert any(not (c or s) for c, s in zip(connected, skipped))
