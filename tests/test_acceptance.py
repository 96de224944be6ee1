"""Acceptance suite: every shipped guarantee checked at desk scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the guarantee with zero tolerance unless stated otherwise.  All
corpora are fixed-seed (see conftest) so the suite is reproducible.
"""
import math
import time

import numpy as np
import pytest

from diamest import (aingworth, build_diameter_instance, dense_estimate,
                     exact_apsp, exact_diameter, four_fifths_estimate,
                     generate, GenSpec, sampled_estimate,
                     sampled_estimate_weighted, sampling_estimate,
                     sparse_driver, two_approx)
from helpers import decompose, fit_time_exponent, random_graph

SEED = 987_654_321


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {detail} -- {'PASS' if ok else 'FAIL'}")
    assert ok, f"{tag}: {detail}"


def _sqrt_s(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s >= n else s + 1


# -- 1: no estimator ever exceeds the exact diameter --------------------------

def test_a01_upper_soundness(corpus_main, oracle_main):
    # deterministic estimators once per graph, randomized ones at 3 seeds
    fixed = [
        ("two-approx", lambda g, i: two_approx(g)),
        ("aingworth", lambda g, i: aingworth(g)),
        ("dense", lambda g, i: dense_estimate(g)),
        ("sparse", lambda g, i: sparse_driver(g)),
        ("four-fifths", lambda g, i: four_fifths_estimate(g)),
    ]
    seeded = [
        ("rv", sampled_estimate),
        ("rv-weighted", sampled_estimate_weighted),
        ("sampling", lambda g, seed: sampling_estimate(g, seed=seed)),
    ]
    runs = 0
    violations = []

    def check(name, value, i):
        nonlocal runs
        runs += 1
        if value > oracle_main[i]:
            violations.append((name, i, value, int(oracle_main[i])))

    for name, run in fixed:
        for i, g in enumerate(corpus_main):
            if name == "four-fifths" and g.directed:
                continue
            check(name, run(g, i).value, i)
    for name, run in seeded:
        for i, g in enumerate(corpus_main):
            for k in range(3):
                check(name, run(g, seed=SEED + 3 * i + k).value, i)
    _report("A1 upper-soundness", not violations,
            f"{runs - len(violations)}/{runs} estimator runs <= exact D "
            f"(violations: {violations[:3]})")


# -- 2: near-set estimators meet the 2h+z / 2h+1 floor ------------------------

def test_a02_near_set_floors(corpus_main, oracle_main, rv_results):
    bad = []
    for i, g in enumerate(corpus_main):
        d = int(oracle_main[i])
        h, z = decompose(d)
        floor = 2 * h + z if z in (0, 1) else 2 * h + 1
        a = aingworth(g, _sqrt_s(g.n))
        r = rv_results[i]
        if not (floor <= a.value <= d):
            bad.append(("aingworth", i, a.value, d))
        if not (floor <= r.value <= d):
            bad.append(("rv", i, r.value, d))
    _report("A2 near-set floors", not bad,
            f"{2 * len(corpus_main) - len(bad)}/{2 * len(corpus_main)} runs "
            f"within [2h+z floor, D] (violations: {bad[:3]})")


# -- 3: pair-scan refinement reaches 2h+z for every z when D >= 3 --------------

def test_a03_dense_refinement(corpus_main, oracle_main):
    bad = []
    small_total = 0
    small_met = 0
    for i, g in enumerate(corpus_main):
        d = int(oracle_main[i])
        h, z = decompose(d)
        est = dense_estimate(g)
        if d >= 3:
            if not (2 * h + z <= est.value <= d):
                bad.append((i, est.value, d))
        else:
            # guarantee not asserted below D=3; measured and reported only
            small_total += 1
            small_met += est.value >= 2 * h + z
    asserted = len(corpus_main) - small_total
    _report("A3 dense-refinement", not bad,
            f"{asserted - len(bad)}/{asserted} instances with D>=3 reach 2h+z "
            f"(violations: {bad[:3]}); D<=2 measured: {small_met}/{small_total} "
            f"meet the floor (not asserted)")


# -- 4: self-tuning sparse estimator reaches ceil(2D/3) ------------------------

def test_a04_sparse_driver(corpus_sparse, oracle_sparse):
    bad = []
    for i, g in enumerate(corpus_sparse):
        d = int(oracle_sparse[i])
        est = sparse_driver(g)
        if not (-(-2 * d // 3) <= est.value <= d):
            bad.append((i, est.value, d))
    _report("A4 sparse-driver", not bad,
            f"{len(corpus_sparse) - len(bad)}/{len(corpus_sparse)} sparse "
            f"instances reach ceil(2D/3) (violations: {bad[:3]})")


# -- 5: four-fifths floor under a genuine additive-2 oracle --------------------

def _degraded_oracle(seed):
    def oracle(g):
        mat = exact_apsp(g, cap=max(g.n, 2048))
        noise = np.random.default_rng(seed).integers(0, 3, size=mat.shape)
        noise = np.triu(noise, 1)
        return mat + noise + noise.T, 2
    return oracle


def test_a05_four_fifths(corpus_main, oracle_main):
    undirected = [(i, g) for i, g in enumerate(corpus_main) if not g.directed]
    cases = undirected[:500]
    assert len(cases) == 500
    bad = []
    for j, (i, g) in enumerate(cases):
        d = int(oracle_main[i])
        est = four_fifths_estimate(g, distance_oracle=_degraded_oracle(SEED + j))
        if not ((4 * d) // 5 <= est.value <= d):
            bad.append((i, est.value, d))
    _report("A5 four-fifths", not bad,
            f"{len(cases) - len(bad)}/{len(cases)} degraded-oracle runs within "
            f"[floor(4D/5), D] (violations: {bad[:3]})")


# -- 6: weighted estimator within one max-weight of floor(2D/3) ----------------

def test_a06_weighted(corpus_weighted, oracle_weighted):
    bad = []
    strict = 0
    for i, g in enumerate(corpus_weighted):
        d = int(oracle_weighted[i])
        est = sampled_estimate_weighted(g, seed=SEED + i)
        if not ((2 * d) // 3 - g.max_weight() <= est.value <= d):
            bad.append((i, est.value, d))
        strict += est.value >= (2 * d) // 3
    _report("A6 weighted", not bad,
            f"{len(corpus_weighted) - len(bad)}/{len(corpus_weighted)} runs "
            f">= floor(2D/3) - w_max; unrelaxed floor met on "
            f"{strict}/{len(corpus_weighted)} (reported, not asserted)")


# -- 7: 2-vs-3 construction matches its certified diameter ---------------------

def test_a07_reduction_correctness():
    rng = np.random.default_rng(SEED)
    checked = 0
    early = 0
    bad = []
    cases = 0
    while checked + early < 520:
        n = int(rng.integers(3, 13))
        m = int(rng.integers(0, int(1.4 * n)))
        g = random_graph(rng, n, m)
        for k in (1, 2):
            if k > n or checked + early >= 520:
                continue
            cases += 1
            inst = build_diameter_instance(g, k)
            if inst.early_exit is not None:
                early += 1
                continue
            checked += 1
            if inst.gprime.n != math.comb(n, k) + n:
                bad.append(("nodes", n, k))
                continue
            got = exact_diameter(inst.gprime).diameter
            if got != inst.expected_diameter:
                bad.append((n, k, got, inst.expected_diameter))
    _report("A7 reduction", not bad and checked >= 250,
            f"{checked - len(bad)}/{checked} constructed instances match the "
            f"certified diameter and node count ({early} early exits)")


# -- 8: Las Vegas restarts are rare and capped ----------------------------------

def test_a08_las_vegas_reruns(rv_results):
    reruns = np.array([est.reruns for est in rv_results])
    ok = reruns.mean() <= 0.1 and reruns.max() <= 3
    _report("A8 las-vegas", ok,
            f"mean reruns {reruns.mean():.4f} (<=0.1), max {int(reruns.max())} "
            f"(<=3), safety cap never reached over {reruns.size} runs")


# -- 9: sampled estimator scales a full exponent class below exact -------------

def test_a09_scaling_trend():
    rng = np.random.default_rng(SEED + 9)
    sizes = [4096, 8192, 16384, 32768]
    exact_times = []
    rv_times = []
    for n in sizes:
        g = random_graph(rng, n, 3 * n, directed=True, connected=True)
        best = math.inf
        for rep in range(2):
            t0 = time.perf_counter()
            sampled_estimate(g, s=_sqrt_s(n), seed=SEED + rep)
            best = min(best, time.perf_counter() - t0)
        rv_times.append(best)
        best = math.inf
        for _ in range(2 if n <= 8192 else 1):  # cheap sizes: damp timer noise
            t0 = time.perf_counter()
            exact_diameter(g)
            best = min(best, time.perf_counter() - t0)
        exact_times.append(best)
    slope_exact = fit_time_exponent(sizes, exact_times)
    slope_rv = fit_time_exponent(sizes, rv_times)
    gap = slope_exact - slope_rv
    _report("A9 scaling-trend", gap >= 0.3,
            f"log-log slopes: exact {slope_exact:.2f}, sampled {slope_rv:.2f}, "
            f"gap {gap:.2f} (>= 0.3 required)")


# -- 10: large-diameter sampling achieves 3/4 D almost always -------------------

def test_a10_sampling_scheme():
    instances = [("cycle", 256), ("path", 512), ("cycle", 1024),
                 ("path", 2048), ("cycle", 4096)]
    lines = []
    ok = True
    for fam, n in instances:
        g = generate(GenSpec(fam, n))
        d = n // 2 if fam == "cycle" else n - 1
        # the default multiplier makes the sample exhaustive on this whole
        # size range, so the 100 seeded runs use a sub-exhaustive multiplier
        exhaustive = sampling_estimate(g, epsilon=0.5, delta=0.25, seed=0)
        assert exhaustive.param("sample_size") == n
        assert exhaustive.value == d
        hits = 0
        for seed in range(100):
            est = sampling_estimate(g, epsilon=0.5, delta=0.25,
                                    seed=SEED + seed, sample_const=0.25)
            assert est.value <= d
            hits += est.value >= 0.75 * d
        ok = ok and hits >= 95
        lines.append(f"{fam}{n}:{hits}/100")
    _report("A10 sampling", ok,
            "runs reaching 0.75*D per instance: " + ", ".join(lines)
            + " (>=95 required)")
