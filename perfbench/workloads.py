"""The benchmark's four workloads: the files each one generates in set-up
and the ``diamest`` calls each measured pass makes.

Every workload is a closed loop with one client: a pass runs its calls one
after another, in-process, each waiting for the previous one.  All inputs
are generated by ``diamest gen`` from seeds derived from the workload seed,
so the program sees only generated files and the same seed gives the same
files byte for byte.
"""
from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
SEED_SPACE = 2 ** 63

# Methods whose README row accepts the graph kind; everything else refuses
# weighted input (rv, dense, sparse) or directed input (four-fifths).
ANY_GRAPH = ("two-approx", "aingworth", "rv-weighted", "sampling", "exact")
UNWEIGHTED_ONLY = ("rv", "dense", "sparse")
METHODS = ("two-approx", "aingworth", "rv", "rv-weighted", "dense", "sparse",
           "four-fifths", "sampling", "exact")


@dataclass(frozen=True)
class Input:
    """One generated graph file."""

    path: Path
    gen: tuple[str, ...]  # `diamest gen` arguments, --out included
    directed: bool
    weighted: bool
    exact_reference: bool = True  # False: D is only bracketed (too large)


@dataclass(frozen=True)
class Call:
    """One `diamest` invocation; `inputs` are the files whose outputs it prints."""

    method: str
    argv: tuple[str, ...]
    inputs: tuple[Input, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    calls: tuple[Call, ...]
    corpus_specs: dict  # bench corpus file path -> text, written after set-up


def import_program():
    """``diamest.cli`` from this checkout's ``src``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "diamest" / "cli.py").is_file():
        print(f"benchmark: no diamest sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    return importlib.import_module("diamest.cli")


def derive_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % SEED_SPACE


def _gnm(path, n, m, seed, *, directed, weights=None, exact=True) -> Input:
    args = ["gen", "--family", "gnm", "--n", str(n), "--m", str(m),
            "--seed", str(seed), "--out", str(path)]
    if directed:
        args.append("--directed")
    if weights:
        args += ["--weights", weights]
    return Input(Path(path), tuple(args), directed, weights is not None, exact)


def _graph_flags(inp: Input) -> tuple[str, ...]:
    return ("--input", str(inp.path)) + (("--directed",) if inp.directed else ())


def _estimate(inp: Input, method: str, seed: int) -> Call:
    argv = ("estimate",) + _graph_flags(inp) + ("--method", method,
                                                "--seed", str(seed))
    return Call(method, argv, (inp,))


def sweep_directed(seed: int, work: Path) -> Workload:
    """Full per-source BFS sweeps from thousands of sources dominate.

    Several mid-sized graphs keep each call short enough for its fastest
    repeat to be steady (see perfbench/METRICS.md)."""
    n = 1024
    graphs = [_gnm(work / f"sweep-{i}.edges", n, 3 * n, derive_seed(seed, 10 + i),
                   directed=True) for i in range(3)]
    est_seed = derive_seed(seed, 2)
    calls = []
    for g in graphs:
        calls += [_estimate(g, m, est_seed) for m in ("rv", "sparse", "sampling")]
        calls.append(Call("exact", ("exact",) + _graph_flags(g), (g,)))
    return Workload("sweep-directed", tuple(graphs), tuple(calls), {})


def nearset_undirected(seed: int, work: Path) -> Workload:
    """Near-set estimators' own loops and the all-pairs matrix dominate."""
    n = 768
    # at m = 2.5n a random draw is almost never connected, so every seed
    # makes the same 9 draws plus backbone; at 3n some seeds connect early
    graphs = [_gnm(work / f"nearset-{i}.edges", n, 5 * n // 2,
                   derive_seed(seed, 10 + i), directed=False) for i in range(2)]
    est_seed = derive_seed(seed, 2)
    calls = tuple(_estimate(g, m, est_seed) for g in graphs for m in
                  ("two-approx", "aingworth", "dense", "four-fifths", "sampling"))
    return Workload("nearset-undirected", tuple(graphs), calls, {})


def _corpus_inputs(seed: int, work: Path) -> list[Input]:
    """19 small graphs: random ones at three densities, weighted ones and
    deep families whose diameter approaches n.  The sizes are fixed, so
    the seed changes the graphs but not the amount of work."""
    out = []

    def add(kind, args, directed=False, weighted=False):
        path = work / f"c{len(out):03d}-{kind}.edges"
        args = ["gen", "--family", kind, *args,
                "--seed", str(derive_seed(seed, 100 + len(out))), "--out", str(path)]
        if directed:
            args.append("--directed")
        if weighted:
            args += ["--weights", "1:10"]
        out.append(Input(path, tuple(args), directed, weighted))

    for density in (1.5, 3.0, 8.0):
        for directed in (False, True):
            for n in (16, 72):
                cap = n * (n - 1) if directed else n * (n - 1) // 2
                add("gnm", ["--n", str(n), "--m", str(min(int(density * n), cap))],
                    directed)
    for n, directed in ((16, False), (72, True)):
        add("gnm", ["--n", str(n), "--m", str(3 * n)], directed, weighted=True)
    for family in ("path", "cycle", "grid", "barbell", "bounded_degree"):
        # the path is deeper than 128 levels, where batch BFS walks differently
        n = 130 if family == "path" else 96
        extra = ["--max-degree", "3", "--m", str(n + n // 4)] \
            if family == "bounded_degree" else []
        add(family, ["--n", str(n), *extra])
    return out


def _accepts(method: str, inp: Input) -> bool:
    if method in ANY_GRAPH:
        return True
    if method in UNWEIGHTED_ONLY:
        return not inp.weighted
    return not inp.weighted and not inp.directed


def corpus_small(seed: int, work: Path) -> Workload:
    """Many small files: per-call and per-instance fixed cost dominates.

    One ``bench`` call per (method, accepted file): a few milliseconds
    each, short enough for the fastest repeat to be steady."""
    inputs = _corpus_inputs(seed, work)
    specs = {work / f"corpus-{inp.path.stem}.txt":
             f"file={inp.path},directed={int(inp.directed)},id={inp.path.stem}\n"
             for inp in inputs}
    calls = []
    for method in METHODS:
        for inp in inputs:
            if not _accepts(method, inp):
                continue
            argv = ("bench", "--corpus", str(work / f"corpus-{inp.path.stem}.txt"),
                    "--methods", method, "--oracle-cap", "0", "--threads", "1",
                    "--seed", str(derive_seed(seed, 2)))
            calls.append(Call(method, argv, (inp,)))
    return Workload("corpus-small", tuple(inputs), tuple(calls), specs)


def ingest(seed: int, work: Path) -> Workload:
    """Mid-sized files through the cheapest estimator: parsing dominates.

    Four files of each kind keep each call short enough for its fastest
    repeat to be steady."""
    plain = [_gnm(work / f"ingest-{i}.edges", 2_500, 25_000,
                  derive_seed(seed, 10 + i), directed=False, exact=False)
             for i in range(4)]
    weighted = [_gnm(work / f"ingest-w{i}.edges", 1_250, 12_500,
                     derive_seed(seed, 20 + i), directed=False, weights="1:100",
                     exact=False)
                for i in range(4)]
    inputs = tuple(plain + weighted)
    calls = tuple(_estimate(g, "two-approx", 0) for g in inputs)
    return Workload("ingest", inputs, calls, {})


WORKLOADS = {
    "sweep-directed": sweep_directed,
    "nearset-undirected": nearset_undirected,
    "corpus-small": corpus_small,
    "ingest": ingest,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return WORKLOADS[name](seed, Path(work))
