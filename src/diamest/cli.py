"""Command-line front end: estimate | bench | reduce | gen | exact.

Exit codes: 0 success, 1 usage or input errors, 2 infinite diameter;
``main`` alone maps a subcommand's library errors to them.  Estimator
output goes to stdout as key=value lines; the elapsed time goes to stderr
so that two runs with the same seed produce byte-identical stdout.
Timing always excludes parsing and generation.

The first ``main`` call in a process keeps glibc from handing freed
blocks under 32 MiB back to the kernel (``mallopt``), so the numpy
temporaries of one layer or call reuse the pages of the last instead of
faulting in fresh ones; where libc has no such call, nothing changes.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .estimators import (DEFAULT_SAMPLE_CONST, DEFAULT_SAMPLING_DELTA,
                         DEFAULT_SAMPLING_EPSILON, Estimate, RestartLimitError,
                         Witness, aingworth, dense_estimate,
                         four_fifths_estimate, sampled_estimate,
                         sampled_estimate_weighted, sampling_estimate,
                         sparse_driver, sparse_estimate, two_approx)
from .generators import GenSpec, generate, spec_metadata
from .graph import (Graph, GraphError, GraphParseError, InfiniteDiameterError,
                    parse_graph, write_edge_list)
from .hardness import NODE_CAP_DEFAULT, build_diameter_instance, write_metadata
from .oracle import exact_diameter

METHODS = ("two-approx", "aingworth", "rv", "rv-weighted", "dense", "sparse",
           "four-fifths", "sampling", "exact")

# largest n for which bench runs exact_diameter to fill oracle_d and ratio
ORACLE_CAP_DEFAULT = 2048

# glibc's mallopt parameters (malloc.h) and the values main pins.  By
# default glibc returns freed blocks from 128 KiB up to a few MiB to the
# kernel (munmap, or a trim of the heap top), and the next numpy temporary
# faults its pages in again.  Its dynamic rule raises both thresholds only
# as large blocks are freed, up to 32 MiB and twice that; any mallopt of
# them turns the rule off, so main pins that ceiling.  A lower pin costs
# more than it saves: at 4 MiB and 8 MiB, a warm aingworth call on directed
# gnm n = 16384, m = 3n took 60500 minor faults against 5000 unpinned
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_BYTES = 32 << 20
_TRIM_BYTES = 64 << 20

# the library errors that end a subcommand with exit 1 and one "error:"
# line; InfiniteDiameterError, a GraphError, ends it with exit 2 instead
_EXIT_1_ERRORS = (GraphError, RestartLimitError, ValueError, OverflowError)

CSV_HEADER = ["instance", "n", "m", "method", "s", "delta", "htilde", "seed",
              "estimate", "oracle_d", "ratio", "reruns", "millis"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _keep_freed_pages() -> bool:
    """Pin the allocator thresholds above, once per process; True when
    libc took both.  A libc without mallopt (macOS, Windows) or one that
    refuses the values (musl returns 0) is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES) == 1)


def _read_graph(path: str, directed: bool, weight_scale: int) -> Graph:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    try:
        return parse_graph(text, directed=directed, weight_scale=weight_scale)
    except GraphParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return convert


def _write_file(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _degree_threshold(delta) -> int:
    """sparse's --delta, a degree threshold: a whole number, never rounded."""
    if float(delta).is_integer():
        return int(delta)
    shown = {float("inf"): "infinity",
             -float("inf"): "-infinity"}.get(delta, delta)
    raise ValueError(f"sparse --delta must be a whole number, got {shown}")


def run_method(g: Graph, method: str, *, s=None, delta=None, htilde=None,
               epsilon=DEFAULT_SAMPLING_EPSILON,
               sample_const=DEFAULT_SAMPLE_CONST, seed=0) -> Estimate:
    """Dispatch one estimator run; shared by the estimate and bench paths."""
    if method == "exact":
        res = exact_diameter(g)
        if res.diameter is None:
            raise InfiniteDiameterError("graph has infinite diameter")
        return Estimate(res.diameter, "exact",
                        Witness("distance", pair=res.witness))
    if method == "two-approx":
        return two_approx(g)
    if method == "aingworth":
        return aingworth(g, s)
    if method == "rv":
        return sampled_estimate(g, s=s, seed=seed, sample_const=sample_const)
    if method == "rv-weighted":
        return sampled_estimate_weighted(g, s=s, seed=seed,
                                         sample_const=sample_const)
    if method == "dense":
        return dense_estimate(g, s)
    if method == "sparse":
        if htilde is not None and delta is not None:
            return sparse_estimate(g, int(htilde), _degree_threshold(delta))
        if htilde is not None or delta is not None:
            raise GraphError("sparse needs both --htilde and --delta, or neither")
        return sparse_driver(g)
    if method == "four-fifths":
        return four_fifths_estimate(g)
    if method == "sampling":
        frac = DEFAULT_SAMPLING_DELTA if delta is None else float(delta)
        return sampling_estimate(g, epsilon=epsilon, delta=frac, seed=seed,
                                 sample_const=sample_const)
    raise GraphError(f"unknown method {method!r}")


def _print_estimate(est: Estimate):
    print(f"method={est.method}")
    print(f"value={est.value}")
    print(f"witness={est.witness.describe()}")
    print("params=" + ";".join(f"{k}={v}" for k, v in est.params))
    print(f"reruns={est.reruns}")


def _timed_run(g: Graph, method: str, args, seed: int) -> tuple[Estimate, float]:
    """run_method with the tuning flags of ``args``, and its milliseconds."""
    t0 = time.perf_counter_ns()
    est = run_method(g, method, s=args.s, delta=args.delta, htilde=args.htilde,
                     epsilon=args.epsilon, sample_const=args.sample_const,
                     seed=seed)
    return est, (time.perf_counter_ns() - t0) / 1e6


def _cmd_estimate(args) -> int:
    g = _read_graph(args.input, args.directed, args.weight_scale)
    est, millis = _timed_run(g, args.method, args, args.seed)
    _print_estimate(est)
    print(f"millis={millis:.3f}", file=sys.stderr)
    return 0


def _cmd_exact(args) -> int:
    g = _read_graph(args.input, args.directed, args.weight_scale)
    t0 = time.perf_counter_ns()
    res = exact_diameter(g)
    millis = (time.perf_counter_ns() - t0) / 1e6
    if res.diameter is None:
        raise InfiniteDiameterError("graph has infinite diameter")
    a, b = res.witness
    print("method=exact")
    print(f"value={res.diameter}")
    print(f"witness=distance:{a},{b}")
    print(f"eccentricity_min={int(res.eccentricities.min())}")
    print(f"eccentricity_max={int(res.eccentricities.max())}")
    print(f"millis={millis:.3f}", file=sys.stderr)
    return 0


# ---- corpus / bench ---------------------------------------------------------

def _parse_kv(line: str) -> dict:
    out = {}
    for item in line.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad corpus field {item!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_weights(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"weights must be LO:HI integers, got {text!r}") from None


# the keys that each kind of corpus line reads
_FILE_KEYS = ("file", "directed", "weight_scale", "id")
_GEN_KEYS = ("family", "n", "m", "p", "max_degree", "weights", "seed",
             "directed", "clique", "path_len", "id")


def load_corpus(path: str) -> list[tuple[str, Graph]]:
    """Read a corpus spec file: one instance per line, '#' comments.

    Lines are comma-separated key=value fields, either
    ``file=PATH[,directed=1][,weight_scale=K]`` or generator fields like
    ``family=gnm,n=100,m=300,seed=7[,directed=1][,weights=1:10]``.
    An ``id=`` field overrides the positional instance name.  A key that
    the line's kind does not read is an error.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None
    out = []
    idx = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kv = _parse_kv(line)
            known = _FILE_KEYS if "file" in kv else _GEN_KEYS
            unknown = [key for key in kv if key not in known]
            if unknown:
                raise ValueError(f"unknown field {unknown[0]!r}")
            name = kv.pop("id", f"i{idx:03d}")
            if "file" in kv:
                with open(kv["file"], "r", encoding="utf-8-sig") as fh:
                    text = fh.read()
                g = parse_graph(text,
                                directed=bool(int(kv.get("directed", "0"))),
                                weight_scale=int(kv.get("weight_scale", "0")))
            else:
                spec = GenSpec(
                    family=kv["family"], n=int(kv["n"]),
                    m=int(kv["m"]) if "m" in kv else None,
                    p=float(kv["p"]) if "p" in kv else None,
                    max_degree=int(kv["max_degree"]) if "max_degree" in kv else None,
                    weight_range=_parse_weights(kv["weights"]) if "weights" in kv else None,
                    seed=int(kv.get("seed", "0")),
                    directed=bool(int(kv.get("directed", "0"))),
                    clique=int(kv["clique"]) if "clique" in kv else None,
                    path_len=int(kv["path_len"]) if "path_len" in kv else None,
                )
                g = generate(spec)
        except (KeyError, ValueError, OSError, GraphError) as exc:
            raise GraphParseError(f"corpus line {lineno}: {exc}") from None
        out.append((name, g))
        idx += 1
    return out


def _derived_seed(seed: int, instance: str, method: str, rep: int) -> int:
    digest = hashlib.sha256(f"{seed}:{instance}:{method}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _bench_instance(name, g, methods, reps, args):
    rows = []
    oracle_d = None
    if 0 < g.n <= args.oracle_cap:  # an empty graph has no diameter
        oracle_d = exact_diameter(g).diameter
    for method in methods:
        for rep in range(reps):
            seed = _derived_seed(args.seed, name, method, rep)
            try:
                est, millis = _timed_run(g, method, args, seed)
            except _EXIT_1_ERRORS as exc:
                print(f"{name}/{method}: {exc}", file=sys.stderr)
                rows.append([name, g.n, g.m, method, "", "", "", "", "", "",
                             "", "", ""])
                continue
            ratio = ""
            if oracle_d is not None:
                if oracle_d > 0:
                    ratio = f"{est.value / oracle_d:.6f}"
                elif est.value == 0:
                    ratio = "1.000000"
            rows.append([
                name, g.n, g.m, method,
                _fmt(est.param("s")), _fmt(est.param("delta")),
                _fmt(est.param("htilde")), _fmt(est.param("seed")),
                est.value, "" if oracle_d is None else oracle_d,
                ratio, est.reruns, f"{millis:.3f}",
            ])
    return rows


def _fmt(value) -> str:
    return "" if value is None else str(value)


def _cmd_bench(args) -> int:
    corpus = load_corpus(args.corpus)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise GraphError(f"unknown method {m!r}")
    workers = args.threads or os.cpu_count() or 1
    if workers > 1 and len(corpus) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(
                lambda item: _bench_instance(item[0], item[1], methods,
                                             args.reps, args), corpus))
    else:
        blocks = [_bench_instance(name, g, methods, args.reps, args)
                  for name, g in corpus]
    try:
        out = (open(args.output, "w", newline="", encoding="utf-8")
               if args.output != "-" else sys.stdout)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for block in blocks:  # buffered per instance: deterministic row order
        writer.writerows(block)
    if out is not sys.stdout:
        out.close()
    return 0


# ---- reduce / gen -----------------------------------------------------------

def _cmd_reduce(args) -> int:
    g = _read_graph(args.input, False, 0)
    inst = build_diameter_instance(g, args.k, node_cap=args.node_cap)
    meta = write_metadata(inst)
    _write_file(args.out + ".meta", meta)
    if inst.gprime is not None:
        _write_file(args.out + ".edges", write_edge_list(inst.gprime))
    sys.stdout.write(meta)
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family, n=args.n, m=args.m, p=args.p,
        max_degree=args.max_degree,
        weight_range=_parse_weights(args.weights) if args.weights else None,
        seed=args.seed, directed=args.directed,
        clique=args.clique, path_len=args.path_len)
    g = generate(spec)
    text = spec_metadata(spec) + write_edge_list(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_file(args.out, text)
    return 0


# ---- parser -----------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing never changes
    it, so concurrent main calls may share it."""
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="base seed for randomized estimators")

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--input", required=True, help="graph file (edge list or DIMACS)")
    graph_in.add_argument("--directed", action="store_true",
                          help="treat edge-list input as directed")
    graph_in.add_argument("--weight-scale", type=int, default=0,
                          help="scale decimal input weights by 10^K")

    tuning = argparse.ArgumentParser(add_help=False)
    tuning.add_argument("--s", type=int, default=None,
                        help="near-set size override")
    tuning.add_argument("--delta", type=float, default=None,
                        help="degree threshold (sparse) or failure fraction (sampling)")
    tuning.add_argument("--htilde", type=int, default=None,
                        help="depth hint override for the sparse estimator")
    tuning.add_argument("--epsilon", type=float,
                        default=DEFAULT_SAMPLING_EPSILON,
                        help="diameter exponent for the sampling estimator")
    tuning.add_argument("--sample-const", type=float,
                        default=DEFAULT_SAMPLE_CONST,
                        help="multiplier on the sample-size formulas")

    parser = _Parser(prog="diamest",
                     description="graph diameter estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", parents=[seeded, graph_in, tuning],
                           help="run one estimator on a graph file")
    p_est.add_argument("--method", required=True, choices=METHODS)
    p_est.set_defaults(func=_cmd_estimate)

    p_exact = sub.add_parser("exact", parents=[graph_in],
                             help="exact diameter with witness pair")
    p_exact.set_defaults(func=_cmd_exact)

    p_bench = sub.add_parser("bench", parents=[seeded, tuning],
                             help="run estimators over a corpus, emit CSV")
    p_bench.add_argument("--corpus", required=True, help="corpus spec file")
    p_bench.add_argument("--methods", required=True,
                         help="comma-separated method list")
    p_bench.add_argument("--reps", type=_int_at_least(1), default=1,
                         help="runs per method and instance (>= 1)")
    p_bench.add_argument("--output", default="-", help="CSV path ('-' = stdout)")
    p_bench.add_argument("--threads", type=_int_at_least(0), default=1,
                         help="bench worker threads (0 = auto)")
    p_bench.add_argument("--oracle-cap", type=int, default=ORACLE_CAP_DEFAULT,
                         help="largest n for which bench computes the exact diameter")
    p_bench.set_defaults(func=_cmd_bench)

    p_red = sub.add_parser("reduce", help="build a 2-vs-3 diameter instance")
    p_red.add_argument("--input", required=True, help="undirected graph file")
    p_red.add_argument("--k", type=int, required=True, help="subset size")
    p_red.add_argument("--out", required=True,
                       help="output prefix (.edges and .meta)")
    p_red.add_argument("--node-cap", type=int, default=NODE_CAP_DEFAULT)
    p_red.set_defaults(func=_cmd_reduce)

    p_gen = sub.add_parser("gen", parents=[seeded],
                           help="generate a corpus graph")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--max-degree", type=int, default=None)
    p_gen.add_argument("--weights", default=None, help="LO:HI integer range")
    p_gen.add_argument("--directed", action="store_true")
    p_gen.add_argument("--clique", type=int, default=None)
    p_gen.add_argument("--path-len", type=int, default=None)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except MemoryError:  # numpy's allocation failures included
            print(f"error: out of memory in {args.command}", file=sys.stderr)
            return 1
        except _EXIT_1_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, InfiniteDiameterError) else 1
    except SystemExit as exc:  # usage and input errors carry their exit code
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main())
