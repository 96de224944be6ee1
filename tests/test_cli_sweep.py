"""The whole CLI on every kind of tiny input: graphs with 0-8 vertices
(empty, disconnected, one-way, weighted, zero-weight), every method and
random tuning flags.  Each call must give a sound answer or a clean exit
1/2, and bench must give the same rows under threads as without."""
import contextlib
import csv
import io
import math

from hypothesis import example, given, settings, strategies as st

from diamest import Estimate, Witness, parse_graph, recompute_witness
from diamest.cli import METHODS, main
from helpers import decompose, fw_apsp

# weight kinds: none, positive, and ones that may be 0
WEIGHTS = {"none": None, "positive": (1, 9), "zero": (0, 2)}


@st.composite
def tiny_graphs(draw):
    """(edge-list text, directed) for a graph with at most 8 vertices and
    a random subset of the possible edges, half of the time on top of a
    backbone (a path, or a cycle when directed) that makes the diameter
    finite."""
    n = draw(st.integers(0, 8))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if n > 1 and draw(st.booleans()):
        backbone = [(i, i + 1) for i in range(n - 1)]
        if directed:
            backbone.append((n - 1, 0))
        edges += [e for e in backbone if e not in edges]
    lo_hi = WEIGHTS[draw(st.sampled_from(["none", "none", "positive", "zero"]))]
    if lo_hi is None:
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    else:
        weights = draw(st.lists(st.integers(*lo_hi), min_size=len(edges),
                                max_size=len(edges)))
        lines = [f"{n} {len(edges)} w"] + [
            f"{u} {v} {w}" for (u, v), w in zip(edges, weights)]
    return "\n".join(lines) + "\n", directed


@st.composite
def tuning_flags(draw):
    """Random --s, --htilde/--delta, --epsilon, --sample-const and --seed,
    each sometimes left out.  A tenth of the draws give one float flag a
    value that the methods reading it refuse with a clean exit 1."""
    flags = {"--seed": draw(st.integers(-1, 2 ** 64))}
    options = {
        "--s": st.integers(-1, 10),
        "--htilde": st.integers(-1, 6),
        "--delta": st.floats(0.05, 4.0),  # sparse reads int(delta)
        "--epsilon": st.floats(0.05, 0.95),
        "--sample-const": st.floats(0.05, 4.0),
    }
    # sparse takes --htilde and --delta together or neither
    pair = draw(st.sampled_from(["both", "both", "neither", "neither",
                                 "htilde", "delta"]))
    for flag, values in options.items():
        if flag[2:] in ("htilde", "delta"):
            value = draw(values) if pair in ("both", flag[2:]) else None
        else:
            value = draw(st.one_of(st.none(), values))
        if value is not None:
            flags[flag] = value
    if draw(st.integers(0, 9)) == 0:
        flag = draw(st.sampled_from(["--delta", "--epsilon", "--sample-const"]))
        flags[flag] = draw(st.sampled_from([math.nan, math.inf, -math.inf,
                                            0.0, -1.0]))
    return [f"{flag}={value!r}" for flag, value in flags.items()]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _printed_estimate(method, out):
    """The Estimate that ``estimate`` printed, rebuilt from its stdout."""
    fields = dict(line.split("=", 1) for line in out.splitlines())
    kind, _, rest = fields["witness"].partition(":")
    if kind == "tree":
        direction, source = rest.split(":")
        witness = Witness("tree", source=int(source), direction=direction)
    else:
        witness = Witness(kind, pair=tuple(int(x) for x in rest.split(",")))
    params = tuple(tuple(item.split("=", 1))
                   for item in fields["params"].split(";") if item)
    return Estimate(int(fields["value"]), method, witness, params=params)


def _readme_floor(method, g, d, est):
    """The floor that the README table promises ``method`` on ``g`` (with
    diameter d), or None where it promises none for sure."""
    h, z = decompose(d)
    if method == "exact":
        return d
    if method == "two-approx":
        return -(-d // 2)
    if method == "rv-weighted":
        return (2 * d) // 3 - g.max_weight()
    if g.weighted:
        return None
    if method in ("aingworth", "rv"):
        return 2 * h + z if z in (0, 1) else 2 * h + 1
    if method == "dense":
        return 2 * h + z if h >= 1 else None
    if method == "sparse":  # self-tuned, or given a depth hint >= h
        tuned = est.param("two_approx") is not None
        return 2 * h + z if tuned or int(est.param("htilde")) >= h else None
    if method == "four-fifths":
        return (4 * d) // 5
    return None  # sampling: (1 - delta) D only with high probability


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph=tiny_graphs(), flags=tuning_flags())
@example(graph=("0 0\n", False), flags=["--seed=0"])
@example(graph=("4 1\n0 1\n", False), flags=["--seed=1"])  # disconnected
@example(graph=("3 2\n0 1\n1 2\n", True), flags=["--seed=2"])  # one-way
@example(graph=("3 3 w\n0 1 0\n1 2 0\n2 0 0\n", True), flags=["--seed=3"])
@example(graph=("4 3 w\n0 1 5\n1 2 1\n2 3 9\n", False),
         flags=["--seed=4", "--s=2"])
def test_estimate_sweep_on_tiny_graphs(tmp_path_factory, graph, flags):
    text, directed = graph
    path = tmp_path_factory.mktemp("sweep") / "g.edges"
    path.write_text(text)
    g = parse_graph(text, directed=directed)
    dist = fw_apsp(g)
    finite = g.n > 0 and not math.isinf(dist.max())
    base = ["estimate", "--input", str(path)] + (["--directed"] if directed
                                                  else [])
    for method in METHODS:
        code, out, err = _call(base + ["--method", method] + flags)
        assert code in (0, 1, 2), (method, code)
        if code:
            assert out == "" and err.startswith("error: "), (method, err)
            assert "Traceback" not in err, (method, err)
            if code == 2:
                assert g.n > 0 and not finite, method
            continue
        assert finite, method
        d = int(dist.max())
        est = _printed_estimate(method, out)
        assert 0 <= est.value <= d, method
        assert recompute_witness(g, est) == est.value, method
        floor = _readme_floor(method, g, d, est)
        if floor is not None:
            assert est.value >= floor, (method, est.value, d)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(graphs=st.lists(tiny_graphs(), min_size=2, max_size=3),
       flags=tuning_flags())
@example(graphs=[("0 0\n", False), ("2 1\n0 1\n", False)],
         flags=["--seed=0"])  # an empty graph gets empty rows, no oracle
def test_bench_threads_match_sequential_on_tiny_graphs(tmp_path_factory,
                                                       graphs, flags):
    work = tmp_path_factory.mktemp("bench")
    lines = []
    for i, (text, directed) in enumerate(graphs):
        (work / f"g{i}.edges").write_text(text)
        lines.append(f"file={work / f'g{i}.edges'},directed={int(directed)}")
    corpus = work / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")
    argv = ["bench", "--corpus", str(corpus), "--methods", ",".join(METHODS)
            ] + flags
    runs = []
    for threads in ("1", "0"):
        code, out, err = _call(argv + ["--threads", threads])
        assert code in (0, 1) and "Traceback" not in err, (code, err)
        # millis is the last column; every other field must agree
        runs.append((code, [row[:-1] for row in csv.reader(io.StringIO(out))]))
    assert runs[0] == runs[1]
