"""cli module: subcommands, exit codes, output determinism, CSV schema."""
import ctypes
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import types

import pytest

import diamest.cli as cli
import diamest.estimators as estimators
from diamest import (GenSpec, GraphError, InfiniteDiameterError,
                     RestartLimitError, exact_diameter, generate,
                     parse_edge_list, parse_graph, sampled_estimate,
                     write_edge_list)
from diamest.cli import CSV_HEADER, load_corpus, main
from helpers import (fit_time_exponent, parse_metadata, path_graph,
                     star_graph)


@pytest.fixture
def p10_file(tmp_path):
    path = tmp_path / "p10.edges"
    path.write_text(write_edge_list(path_graph(10)))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_exact_path(capsys, p10_file):
    code, out, err = _run(capsys, ["estimate", "--input", p10_file,
                                   "--method", "exact"])
    assert code == 0
    assert "value=9" in out.splitlines()
    assert "witness=distance:0,9" in out
    assert any(line.startswith("millis=") for line in err.splitlines())
    assert "millis" not in out


def test_estimate_rv_deterministic_stdout(capsys, p10_file):
    code1, out1, _ = _run(capsys, ["estimate", "--input", p10_file,
                                   "--method", "rv", "--seed", "1"])
    code2, out2, _ = _run(capsys, ["estimate", "--input", p10_file,
                                   "--method", "rv", "--seed", "1"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "method=rv" in out1 and "reruns=" in out1


def test_estimate_all_methods_run(capsys, p10_file):
    for method in ("two-approx", "aingworth", "rv", "rv-weighted", "dense",
                   "sparse", "four-fifths", "sampling", "exact"):
        code, out, _ = _run(capsys, ["estimate", "--input", p10_file,
                                     "--method", method, "--seed", "3"])
        assert code == 0, method
        value = int(next(l for l in out.splitlines()
                         if l.startswith("value=")).split("=")[1])
        assert value <= 9


# sha256 over (argv, exit code, stdout) of every method at seeds 1 and 2 on
# each graph: values, witnesses and parameters stay byte-identical as the
# kernels change.  A method that rejects a graph pins its exit code.
ESTIMATE_PINNED = [
    (GenSpec("gnm", 300, m=750, seed=11),
     "7f796ae23d59711851e5dba096eb874dd4ace7bdad6d5a16db7be7c2b44322d4"),
    (GenSpec("gnm", 200, m=600, seed=12, directed=True),
     "f9f8212ac0d45870f330408c89044ecf73315b6f07348caca41512a9363c2b97"),
    (GenSpec("gnm", 120, m=360, seed=13, directed=True, weight_range=(1, 9)),
     "0467d5cad51c312cfc788ae462b66c0eb70486f696790d5c6970216db3f65218"),
    (GenSpec("barbell", 53, clique=12, path_len=30),
     "614e90aad45889c5f7b348b4721403317f442bee586218e6ae575a0fa92e000c"),
]


@pytest.mark.parametrize("spec,digest", ESTIMATE_PINNED)
def test_estimate_stdout_is_pinned(capsys, tmp_path, spec, digest):
    path = tmp_path / "g.edges"
    path.write_text(write_edge_list(generate(spec)))
    flags = ["--directed"] if spec.directed else []
    record = hashlib.sha256()
    for method in cli.METHODS:
        for seed in ("1", "2"):
            argv = ["estimate", "--input", str(path), *flags,
                    "--method", method, "--seed", seed]
            code, out, _ = _run(capsys, argv)
            record.update(f"{argv[3:]}\n{code}\n{out}".encode())
    assert record.hexdigest() == digest


# sha256 over (exit code, stdout) of the exact subcommand, and over the
# bench CSV rows less their millis column (every method, two reps, seed 1),
# on the graphs of ESTIMATE_PINNED
EXACT_BENCH_PINNED = [
    (ESTIMATE_PINNED[0][0],
     "2f3879752efe00bb62bceed9734c1fe0ef0db753f6556f36b7bddfb593133b83",
     "75f6d10759c99719af308e9a05d223302a29235904b9a0957ef0f56e7f823691"),
    (ESTIMATE_PINNED[1][0],
     "809806a83fbc208a6d9eb47cc8719eddb70ba4353cfe21165eac93f7710a4faf",
     "9a4df8f5980182fbbf8c82339a5f79895b0bdca348b28ae0997196a23941efca"),
    (ESTIMATE_PINNED[2][0],
     "6a97a00d60c6147d7473f49339f329528013f1c453eaab630437402d8918fdc5",
     "24f4d347feb03be6e37fe0d335a3946fe2454325b025de4112ffa492606ffd4f"),
    (ESTIMATE_PINNED[3][0],
     "dcb7a2fdf5f3a795f09c3b96c1171ed35f69c6bb9e79ff0a14fbe7fa195cbb21",
     "fc55ff9b13af6f508b01c7c4556ed55852237367e84f6ad90727de627d1f7c32"),
]


@pytest.mark.parametrize("spec,exact_digest,bench_digest", EXACT_BENCH_PINNED)
def test_exact_and_bench_output_is_pinned(capsys, tmp_path, spec, exact_digest,
                                          bench_digest):
    path = tmp_path / "g.edges"
    path.write_text(write_edge_list(generate(spec)))
    flags = ["--directed"] if spec.directed else []
    code, out, _ = _run(capsys, ["exact", "--input", str(path), *flags])
    assert "eccentricity_min=" in out and "eccentricity_max=" in out
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == exact_digest
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"file={path},directed={int(spec.directed)}\n")
    code, out, _ = _run(capsys, ["bench", "--corpus", str(corpus), "--methods",
                                 ",".join(cli.METHODS), "--seed", "1",
                                 "--reps", "2"])
    rows = "\n".join(",".join(row[:-1]) for row in csv.reader(io.StringIO(out)))
    assert hashlib.sha256(f"{code}\n{rows}".encode()).hexdigest() == bench_digest


def test_estimate_infinite_diameter_exit_2(capsys, tmp_path):
    path = tmp_path / "disc.edges"
    path.write_text("4 1\n0 1\n")  # vertices 2,3 isolated
    code, out, err = _run(capsys, ["estimate", "--input", str(path),
                                   "--method", "two-approx"])
    assert code == 2
    assert "infinite" in err


def test_estimate_parse_error_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 1\n0 x\n")
    code, out, err = _run(capsys, ["estimate", "--input", str(path),
                                   "--method", "exact"])
    assert code == 1
    assert "line 2" in err


def test_usage_error_exit_1(capsys, p10_file):
    assert main(["estimate", "--input", p10_file, "--method", "bogus"]) == 1
    assert main(["estimate"]) == 1
    capsys.readouterr()


def test_exact_subcommand(capsys, p10_file):
    code, out, _ = _run(capsys, ["exact", "--input", p10_file])
    assert code == 0
    assert "value=9" in out and "eccentricity_max=9" in out


def test_exact_infinite_diameter_exit_2(capsys, tmp_path):
    path = tmp_path / "disc.edges"
    path.write_text("4 1\n0 1\n")  # vertices 2,3 isolated
    code, out, err = _run(capsys, ["exact", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: graph has infinite diameter\n"


def test_exact_empty_graph_exit_1(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("0 0\n")
    for argv in (["exact"], ["estimate", "--method", "exact"]):
        code, out, err = _run(capsys, argv + ["--input", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_empty_graph_exit_1_for_every_method(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("0 0\n")
    for method in ("two-approx", "aingworth", "rv", "rv-weighted", "dense",
                   "sparse", "four-fifths", "sampling", "exact"):
        code, out, err = _run(capsys, ["estimate", "--input", str(path),
                                       "--method", method])
        check = "exact_diameter" if method == "exact" else "finite_diameter_check"
        assert (code, out) == (1, ""), method
        assert err == f"error: {check} requires at least one vertex\n", method


def test_one_way_reach_from_vertex_0_exit_2(capsys, tmp_path):
    # vertex 0 reaches every vertex, but neither 1 nor 2 reaches 0
    path = tmp_path / "one-way.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    for method in (["two-approx"], ["sparse"],
                   ["sparse", "--htilde", "1", "--delta", "1"]):
        code, out, err = _run(capsys, ["estimate", "--input", str(path),
                                       "--directed", "--method", *method])
        assert (code, out) == (2, ""), method
        assert err == "error: graph has infinite diameter\n", method


def test_weights_past_2_to_53_exit_1(capsys, tmp_path):
    # path lengths past 2^53 used to wrap to negative values, break the
    # exact oracle with an IndexError, or overflow int64 in build_graph
    for i, (w1, w2) in enumerate(((2 ** 62, 2 ** 62), (2 ** 53 + 1, 1),
                                  (2 ** 63, 1))):
        path = tmp_path / f"heavy{i}.edges"
        path.write_text(f"3 2 w\n0 1 {w1}\n1 2 {w2}\n")
        for argv in (["exact"], ["estimate", "--method", "two-approx"],
                     ["estimate", "--method", "exact"]):
            code, out, err = _run(capsys, argv + ["--input", str(path)])
            assert code == 1 and out == ""
            assert err.startswith(f"{path}: ") and "2^53" in err
            assert "Traceback" not in err


def test_huge_vertex_count_exit_1(capsys, tmp_path):
    # such a header used to die allocating the n + 1 row offsets
    for name, text in (("huge.edges", "99999999999999 0\n"),
                       ("huge.gr", "p sp 99999999999999 0\n")):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = _run(capsys, ["estimate", "--input", str(path),
                                       "--method", "two-approx"])
        assert code == 1 and out == ""
        assert err == (f"{path}: vertex count 99999999999999 exceeds the "
                       f"limit of 3037000499\n")
        assert "Traceback" not in err


@pytest.fixture
def cli_inputs(tmp_path, p10_file):
    """Fill values for the argv templates below: the paths of small good
    and bad inputs, written into tmp_path."""
    files = {
        "latin1": ("3 1\n0 1 \u00e9\n".encode("latin-1")),
        "weights": "family=path,n=5,weights=abc\n",
        "p5": "5 4\n0 1\n1 2\n2 3\n3 4\n",
        "one": "1 0\n",
        "disc": "4 1\n0 1\n",
        "ring": "c ring\np sp 4 4\na 1 2 2\na 2 3 2\na 3 4 2\na 4 1 2\n",
        "heavy": f"3 2 w\n0 1 {2 ** 53 + 1}\n1 2 1\n",
        "w57": "3 2 w\n0 1 5\n1 2 7\n",
        "half": "3 2 w\n0 1 1.5\n1 2 1\n",
        "fine": "3 2 w\n0 1 1.00000000000000000000000000001\n1 2 1\n",
        "long": "3 2 w\n0 1 " + "7" * 5000 + "\n1 2 1\n",
        "empty": "# no instance\n",
        "sed": "family=gnm,n=50,m=100,sed=7,weigths=1:10\n",
    }
    fill = dict(d=tmp_path, p10=p10_file)
    for name, data in files.items():
        fill[name] = path = tmp_path / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
    for name, line in (("directd", f"file={fill['w57']},directd=1\n"),
                       ("scaled", f"file={fill['w57']},weight_scale=10000000\n")):
        fill[name] = tmp_path / name
        fill[name].write_text(line)
    return fill


INPUT_ERRORS = [
    pytest.param(["bench", "--corpus", "{d}/missing.txt", "--methods", "exact"],
                 "cannot read {d}/missing.txt", id="bench-missing-corpus"),
    pytest.param(["bench", "--corpus", "{latin1}", "--methods", "exact"],
                 "utf-8", id="bench-corpus-not-utf8"),
    pytest.param(["gen", "--family", "path", "--n", "5", "--out",
                  "{d}/nodir/x.edges"],
                 "cannot write {d}/nodir/x.edges", id="gen-out-no-dir"),
    pytest.param(["reduce", "--input", "{p10}", "--k", "1", "--out",
                  "{d}/nodir/x"],
                 "cannot write {d}/nodir/x.meta", id="reduce-out-no-dir"),
    pytest.param(["gen", "--family", "gnm", "--n", "5", "--m", "-1"],
                 "m must be >= 0, got -1", id="gen-negative-m"),
    pytest.param(["gen", "--family", "bounded_degree", "--n", "5",
                  "--max-degree", "3", "--m", "-3"],
                 "m must be >= 0, got -3", id="bounded-degree-negative-m"),
    pytest.param(["gen", "--family", "barbell", "--n", "100", "--path-len", "3"],
                 "error: barbell with clique=2, path_len=3 has 6 vertices, "
                 "but n=100 was given", id="gen-barbell-n-mismatch"),
    pytest.param(["estimate", "--input", "{latin1}", "--method", "exact"],
                 "cannot read {latin1}", id="estimate-not-utf8"),
    pytest.param(["exact", "--input", "{latin1}"], "cannot read {latin1}",
                 id="exact-not-utf8"),
    pytest.param(["estimate", "--input", "{p10}", "--method", "sparse",
                  "--delta", "1e400", "--htilde", "2"], "infinity",
                 id="sparse-infinite-delta"),
    pytest.param(["estimate", "--input", "{p10}", "--method", "rv",
                  "--sample-const", "1e400"], "infinity",
                 id="rv-infinite-sample-const"),
    pytest.param(["estimate", "--input", "{p10}", "--method", "rv", "--s", "1",
                  "--sample-const", "0.1"],
                 "error: s=1 needs a sample of every vertex, got sample_size=3 "
                 "of n=10", id="rv-s1-partial-sample"),
    pytest.param(["gen", "--family", "bounded_degree", "--n", "100", "--m",
                  "150", "--max-degree", "3"],
                 "error: bounded_degree placed 149 of m=150 edges at "
                 "max_degree=3", id="bounded-degree-short-of-m"),
    pytest.param(["gen", "--family", "path", "--n", "5", "--weights", "1"],
                 "error: weights must be LO:HI integers, got '1'",
                 id="gen-bad-weights"),
    pytest.param(["bench", "--corpus", "{weights}", "--methods", "exact"],
                 "corpus line 1: weights must be LO:HI integers, got 'abc'",
                 id="bench-corpus-bad-weights"),
]


@pytest.mark.parametrize("argv,message", INPUT_ERRORS)
def test_input_errors_exit_1_with_message(capsys, cli_inputs, argv, message):
    code, out, err = _run(capsys, [a.format(**cli_inputs) for a in argv])
    assert code == 1 and out == ""
    assert message.format(**cli_inputs) in err and "Traceback" not in err


_EST = ["estimate", "--input"]

# edge cases of every subcommand with the exit code each must give; the
# rows of INPUT_ERRORS join them with exit code 1
EDGE_CASES = [
    pytest.param(_EST + ["{p5}", "--method", "aingworth", "--s", "0"], 0,
                 id="s-zero"),
    pytest.param(_EST + ["{p5}", "--method", "aingworth", "--s", "-5"], 0,
                 id="s-negative"),
    pytest.param(_EST + ["{heavy}", "--method", "two-approx"], 1,
                 id="weight-2-to-53-plus-1"),
    pytest.param(_EST + ["{ring}", "--method", "four-fifths"], 1,
                 id="dimacs-four-fifths"),
    pytest.param(_EST + ["{ring}", "--method", "dense"], 1, id="dimacs-dense"),
    pytest.param(_EST + ["{one}", "--method", "rv"], 0, id="one-vertex-rv"),
    pytest.param(_EST + ["{one}", "--method", "sampling"], 0,
                 id="one-vertex-sampling"),
    pytest.param(["exact", "--input", "{one}"], 0, id="one-vertex-exact"),
    pytest.param(_EST + ["{disc}", "--method", "two-approx"], 2,
                 id="disconnected"),
    pytest.param(_EST + ["{p5}", "--method", "sampling", "--epsilon", "nan"], 1,
                 id="nan-epsilon"),
    pytest.param(_EST + ["{p5}", "--method", "sampling", "--delta", "1e-300"],
                 0, id="tiny-delta"),
    pytest.param(_EST + ["{p5}", "--method", "sparse", "--htilde",
                         "12345678901234567890", "--delta", "2"], 0,
                 id="20-digit-htilde"),
    pytest.param(_EST + ["{p5}", "--method", "rv", "--sample-const", "1e-300"],
                 0, id="tiny-sample-const"),
    pytest.param(_EST + ["{w57}", "--method", "two-approx", "--weight-scale",
                         "99999"], 1, id="weight-scale-99999"),
    pytest.param(["bench", "--corpus", "{empty}", "--methods", "two-approx"], 0,
                 id="empty-corpus"),
    pytest.param(["gen", "--family", "gnm", "--n", "5", "--m", "11"], 1,
                 id="gen-m-over-capacity"),
    pytest.param(["gen", "--family", "path", "--n", "-3"], 1,
                 id="gen-negative-n"),
    # decimal weights are decided exactly at any scale
    pytest.param(_EST + ["{fine}", "--method", "two-approx"], 1,
                 id="weight-past-28-digits"),
    pytest.param(_EST + ["{half}", "--method", "two-approx"], 1,
                 id="weight-1.5"),
    pytest.param(_EST + ["{half}", "--method", "two-approx", "--weight-scale",
                         "1"], 0, id="weight-1.5-scale-1"),
    pytest.param(_EST + ["{w57}", "--method", "two-approx", "--weight-scale",
                         "10000000"], 1, id="weight-scale-1e7"),
    pytest.param(["exact", "--input", "{w57}", "--weight-scale", "10000000"], 1,
                 id="exact-weight-scale-1e7"),
    pytest.param(["bench", "--corpus", "{scaled}", "--methods", "two-approx"], 1,
                 id="corpus-weight-scale-1e7"),
    pytest.param(_EST + ["{w57}", "--method", "two-approx", "--weight-scale",
                         "-10000000"], 1, id="weight-scale-minus-1e7"),
    pytest.param(_EST + ["{long}", "--method", "two-approx"], 1,
                 id="weight-of-5000-digits"),
    # corpus keys that the line's kind does not read
    pytest.param(["bench", "--corpus", "{sed}", "--methods", "two-approx"], 1,
                 id="corpus-unknown-generator-key"),
    pytest.param(["bench", "--corpus", "{directd}", "--methods", "two-approx"],
                 1, id="corpus-unknown-file-key"),
    # used to make 20 m draws, which never ended
    pytest.param(["gen", "--family", "bounded_degree", "--n", "5",
                  "--max-degree", "3", "--m", "99999999999999999999"], 1,
                 id="bounded-degree-m-over-cap"),
] + [pytest.param(p.values[0], 1, id=p.id) for p in INPUT_ERRORS]


@pytest.mark.parametrize("argv,code", EDGE_CASES)
def test_edge_cases_exit_cleanly(capsys, cli_inputs, argv, code):
    got, out, err = _run(capsys, [a.format(**cli_inputs) for a in argv])
    assert got == code, err
    assert "Traceback" not in err
    if code:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert out


# the library entry of each subcommand, and a call that reaches it
LIBRARY_ENTRIES = {
    "run_method": ["estimate", "--input", "{p10}", "--method", "two-approx"],
    "exact_diameter": ["exact", "--input", "{p10}"],
    "load_corpus": ["bench", "--corpus", "{d}/corpus.txt", "--methods", "exact"],
    "generate": ["gen", "--family", "path", "--n", "5"],
    "build_diameter_instance": ["reduce", "--input", "{p10}", "--k", "1",
                                "--out", "{d}/inst"],
}


@pytest.mark.parametrize("error,code", [
    (InfiniteDiameterError, 2), (GraphError, 1), (RestartLimitError, 1),
    (ValueError, 1), (OverflowError, 1)], ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("entry", sorted(LIBRARY_ENTRIES))
def test_library_errors_exit_by_one_rule(capsys, monkeypatch, tmp_path,
                                         p10_file, entry, error, code):
    def fail(*args, **kwargs):
        raise error(f"{entry} failed")

    monkeypatch.setattr(cli, entry, fail)
    argv = [a.format(p10=p10_file, d=tmp_path) for a in LIBRARY_ENTRIES[entry]]
    assert _run(capsys, argv) == (code, "", f"error: {entry} failed\n")
    assert not (tmp_path / "inst.meta").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "{p10}", "--method", "two-approx"],
    ["bench", "--corpus", "{corpus}", "--methods", "two-approx"],
    ["bench", "--corpus", "{corpus}", "--methods", "two-approx",
     "--threads", "2"],
    ["gen", "--family", "path", "--n", "5"],
], ids=["estimate", "bench", "bench-threads", "gen"])
def test_out_of_memory_exit_1_with_one_line(capsys, monkeypatch, tmp_path,
                                            p10_file, argv):
    monkeypatch.setattr(cli, "run_method", _out_of_memory)
    monkeypatch.setattr(cli, "generate", _out_of_memory)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"file={p10_file}\nfile={p10_file},id=again\n")
    code, out, err = _run(capsys, [a.format(p10=p10_file, corpus=corpus)
                                   for a in argv])
    assert (code, out) == (1, "")
    assert err == f"error: out of memory in {argv[0]}\n"


@pytest.mark.parametrize("method", ["rv", "rv-weighted", "sampling"])
@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_bad_sample_const_exit_1_with_message(capsys, p10_file, method, value):
    # -1 used to run 65 doomed attempts, nan to fail converting NaN to int
    code, out, err = _run(capsys, ["estimate", "--input", p10_file, "--method",
                                   method, "--sample-const", value])
    assert code == 1 and out == ""
    assert err.startswith("error: sample_const must be > 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--method", "rv", "--sample-const", "1e308"],
    ["--method", "rv-weighted", "--sample-const", "1e308"],
    ["--method", "sampling", "--delta", "1e-320"],
], ids=["rv", "rv-weighted", "sampling"])
def test_sample_size_overflow_takes_every_vertex(capsys, p10_file, argv):
    # used to exit 1 with "cannot convert float infinity to integer"
    code, out, err = _run(capsys, ["estimate", "--input", p10_file] + argv)
    assert code == 0
    assert "value=9" in out.splitlines() and "sample_size=10" in out


def test_rerun_cap_raises_restart_limit_error(capsys, monkeypatch, p10_file):
    # a one-vertex sample of a path never hits the near set of the vertex
    # farthest from it, so with no reruns allowed every seed gives up
    monkeypatch.setattr(estimators, "DEFAULT_RERUN_CAP", 0)
    for seed in range(20):
        with pytest.raises(RestartLimitError, match="failed 1 times"):
            sampled_estimate(path_graph(10), seed=seed, sample_const=0.01)
    code, out, err = _run(capsys, ["estimate", "--input", p10_file, "--method",
                                   "rv", "--sample-const", "0.01"])
    assert code == 1 and out == ""
    assert err == "error: hitting-sample verification failed 1 times\n"


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_bench_reps_below_1_is_usage_error(capsys, tmp_path, reps):
    # used to print the bare CSV header and exit 0
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("family=path,n=5\n")
    code, out, err = _run(capsys, ["bench", "--corpus", str(corpus),
                                   "--methods", "two-approx", "--reps", reps])
    assert code == 1 and out == ""
    assert f"argument --reps: must be >= 1, got {reps}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["-3", "-1"])
def test_bench_negative_threads_is_usage_error(capsys, tmp_path, threads):
    # used to mean "auto", as 0 does
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("family=path,n=5\n")
    code, out, err = _run(capsys, ["bench", "--corpus", str(corpus),
                                   "--methods", "two-approx",
                                   "--threads", threads])
    assert code == 1 and out == ""
    assert f"argument --threads: must be >= 0, got {threads}" in err
    assert "Traceback" not in err


def test_each_subcommand_takes_only_its_flags(capsys, tmp_path, p10_file):
    flags = {}
    for command in ("estimate", "exact", "bench", "reduce", "gen"):
        code, out, _ = _run(capsys, [command, "--help"])
        assert code == 0
        flags[command] = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        flags[command].discard("--help")
    graph_in = {"--input", "--directed", "--weight-scale"}
    tuning = {"--s", "--delta", "--htilde", "--epsilon", "--sample-const"}
    assert flags == {
        "estimate": graph_in | tuning | {"--seed", "--method"},
        "exact": graph_in,
        "bench": tuning | {"--seed", "--corpus", "--methods", "--reps",
                           "--output", "--threads", "--oracle-cap"},
        "reduce": {"--input", "--k", "--out", "--node-cap"},
        "gen": {"--seed", "--family", "--n", "--m", "--p", "--max-degree",
                "--weights", "--directed", "--clique", "--path-len", "--out"},
    }
    assert sum(map(len, flags.values())) == 40
    for argv, flag in ((["exact", "--input", p10_file, "--threads", "2"],
                        "--threads"),
                       (["reduce", "--input", p10_file, "--k", "1", "--out",
                         str(tmp_path / "x"), "--seed", "1"], "--seed")):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: diamest ")
        assert f"unrecognized arguments: {flag}" in err
    assert not (tmp_path / "x.meta").exists()


def test_parser_survives_usage_errors(capsys, p10_file):
    # the parser is built once per process and shared by every main call
    argv = ["estimate", "--input", p10_file, "--method", "two-approx"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and "value=9" in out
    assert main(["estimate", "--input", p10_file, "--method", "bogus"]) == 1
    assert main(["gen", "--n", "x"]) == 1
    capsys.readouterr()
    assert _run(capsys, argv)[:2] == (code, out)


def test_concurrent_main_calls(tmp_path):
    # threads share the one parser; usage errors interleave with good calls
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def job(i):
        if i % 3 == 0:
            return main(["gen", "--family", "path", "--n", "x"])
        return main(["gen", "--family", "path", "--n", str(5 + i % 7),
                     "--out", str(tmp_path / f"{i}.edges")])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            codes = list(pool.map(job, range(60), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert codes == [1 if i % 3 == 0 else 0 for i in range(60)]
    for i in range(60):
        if i % 3:
            text = (tmp_path / f"{i}.edges").read_text()
            assert parse_graph(text) == path_graph(5 + i % 7)


def test_sparse_override_requires_both(capsys, p10_file):
    code, _, err = _run(capsys, ["estimate", "--input", p10_file,
                                 "--method", "sparse", "--htilde", "4"])
    assert code == 1 and "htilde" in err
    code, out, _ = _run(capsys, ["estimate", "--input", p10_file,
                                 "--method", "sparse", "--htilde", "4",
                                 "--delta", "2"])
    assert code == 0


_SPARSE_FORMS = {"driver": ["--method", "sparse"],
                 "override": ["--method", "sparse", "--htilde", "1", "--delta", "2"]}
_UNWEIGHTED = "error: sparse_estimate requires an unweighted graph\n"


@pytest.mark.parametrize("graph,flags,message", [
    # weighted, whether strongly connected or not: both forms exit 1
    *[pytest.param(text, flags, _UNWEIGHTED, id=f"{name}-{form}")
      for name, text in (("weighted-disconnected", "4 1 w\n0 1 3\n"),
                         ("weighted-connected", "3 2 w\n0 1 5\n1 2 7\n"))
      for form, flags in _SPARSE_FORMS.items()],
    # a bad htilde or delta exits 1, on a connected graph and on one that
    # is not alike
    *[pytest.param(text, ["--method", "sparse", f"--htilde={h}", f"--delta={d}"],
                   f"error: sparse needs htilde >= 0 and delta >= 1, got "
                   f"htilde={h}, delta={d}\n", id=f"{name}-htilde{h}-delta{d}")
      for name, text in (("connected", "5 4\n0 1\n1 2\n2 3\n3 4\n"),
                         ("disconnected", "4 1\n0 1\n"))
      for h, d in ((-1, 2), (1, 0))],
])
def test_sparse_refuses_bad_input_before_searching(capsys, tmp_path, monkeypatch,
                                                   graph, flags, message):
    calls = []
    for name in ("search", "finite_diameter_check"):
        real = getattr(estimators, name)
        monkeypatch.setattr(estimators, name,
                            lambda *a, _name=name, _real=real:
                            calls.append(_name) or _real(*a))
    path = tmp_path / "g.edges"
    path.write_text(graph)
    code, out, err = _run(capsys, ["estimate", "--input", str(path), *flags])
    assert (code, out, err, calls) == (1, "", message, [])


@pytest.mark.parametrize("delta,shown", [
    ("2.5", "2.5"), ("nan", "nan"), ("1e400", "infinity"),
    ("-1e400", "-infinity")])
def test_sparse_delta_must_be_whole(capsys, tmp_path, p10_file, delta, shown):
    # --delta 2.5 used to run as delta=2, a threshold of degree >= 2
    message = f"sparse --delta must be a whole number, got {shown}"
    flags = ["--method", "sparse", "--htilde", "3", f"--delta={delta}"]
    code, out, err = _run(capsys, ["estimate", "--input", p10_file, *flags])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"id=p10,file={p10_file}\n")
    flags[:2] = ["--methods", "sparse"]
    code, out, err = _run(capsys, ["bench", "--corpus", str(corpus), *flags])
    assert code == 0 and err == f"p10/sparse: {message}\n"
    assert list(csv.reader(io.StringIO(out)))[1:] == [
        ["p10", "10", "9", "sparse"] + [""] * 9]
    code, out, _ = _run(capsys, ["estimate", "--input", p10_file, "--method",
                                 "sparse", "--htilde", "3", "--delta", "2.0"])
    assert code == 0 and "params=htilde=3;delta=2" in out.splitlines()


def test_gen_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.edges"
    code, _, _ = _run(capsys, ["gen", "--family", "gnm", "--n", "40",
                               "--m", "80", "--seed", "9",
                               "--out", str(out_path)])
    assert code == 0
    text1 = out_path.read_text()
    assert text1.startswith("# family=gnm")
    assert "prng=numpy-pcg64" in text1
    g = parse_graph(text1)
    assert g.n == 40
    code, _, _ = _run(capsys, ["gen", "--family", "gnm", "--n", "40",
                               "--m", "80", "--seed", "9",
                               "--out", str(out_path)])
    assert out_path.read_text() == text1


def test_gen_to_stdout(capsys):
    code, out, _ = _run(capsys, ["gen", "--family", "path", "--n", "5"])
    assert code == 0
    assert parse_edge_list("\n".join(out.splitlines())).m == 4  # header+edges


def test_reduce_path6(capsys, tmp_path):
    src = tmp_path / "p6.edges"
    src.write_text(write_edge_list(path_graph(6)))
    prefix = str(tmp_path / "inst")
    code, out, _ = _run(capsys, ["reduce", "--input", str(src), "--k", "1",
                                 "--out", prefix])
    assert code == 0
    assert "expected_diameter=3" in out
    meta = parse_metadata((tmp_path / "inst.meta").read_text())
    gp = parse_graph((tmp_path / "inst.edges").read_text())
    assert exact_diameter(gp).diameter == int(meta["expected_diameter"])


def test_reduce_early_exit(capsys, tmp_path):
    src = tmp_path / "star.edges"
    src.write_text(write_edge_list(star_graph(5)))
    prefix = str(tmp_path / "star-inst")
    code, out, _ = _run(capsys, ["reduce", "--input", str(src), "--k", "1",
                                 "--out", prefix])
    assert code == 0
    assert "early_exit=0" in out
    assert not (tmp_path / "star-inst.edges").exists()


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "# tiny corpus\n"
        "family=gnm,n=30,m=60,seed=1\n"
        "family=gnm,n=40,m=80,seed=2,directed=1\n"
        "family=cycle,n=25\n")
    return str(path)


def test_bench_row_count_and_schema(capsys, tmp_path, corpus_file):
    out_csv = tmp_path / "bench.csv"
    code, _, _ = _run(capsys, ["bench", "--corpus", corpus_file,
                               "--methods", "two-approx,rv", "--reps", "2",
                               "--output", str(out_csv)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 3 * 2 * 2
    header = rows[0]
    for row in rows[1:]:
        rec = dict(zip(header, row))
        assert float(rec["ratio"]) <= 1.0
        assert int(rec["estimate"]) >= 0


def test_bench_deterministic_except_millis(capsys, tmp_path, corpus_file):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    for target in (csv1, csv2):
        code, _, _ = _run(capsys, ["bench", "--corpus", corpus_file,
                                   "--methods", "rv,sampling,aingworth",
                                   "--reps", "2", "--seed", "5",
                                   "--output", str(target)])
        assert code == 0
    strip = lambda text: [row[:-1] for row in csv.reader(io.StringIO(text))]
    assert strip(csv1.read_text()) == strip(csv2.read_text())


def test_bench_threads_match_sequential(capsys, tmp_path, corpus_file):
    seq = tmp_path / "seq.csv"
    par = tmp_path / "par.csv"
    _run(capsys, ["bench", "--corpus", corpus_file, "--methods", "rv,dense",
                  "--seed", "3", "--output", str(seq), "--threads", "1"])
    _run(capsys, ["bench", "--corpus", corpus_file, "--methods", "rv,dense",
                  "--seed", "3", "--output", str(par), "--threads", "4"])
    strip = lambda text: [row[:-1] for row in csv.reader(io.StringIO(text))]
    assert strip(seq.read_text()) == strip(par.read_text())


def test_bench_oracle_cap(capsys, tmp_path, corpus_file):
    out_csv = tmp_path / "cap.csv"
    _run(capsys, ["bench", "--corpus", corpus_file, "--methods", "two-approx",
                  "--output", str(out_csv), "--oracle-cap", "32"])
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    for rec in rows:
        if int(rec["n"]) <= 32:
            assert rec["oracle_d"] != ""
        else:
            assert rec["oracle_d"] == "" and rec["ratio"] == ""


def test_bench_file_corpus(capsys, tmp_path, p10_file):
    corpus = tmp_path / "files.txt"
    corpus.write_text(f"id=p10,file={p10_file}\n")
    out_csv = tmp_path / "f.csv"
    code, _, _ = _run(capsys, ["bench", "--corpus", str(corpus),
                               "--methods", "exact", "--output", str(out_csv)])
    assert code == 0
    rec = next(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert rec["instance"] == "p10" and rec["estimate"] == "9"
    assert rec["ratio"] == "1.000000"


def test_estimate_dimacs_autodetect(capsys, tmp_path):
    path = tmp_path / "w.gr"
    path.write_text("c ring\np sp 4 4\na 1 2 2\na 2 3 2\na 3 4 2\na 4 1 2\n")
    code, out, _ = _run(capsys, ["estimate", "--input", str(path),
                                 "--method", "exact"])
    assert code == 0 and "value=6" in out
    code, out, _ = _run(capsys, ["estimate", "--input", str(path),
                                 "--method", "rv-weighted", "--seed", "2"])
    assert code == 0
    value = int(next(l for l in out.splitlines()
                     if l.startswith("value=")).split("=")[1])
    assert 4 <= value <= 6  # floor(2*6/3) <= value <= D


def test_bench_weighted_and_disconnected_instances(capsys, tmp_path):
    broken = tmp_path / "disc.edges"
    broken.write_text("4 1\n0 1\n")
    corpus = tmp_path / "mix.txt"
    corpus.write_text(
        "family=gnm,n=30,m=60,seed=4,weights=1:10\n"
        f"id=disc,file={broken}\n")
    out_csv = tmp_path / "mix.csv"
    code, _, err = _run(capsys, ["bench", "--corpus", str(corpus),
                                 "--methods", "rv-weighted,exact",
                                 "--output", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 4
    good = [r for r in rows if r["instance"] == "i000"]
    assert all(float(r["ratio"]) <= 1.0 for r in good)
    broken_rows = [r for r in rows if r["instance"] == "disc"]
    assert all(r["estimate"] == "" for r in broken_rows)
    assert "infinite" in err


def test_bench_unknown_method_or_unwritable_output_exit_1(capsys, tmp_path,
                                                          corpus_file):
    for extra, message in (
            (["--methods", "two-approx,bogus"], "error: unknown method 'bogus'"),
            (["--methods", "two-approx", "--output",
              str(tmp_path / "nodir" / "b.csv")],
             f"cannot write {tmp_path / 'nodir' / 'b.csv'}: ")):
        code, out, err = _run(capsys, ["bench", "--corpus", corpus_file]
                              + extra)
        assert (code, out) == (1, "")
        assert err.startswith(message) and "Traceback" not in err


def test_load_corpus_errors(tmp_path, p10_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("family=gnm,n=10\n")  # missing m
    from diamest import GraphParseError
    with pytest.raises(GraphParseError, match="corpus line 1"):
        load_corpus(str(bad))
    # misspelt or misplaced keys used to be ignored: a seed-0 unweighted
    # graph, or a file read as undirected
    for lines, message in (
            ("family=gnm,n=50,m=100,sed=7,weigths=1:10", "unknown field 'sed'"),
            (f"# files\nfile={p10_file},directd=1", "unknown field 'directd'"),
            (f"family=path,n=5\nfile={p10_file},seed=3", "unknown field 'seed'"),
            ("family=path,n=5,weight_scale=2", "unknown field 'weight_scale'"),
            (f"file={p10_file},family=path", "unknown field 'family'")):
        bad.write_text(lines + "\n")
        with pytest.raises(GraphParseError) as exc:
            load_corpus(str(bad))
        lineno = len(lines.splitlines())
        assert str(exc.value) == f"corpus line {lineno}: {message}"
    bad.write_text(f"file={p10_file},directed=1,weight_scale=0,id=a\n"
                   "family=bounded_degree,n=9,m=10,p=0.5,max_degree=3,"
                   "weights=1:2,seed=1,directed=0,clique=2,path_len=1,id=b\n")
    assert [name for name, _ in load_corpus(str(bad))] == ["a", "b"]


def test_fit_time_exponent():
    ns = [1000, 2000, 4000, 8000]
    assert abs(fit_time_exponent(ns, [n ** 2 / 1e6 for n in ns]) - 2.0) < 1e-9
    assert abs(fit_time_exponent(ns, [n ** 1.5 / 1e6 for n in ns]) - 1.5) < 1e-9


# one process: gen a 25k-edge graph, then count the minor faults of repeated
# estimate calls on it
_WARM_CALLS = """
import contextlib, io, resource, sys
from diamest.cli import main

path = sys.argv[1]
assert main(["gen", "--family", "gnm", "--n", "2500", "--m", "25000",
             "--seed", "1", "--out", path]) == 0
argv = ["estimate", "--input", path, "--method", "two-approx"]

def call():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert main(argv) == 0

call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or not cli._keep_freed_pages(),
                    reason="needs a libc that takes glibc's mallopt values")
def test_warm_calls_reuse_freed_pages(tmp_path):
    # glibc's default thresholds gave each such call about 530 minor faults
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _WARM_CALLS,
                           str(tmp_path / "g.edges")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50 * 5


def _no_libc(*args):
    raise OSError("no such library")


def _libc_without(*args):
    return types.SimpleNamespace()


def _libc_refusing(*args):
    return types.SimpleNamespace(mallopt=lambda param, value: 0)


@pytest.mark.parametrize("cdll", [_no_libc, _libc_without, _libc_refusing],
                         ids=["load-fails", "no-mallopt", "mallopt-refuses"])
def test_allocator_setting_falls_back_silently(capsys, monkeypatch, p10_file,
                                               cdll):
    argv = ["estimate", "--input", p10_file, "--method", "rv", "--seed", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._keep_freed_pages.cache_clear()
    try:
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert cli._keep_freed_pages() is False
    finally:
        cli._keep_freed_pages.cache_clear()
