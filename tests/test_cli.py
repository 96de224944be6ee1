"""cli module: subcommands, exit codes, output determinism, CSV schema."""
import ctypes
import csv
import io
import os
import re
import subprocess
import sys
import types

import pytest

import diamest.cli as cli
import diamest.estimators as estimators
from diamest import (RestartLimitError, exact_diameter, parse_edge_list,
                     parse_graph, sampled_estimate, write_edge_list)
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


@pytest.mark.parametrize("argv,message", [
    (["bench", "--corpus", "{d}/missing.txt", "--methods", "exact"],
     "cannot read {d}/missing.txt"),
    (["bench", "--corpus", "{latin1}", "--methods", "exact"], "utf-8"),
    (["gen", "--family", "path", "--n", "5", "--out", "{d}/nodir/x.edges"],
     "cannot write {d}/nodir/x.edges"),
    (["reduce", "--input", "{p10}", "--k", "1", "--out", "{d}/nodir/x"],
     "cannot write {d}/nodir/x.meta"),
    (["gen", "--family", "gnm", "--n", "5", "--m", "-1"],
     "m must be >= 0, got -1"),
    (["gen", "--family", "bounded_degree", "--n", "5", "--max-degree", "3",
      "--m", "-3"], "m must be >= 0, got -3"),
    (["estimate", "--input", "{latin1}", "--method", "exact"],
     "cannot read {latin1}"),
    (["exact", "--input", "{latin1}"], "cannot read {latin1}"),
    (["estimate", "--input", "{p10}", "--method", "sparse", "--delta", "1e400",
      "--htilde", "2"], "infinity"),
    (["estimate", "--input", "{p10}", "--method", "rv", "--sample-const",
      "1e400"], "infinity"),
    (["gen", "--family", "path", "--n", "5", "--weights", "1"],
     "error: weights must be LO:HI integers, got '1'"),
    (["bench", "--corpus", "{weights}", "--methods", "exact"],
     "corpus line 1: weights must be LO:HI integers, got 'abc'"),
], ids=["bench-missing-corpus", "bench-corpus-not-utf8", "gen-out-no-dir",
        "reduce-out-no-dir", "gen-negative-m", "bounded-degree-negative-m",
        "estimate-not-utf8", "exact-not-utf8",
        "sparse-infinite-delta", "rv-infinite-sample-const",
        "gen-bad-weights", "bench-corpus-bad-weights"])
def test_input_errors_exit_1_with_message(capsys, tmp_path, p10_file, argv,
                                          message):
    latin1 = tmp_path / "latin1.edges"
    latin1.write_bytes("3 1\n0 1 \u00e9\n".encode("latin-1"))
    weights = tmp_path / "weights.txt"
    weights.write_text("family=path,n=5,weights=abc\n")
    fill = dict(d=tmp_path, p10=p10_file, latin1=latin1, weights=weights)
    code, out, err = _run(capsys, [a.format(**fill) for a in argv])
    assert code == 1 and out == ""
    assert message.format(**fill) in err and "Traceback" not in err


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
    assert exact_diameter(gp).diameter.value == int(meta["expected_diameter"])


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


def test_load_corpus_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("family=gnm,n=10\n")  # missing m
    from diamest import GraphParseError
    with pytest.raises(GraphParseError, match="corpus line 1"):
        load_corpus(str(bad))


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
