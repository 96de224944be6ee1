"""Ingest path: the array core of build_graph, the edge-list reader and the
full weighted search, each checked against a second way to the same
answer.  The property tests draw small graphs with hypothesis, including
weight 0 and weights at the 2^53 path-length bound."""
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import diamest.cli as cli
from diamest import (GraphError, GraphParseError, IN, OUT, build_graph,
                     parse_dimacs, parse_edge_list, parse_graph, search,
                     write_edge_list)
from diamest.cli import main
from diamest.search import near_sets
from helpers import fw_apsp

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def edge_lists(draw, max_n=10):
    """(n, edges, directed): tuples with loops and duplicates, weighted or
    not; weights mix 0, small values and the largest legal weight."""
    n = draw(st.integers(1, max_n))
    directed = draw(st.booleans())
    weighted = draw(st.booleans())
    vertex = st.integers(0, n - 1)
    top = 2 ** 53 // max(n - 1, 1)
    weight = st.one_of(st.just(0), st.integers(0, 5), st.just(top),
                       st.integers(0, top))
    edge = (st.tuples(vertex, vertex, weight) if weighted
            else st.tuples(vertex, vertex))
    return n, draw(st.lists(edge, max_size=3 * n)), directed


def _reference_build(n, edges, directed):
    """(indptr, indices, weights) of the canonical graph by plain Python:
    no loops, minimum weight per arc, both arcs of an undirected edge."""
    arcs = {}
    for e in edges:
        u, v, w = e[0], e[1], e[2] if len(e) == 3 else 1
        for a, b in ((u, v),) if directed else ((u, v), (v, u)):
            if a != b:
                arcs[a, b] = min(w, arcs.get((a, b), w))
    indptr = [0] * (n + 1)
    for a, _ in arcs:
        indptr[a + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    keys = sorted(arcs)
    weights = [arcs[k] for k in keys] if arcs and len(edges[0]) == 3 else None
    return indptr, [b for _, b in keys], weights


def _edge_text(n, edges, weighted):
    header = f"{n} {len(edges)}" + (" w" if weighted else "")
    return "\n".join([header] + [" ".join(map(str, e)) for e in edges]) + "\n"


# ---- build_graph -------------------------------------------------------------

@PROPERTY
@given(edge_lists())
def test_build_graph_matches_reference_for_tuples_and_arrays(case):
    n, edges, directed = case
    g = build_graph(n, edges, directed=directed)
    indptr, indices, weights = _reference_build(n, edges, directed)
    assert g.indptr.tolist() == indptr and g.indices.tolist() == indices
    assert (g.weights.tolist() if g.weighted else None) == weights
    width = len(edges[0]) if edges else 2
    arr = np.array(edges, dtype=np.int64).reshape(-1, width)
    assert build_graph(n, arr, directed=directed) == g
    assert build_graph(n, arr.astype(np.uint64), directed=directed) == g


def test_build_graph_errors_name_first_offending_edge():
    with pytest.raises(GraphError, match=r"^edge \(0,5\) out of range for n=3$"):
        build_graph(3, np.array([[0, 1, 1], [0, 5, 1], [1, 2, -1]]))
    with pytest.raises(GraphError, match=r"^negative weight -1 on edge \(1,2\)$"):
        build_graph(3, [(0, 1, 1), (1, 2, -1), (0, 7, 1)])
    # a self loop is dropped before its weight is looked at
    assert build_graph(3, [(1, 1, -4), (0, 1, 2)]).m == 1
    with pytest.raises(GraphError, match=r"^edge \(-1,1\) out of range"):
        build_graph(3, [(-1, 1)])


def test_build_graph_ints_outside_int64_keep_messages():
    big = 2 ** 64
    with pytest.raises(GraphError, match=rf"^edge \(0,{big}\) out of range for n=3$"):
        build_graph(3, [(0, 1), (0, big)])
    with pytest.raises(GraphError, match=rf"^negative weight {-big} on edge \(0,1\)$"):
        build_graph(3, [(0, 1, -big)])
    with pytest.raises(GraphError, match=rf"^weight {big} can make a path over 3 "
                                          r"vertices longer than 2\^53$"):
        build_graph(3, [(0, 1, big), (1, 2, 1)])
    # a dropped self loop may carry any weight
    g = build_graph(2, [(1, 1, big), (0, 1, 3)])
    assert g.weights.tolist() == [3, 3]


def test_build_graph_rejects_bad_shapes():
    with pytest.raises(GraphError, match="edge array"):
        build_graph(3, np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(GraphError, match="edge array"):
        build_graph(3, np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(GraphError, match=r"\(u, v\) or \(u, v, weight\)"):
        build_graph(3, [(0, 1, 2, 3)])


def test_graph_without_arcs_is_unweighted():
    for edges in ([], np.empty((0, 3), dtype=np.int64), [(1, 1, 4)]):
        g = build_graph(3, edges)
        assert not g.weighted and g.m == 0
    assert not parse_edge_list("3 0 w\n").weighted
    assert write_edge_list(parse_edge_list("3 1 w\n2 2 7\n")) == "3 0\n"


# ---- the edge-list reader ----------------------------------------------------

@PROPERTY
@given(edge_lists())
def test_parse_round_trip(case):
    n, edges, directed = case
    g = build_graph(n, edges, directed=directed)
    text = write_edge_list(g)
    again = parse_graph(text, directed=directed)
    assert again == g
    assert write_edge_list(again) == text


def _reference_text(g):
    """Edge-list text written one f-string per edge."""
    lines = [f"{g.n} {g.m} w" if g.weighted else f"{g.n} {g.m}"]
    for u in range(g.n):
        row = slice(g.indptr[u], g.indptr[u + 1])
        for i, v in enumerate(g.indices[row]):
            if g.directed or u < v:
                lines.append(f"{u} {v}" if g.weights is None
                             else f"{u} {v} {g.weights[row][i]}")
    return "\n".join(lines) + "\n"


@PROPERTY
@given(edge_lists(), st.sampled_from([1, 3, 1 << 16]))
def test_write_edge_list_matches_per_edge_text(case, block):
    n, edges, directed = case
    g = build_graph(n, edges, directed=directed)
    graph_module = importlib.import_module("diamest.graph")
    default = graph_module._WRITE_ROWS
    graph_module._WRITE_ROWS = block
    try:
        assert write_edge_list(g) == _reference_text(g)
    finally:
        graph_module._WRITE_ROWS = default


@PROPERTY
@given(edge_lists(), st.integers(0, 3))
def test_parse_equals_build_graph(case, noise):
    n, edges, directed = case
    weighted = bool(edges) and len(edges[0]) == 3
    g = build_graph(n, edges, directed=directed)
    text = _edge_text(n, edges, weighted)
    assert parse_edge_list(text, directed=directed) == g
    # blank lines and comment lines between edges, tabs, CRLF: the same
    # graph through the line-by-line reader
    lines = text.splitlines()
    for k in range(noise):
        lines.insert(1 + (k * 7) % len(lines), ["", "# note", "  ", "\t#"][k])
    noisy = "\r\n".join(line.replace(" ", "\t", 1) for line in lines)
    assert parse_edge_list(noisy, directed=directed) == g


# file text, weight scale, exact message; captured before the array reader
BROKEN = [
    ("2 1\n0 1 3\n", 0, "line 2: expected 2 fields, got 3"),
    ("2 1 w\n0 1 3 4\n", 0, "line 2: expected 3 fields, got 4"),
    ("3 2 w\n0 1\n1 2 1\n", 0, "line 2: expected 3 fields, got 2"),
    ("3 2\n0 1 # x\n1 2\n", 0, "line 2: expected 2 fields, got 4"),
    ("3 2 w\n0 1 4 # x\n1 2 1\n", 0, "line 2: expected 3 fields, got 5"),
    ("3 2\n0 1\n# hello\n1 7\n", 0, "line 4: endpoint out of range for n=3"),
    ("3 2\n0 1\n1 3\n", 0, "line 3: endpoint out of range for n=3"),
    ("3 2\n0 1\n-1 2\n", 0, "line 3: endpoint out of range for n=3"),
    ("3 2\n0 9223372036854775808\n1 2\n", 0, "line 2: endpoint out of range for n=3"),
    ("3 5\n0 1\n1 9\n", 0, "line 3: endpoint out of range for n=3"),
    ("3 2 w\n0 5 1\n1 2 -1\n", 0, "line 2: endpoint out of range for n=3"),
    ("3 2\n0 1\nx 2\n", 0, "line 3: bad endpoint in 'x 2'"),
    ("3 2\n0 1.0\n1 2\n", 0, "line 2: bad endpoint in '0 1.0'"),
    ("3 2 w\n0 1 4\n1 2 -3\n", 0, "line 3: negative weight '-3'"),
    ("3 2 w\n0 1 -1\n1 7 1\n", 0, "line 2: negative weight '-1'"),
    ("2 1 w\n0 1 -9223372036854775809\n", 0,
     "line 2: negative weight '-9223372036854775809'"),
    ("3 2 w\n0 1 q\n1 2 1\n", 0, "line 2: bad weight 'q'"),
    ("2 1 w\n0 1 inf\n", 0, "line 2: bad weight 'inf'"),
    ("2 1 w\n0 1 nan\n", 0, "line 2: weight 'nan' not integral at scale 10^0"),
    ("3 2 w\n0 1 4\n1 2 2.5\n", 0, "line 3: weight '2.5' not integral at scale 10^0"),
    ("3 2 w\n0 1 4\n1 2 2.55\n", 1, "line 3: weight '2.55' not integral at scale 10^1"),
    ("3 2 w\n0 1 4\n1 2 2.555\n", 2,
     "line 3: weight '2.555' not integral at scale 10^2"),
    ("3 2 w\n0 1 4\n1 2 9007199254740\n", 3,
     "weight 9007199254740000 can make a path over 3 vertices longer than 2^53"),
    ("3 2 w\n0 1 4\n1 2 92233720368547758\n", 2,
     "weight 9223372036854775800 can make a path over 3 vertices longer than 2^53"),
    ("2 1 w\n0 1 922337203685477580\n", 1,
     "weight 9223372036854775800 can make a path over 2 vertices longer than 2^53"),
    ("3 2 w\n0 1 9223372036854775808\n1 2 1\n", 0,
     "weight 9223372036854775808 can make a path over 3 vertices longer than 2^53"),
    ("3 2 w\n0 1 18446744073709551616\n1 2 1\n", 0,
     "weight 18446744073709551616 can make a path over 3 vertices longer than 2^53"),
    ("2 1 w\n0 1 9223372036854775807\n", 0,
     "weight 9223372036854775807 can make a path over 2 vertices longer than 2^53"),
    ("2 1 w\n0 1 9007199254740993\n", 0,
     "weight 9007199254740993 can make a path over 2 vertices longer than 2^53"),
    ("3 3\n0 1\n1 2\n", 0, "header declares 3 edges but file has 2"),
    ("3 1\n0 1\n1 2\n", 0, "header declares 1 edges but file has 2"),
    ("3 1\n", 0, "header declares 1 edges but file has 0"),
    ("-1 0\n", 0, "vertex count must be nonnegative, got -1"),
]


@pytest.mark.parametrize("text,scale,message", BROKEN)
def test_broken_files_keep_their_messages(capsys, tmp_path, text, scale, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text, weight_scale=scale)
    assert str(exc.value) == message
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code = main(["estimate", "--input", str(path), "--method", "two-approx",
                 "--weight-scale", str(scale)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"


@pytest.mark.parametrize("text,scale,n,edges", [
    ("3 2\n0 1\n# hello\n1 2\n", 0, 3, [(0, 1), (1, 2)]),
    ("3 2\n0 1\n1 2\n# end\n", 0, 3, [(0, 1), (1, 2)]),
    ("3 2\n0 +1\n01 2\n", 0, 3, [(0, 1), (1, 2)]),
    ("3 2\n0 \u0661\n1 2\n", 0, 3, [(0, 1), (1, 2)]),
    ("11 1\n0 1_0\n", 0, 11, [(0, 10)]),
    ("3 2 w\n0 1 1_000\n1 2 1e3\n", 0, 3, [(0, 1, 1000), (1, 2, 1000)]),
    ("3 2 w\n0 1 2.5\n1 2 -0\n", 1, 3, [(0, 1, 25), (1, 2, 0)]),
    ("3 2 w\n0 1 7\n1 2 3.25\n", 2, 3, [(0, 1, 700), (1, 2, 325)]),
    ("3 2 w\n0 1 4503599627\n1 2 3\n", 3, 3, [(0, 1, 4503599627000), (1, 2, 3000)]),
    ("3 2 w\n0 1 20\n1 2 100\n", -1, 3, [(0, 1, 2), (1, 2, 10)]),
])
def test_files_off_the_array_path_parse_as_before(text, scale, n, edges):
    assert parse_edge_list(text, weight_scale=scale) == build_graph(n, edges)


def _one_scan_results(monkeypatch):
    """What every call of the one-scan reader returns, in call order."""
    graph_module = importlib.import_module("diamest.graph")
    real = graph_module._table
    results = []

    def record(body, width):
        results.append(real(body, width))
        return results[-1]

    monkeypatch.setattr(graph_module, "_table", record)
    return results


ONE_SCAN_LAYOUTS = {
    "writer": lambda text: text,
    "tabs": lambda text: text.replace(" ", "\t"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing-blank-lines": lambda text: text + "\n  \n\t\n",
    "double-blanks": lambda text: text.replace(" ", "  "),
    "blanks-around-lines": lambda text: text.replace("\n", " \n\t"),
    "blank-lines-between": lambda text: text.replace("\n", "\n \n"),
    "lone-cr": lambda text: text.replace("\n", "\r"),
    "form-feeds": lambda text: text.replace("\n", "\x0c"),
}


@pytest.mark.parametrize("layout", ONE_SCAN_LAYOUTS)
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_edge_list_layouts_are_read_in_one_scan(monkeypatch, layout, weighted, directed):
    edges = [(0, 1, 3), (1, 2, 0), (2, 5, 17), (4, 3, 1), (5, 0, 2), (3, 3, 9)]
    g = build_graph(6, [e if weighted else e[:2] for e in edges], directed=directed)
    results = _one_scan_results(monkeypatch)
    assert parse_graph(ONE_SCAN_LAYOUTS[layout](write_edge_list(g)),
                       directed=directed) == g
    assert len(results) == 1 and results[0] is not None


@pytest.mark.parametrize("every", [0, 10], ids=["one-note", "every-10th-line"])
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_comment_lines_between_edges_are_read_in_one_scan(monkeypatch, every,
                                                          crlf):
    g = build_graph(40, [(i, (7 * i + 3) % 40) for i in range(40)])
    lines = write_edge_list(g).splitlines(keepends=True)
    if every:
        lines = [line + ("\t# c\n" if k % every == 0 else "")
                 for k, line in enumerate(lines)]
    else:
        lines.insert(len(lines) // 2, "# note\n")
    text = "".join(lines)
    if crlf:
        text = text.replace("\n", "\r\n")
    results = _one_scan_results(monkeypatch)
    assert parse_graph(text) == g
    assert len(results) == 1 and results[0] is not None


def test_saturated_token_is_not_read_in_one_scan(monkeypatch):
    # strtoll reads 2^63 as 2^63 - 1, so only the line reader sees the token
    results = _one_scan_results(monkeypatch)
    with pytest.raises(GraphParseError,
                       match=r"^line 2: endpoint out of range for n=3$"):
        parse_graph("3 2\n0 9223372036854775808\n1 2\n")
    assert results == [None]


# text pieces the one-scan reader must refuse or read exactly as the line
# reader does: blanks and line breaks of every kind, comments, signs,
# digit separators, decimals, non-ASCII digits and tokens at the int64 edge
NOISE = ["\t", "\r\n", "\r", "\x0b", "\x0c", "  ", " ", "\n", "\n\n", "# n\n",
         "c n\n", "+", "-", "_", ".5", "١", "9" * 19, "1" * 20, "0"]
WHOLE_TEXT = {
    "tabs": lambda text: text.replace(" ", "\t"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "lone-cr": lambda text: text.replace("\n", "\r"),
    "leading-blanks": lambda text: text.replace("\n", "\n "),
    "trailing-blanks": lambda text: text.replace("\n", " \n"),
    "blank-lines": lambda text: text + "\n\n",
    "no-final-newline": lambda text: text.rstrip("\n"),
}


@st.composite
def noisy_texts(draw):
    """Edge-list or DIMACS text in the writer's layout, then mixed with
    NOISE at drawn places and WHOLE_TEXT changes."""
    n, edges, directed = draw(edge_lists(max_n=6))
    g = build_graph(n, edges, directed=directed)
    if draw(st.booleans()):
        text = write_edge_list(g)
    else:
        src = np.repeat(np.arange(g.n), np.diff(g.indptr))
        arcs = zip(src, g.indices, g.weights if g.weighted else [1] * g.arc_count)
        text = f"p sp {n} {g.arc_count}\n" + "".join(
            f"a {u + 1} {v + 1} {w}\n" for u, v, w in arcs)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))  # insert, or replace one character
        text = text[:at] + draw(st.sampled_from(NOISE)) + text[at + cut:]
    for change in draw(st.sets(st.sampled_from(sorted(WHOLE_TEXT)))):
        text = WHOLE_TEXT[change](text)
    return text, directed, draw(st.sampled_from([0, 0, 1, 2, -1]))


def _parse_outcome(text, directed, scale):
    try:
        g = parse_graph(text, directed=directed, weight_scale=scale)
    except GraphParseError as exc:
        return str(exc)
    return (g.n, g.directed, g.indptr.tolist(), g.indices.tolist(),
            g.weights.tolist() if g.weighted else None)


@PROPERTY
@given(noisy_texts())
# an arc tag whose line is blank but for a CR must not lend its tag to the
# untagged line after it
@example(("p sp 2 2\na \r\n1 2 1\na 2 1 1\n", False, 0))
# strtoll reads a weight above 2^63 - 1 as 2^63 - 1
@example(("3 2 w\n0 1 11111111111111111111\n1 2 1\n", False, 0))
def test_one_scan_reader_matches_the_line_reader(case):
    graph_module = importlib.import_module("diamest.graph")
    outcome = _parse_outcome(*case)
    with mock.patch.object(graph_module, "_table", lambda body, width: None):
        assert _parse_outcome(*case) == outcome


@pytest.mark.parametrize("text", [
    "3 2\n0 1\n1 2\n",
    "3 2 w\n0 1 4\n1 2 5\n",
    "c x\np sp 3 3\na 1 2 4\na 2 3 5\na 3 1 1\n",
], ids=["edges", "weighted", "dimacs"])
def test_byte_order_mark_is_skipped(capsys, tmp_path, text):
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        path = tmp_path / name
        path.write_text(text, encoding=encoding)
        assert cli._read_graph(str(path), False, 0) == parse_graph(text)
        assert main(["estimate", "--input", str(path), "--method", "exact"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_corpus_spec_byte_order_mark_is_skipped(tmp_path):
    marked = tmp_path / "marked.edges"
    marked.write_text("3 2\n0 1\n1 2\n", encoding="utf-8-sig")
    spec = f"file={marked},id=g\nfamily=path,n=4\n"
    corpora = []
    for name, encoding in (("plain.txt", "utf-8"), ("marked.txt", "utf-8-sig")):
        path = tmp_path / name
        path.write_text(spec, encoding=encoding)
        corpora.append(cli.load_corpus(str(path)))
        assert main(["bench", "--corpus", str(path), "--methods", "exact"]) == 0
    assert [name for name, _ in corpora[0]] == ["g", "i001"]
    assert corpora[0] == corpora[1]
    assert corpora[0][0][1] == build_graph(3, [(0, 1), (1, 2)])


# ---- the DIMACS reader --------------------------------------------------------

@PROPERTY
@given(edge_lists(), st.integers(0, 3))
def test_dimacs_equals_build_graph(case, noise):
    n, edges, _ = case
    arcs = [(u, v, e[2] if len(e) == 3 else 1) for u, v, *e in edges]
    g = build_graph(n, arcs, directed=True)
    lines = ["c drawn", f"p sp {n} {len(arcs)}"]
    lines += [f"a {u + 1} {v + 1} {w}" for u, v, w in arcs]
    assert parse_dimacs("\n".join(lines) + "\n") == g
    # comments and blank lines between arcs, tabs, leading blanks, CRLF:
    # the same graph
    for k in range(noise):
        lines.insert(2 + (k * 5) % (len(lines) - 1), ["", "c note", "  "][k])
    noisy = "\r\n".join("  " + line.replace(" ", "\t", 1) for line in lines)
    assert parse_dimacs(noisy) == g


# the 9th DIMACS Challenge .gr layout: comment lines before and right after
# the problem line, as in its sample file and the USA-road files
CHALLENGE_GR = """\
c 9th DIMACS Implementation Challenge: Shortest Paths
c Sample graph file
c
p sp 4 5
c graph contains 4 nodes and 5 arcs
c
a 1 2 17
a 1 3 10
a 2 4 2
a 3 2 0
a 4 3 5
"""


@pytest.mark.parametrize("text,n,arcs", [
    ("c x\np sp 3 2\na 1 2 5\n \ta\t2 3 0\n", 3, [(0, 1, 5), (1, 2, 0)]),
    ("p sp 3 1\na 1 2 5\n\na 2 3 1\nc end\n", 3, [(0, 1, 5), (1, 2, 1)]),
    ("p sp 3 2\r\n  c\tnote\r\n\t\r\na 1 2 5\r\na 2 3 1\r\n", 3,
     [(0, 1, 5), (1, 2, 1)]),
    (CHALLENGE_GR, 4, [(0, 1, 17), (0, 2, 10), (1, 3, 2), (2, 1, 0), (3, 2, 5)]),
], ids=["comment-before-p", "blank-between-arcs", "crlf-indented-comment",
        "challenge-layout"])
def test_clean_dimacs_arcs_are_read_as_one_array(monkeypatch, text, n, arcs):
    graph_module = importlib.import_module("diamest.graph")
    real = graph_module._arc_rows
    results = []

    def record(body, n):
        results.append(real(body, n))
        return results[-1]

    monkeypatch.setattr(graph_module, "_arc_rows", record)
    scans = _one_scan_results(monkeypatch)
    assert parse_dimacs(text) == build_graph(n, arcs, directed=True)
    assert len(results) == 1 and results[0].tolist() == [list(a) for a in arcs]
    assert len(scans) == 1 and scans[0] is not None


# file text and exact message; captured before arcs went through the array
# reader, except "p sp x 0", which used to escape as a bare ValueError
BROKEN_DIMACS = [
    ("c only a comment\n", "missing 'p sp n m' line"),
    ("a 1 2 3\n", "line 1: arc before problem line"),
    ("c x\np sp 3 2\np sp 3\n", "line 3: bad problem line 'p sp 3'"),
    ("p max 3 2\n", "line 1: bad problem line 'p max 3 2'"),
    ("p sp x 0\n", "line 1: bad problem line 'p sp x 0'"),
    ("p sp 3 1 9\n", "line 1: bad problem line 'p sp 3 1 9'"),
    ("p sp 3 1\na 1 2\n", "line 2: bad arc line 'a 1 2'"),
    ("p sp 3 1\na 1 2 3 4\n", "line 2: bad arc line 'a 1 2 3 4'"),
    ("p sp 3 1\na 1 x 3\n", "line 2: bad arc line 'a 1 x 3'"),
    ("p sp 3 1\na 1 2 1.5\n", "line 2: bad arc line 'a 1 2 1.5'"),
    ("p sp 3 1\na\n", "line 2: bad arc line 'a'"),
    ("p sp 3 2\na 1 2 3\na 2 3 1 # note\n", "line 3: bad arc line 'a 2 3 1 # note'"),
    ("p sp 3 1\na 0 2 3\n", "line 2: arc endpoint out of range for n=3"),
    ("p sp 3 1\na 1 4 3\n", "line 2: arc endpoint out of range for n=3"),
    ("p sp 4 3\na 1 2 1\na 2 3 1\na 3 5 1\n",
     "line 4: arc endpoint out of range for n=4"),
    ("p sp -1 1\na 1 1 1\n", "line 2: arc endpoint out of range for n=-1"),
    ("p sp 3 1\na 1 2 3\np sp 2 1\na 1 3 1\n",
     "line 4: arc endpoint out of range for n=2"),
    ("p sp 3 1\na 1 2 -3\n", "line 2: negative weight -3"),
    ("p sp 4 3\na 1 2 1\nc between\n\na 2 3 1\na 3 4 -1\n",
     "line 6: negative weight -1"),
    ("p sp 3 1\nx 1 2 3\n", "line 2: unknown record 'x'"),
    ("p sp 3 1\na1 2 3 4\n", "line 2: unknown record 'a1'"),
    ("p sp 3 1\n  a\t1 2 3\na 2 3 1\nfoo\n", "line 4: unknown record 'foo'"),
    ("p sp 3 1\na 1 2 9223372036854775808\n",
     "weight 9223372036854775808 can make a path over 3 vertices longer than 2^53"),
    ("p sp 3 2\na 1 2 9007199254740993\na 2 3 1\n",
     "weight 9007199254740993 can make a path over 3 vertices longer than 2^53"),
    ("p sp -1 0\n", "vertex count must be nonnegative, got -1"),
]


@pytest.mark.parametrize("text,message", BROKEN_DIMACS)
def test_broken_dimacs_files_keep_their_messages(capsys, tmp_path, text, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.gr"
    path.write_text(text)
    code = main(["estimate", "--input", str(path), "--method", "two-approx"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"


@pytest.mark.parametrize("text,n,arcs", [
    ("p sp 3 2\na +1 2 5\na 02 3 0\n", 3, [(0, 1, 5), (1, 2, 0)]),
    ("p sp 3 1\na \u0661 2 5\n", 3, [(0, 1, 5)]),
    ("p sp 11 1\na 1 1_1 1_0\n", 11, [(0, 10, 10)]),
    ("p sp 3 1\na\u30001 2 5\n", 3, [(0, 1, 5)]),
    ("p sp 9 1\na 1 2 5\np sp 3 1\na 2 3 1\n", 3, [(0, 1, 5), (1, 2, 1)]),
    ("c none\np sp 4 0\n", 4, []),
])
def test_dimacs_files_off_the_array_path_parse_as_before(text, n, arcs):
    assert parse_dimacs(text) == build_graph(n, arcs, directed=True)


# ---- full weighted searches -------------------------------------------------

@PROPERTY
@given(edge_lists(max_n=12), st.sampled_from([OUT, IN]))
def test_full_weighted_search_matches_floyd_warshall(case, direction):
    n, edges, directed = case
    g = build_graph(n, [e if len(e) == 3 else (*e, 1) for e in edges],
                    directed=directed)
    if not g.weighted:
        return
    rows = fw_apsp(g) if direction == OUT else fw_apsp(g).T
    orders = []
    for v in range(n):
        tree = search(g, v, direction)
        reached = np.flatnonzero(np.isfinite(rows[v]))
        order = reached[np.lexsort((reached, rows[v][reached]))]
        dist = np.full(n, np.iinfo(np.int64).max)
        dist[order] = rows[v][order]
        assert np.array_equal(tree.dist, dist)
        assert np.array_equal(tree.order, order)
        orders.append((order, dist))
    # every truncation is a prefix of the full (distance, id) order
    for s in range(1, n + 1):
        members, dists = near_sets(g, np.arange(n), s, direction)
        for v, (order, dist) in enumerate(orders):
            cut = order[:s]
            assert np.array_equal(members[v, :cut.size], cut)
            assert np.array_equal(dists[v, :cut.size], dist[cut])
            assert (members[v, cut.size:] == -1).all()
            assert (dists[v, cut.size:] == np.iinfo(np.int64).max).all()
