"""Independent reference answers and the output checks run on every call.

The reference reads the generated edge-list files with its own parser and
computes distances with scipy's shortest-path routine, so no diamest parsing
or search code is involved in deciding whether diamest's answer is right.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

CHUNK = 256  # sources per scipy call; bounds the chunk x n distance block


@dataclass
class RefGraph:
    n: int
    directed: bool
    weighted: bool
    mat: csr_matrix
    _transpose: csr_matrix | None = None

    @property
    def wmax(self) -> int:
        return int(self.mat.data.max()) if self.mat.nnz else 0

    def dist_from(self, source: int, direction: str = "out") -> np.ndarray:
        mat = self.mat
        if direction == "in":
            if self._transpose is None:
                self._transpose = self.mat.T.tocsr()
            mat = self._transpose
        return shortest_path(mat, method="D", directed=True,
                             unweighted=not self.weighted, indices=[source])[0]

    def eccentricities(self, sources) -> tuple[np.ndarray, bool]:
        """Max finite out-distance of every source; True if all reach all."""
        sources = np.asarray(sources, dtype=np.int64)
        ecc = np.empty(sources.size, dtype=np.int64)
        reach_all = True
        for lo in range(0, sources.size, CHUNK):
            d = shortest_path(self.mat, method="D", directed=True,
                              unweighted=not self.weighted,
                              indices=sources[lo:lo + CHUNK])
            finite = np.isfinite(d)
            reach_all &= bool(finite.all())
            ecc[lo:lo + CHUNK] = np.where(finite, d, -1).max(axis=1)
        return ecc, reach_all


def load(path, directed: bool) -> RefGraph:
    """Read the native edge-list format without diamest's parser."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0].split()
    n, weighted = int(header[0]), len(header) == 3
    cols = 3 if weighted else 2
    body = np.array(" ".join(lines[1:]).split(), dtype=np.int64).reshape(-1, cols)
    u, v = body[:, 0], body[:, 1]
    w = body[:, 2] if weighted else np.ones(u.size, dtype=np.int64)
    if (w <= 0).any():
        raise ValueError(f"{path}: reference needs positive weights")
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    if not directed:
        u, v, w = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    # parallel arcs keep their minimum weight
    order = np.lexsort((w, v, u))
    u, v, w = u[order], v[order], w[order]
    first = np.ones(u.size, dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    mat = csr_matrix((w[first].astype(np.float64), (u[first], v[first])),
                     shape=(n, n))
    return RefGraph(n, directed, weighted, mat)


def reference(path, directed: bool, exact: bool) -> dict:
    """Diameter facts of one file.

    exact: D and radius from a sweep over every source.  Otherwise (files
    too large for n sweeps, undirected only) D is bracketed by a double
    sweep: any eccentricity e gives e <= D <= 2e.
    """
    g = load(path, directed)
    out = {"n": g.n, "weighted": g.weighted, "wmax": g.wmax, "exact": exact}
    if exact:
        ecc, finite = g.eccentricities(np.arange(g.n))
        out.update(finite=finite, d_lo=int(ecc.max()), d_hi=int(ecc.max()),
                   radius=int(ecc.min()))
        return out
    if directed:
        raise ValueError("bracketed reference needs an undirected graph")
    d0 = g.dist_from(0)
    far = int(np.argmax(np.where(np.isfinite(d0), d0, -1)))
    ecc, finite = g.eccentricities([0, far])
    out.update(finite=finite, d_lo=int(ecc.max()), d_hi=2 * int(ecc.min()),
               radius=None)
    return out


# ---- floors -----------------------------------------------------------------

def floor_for(method: str, d: int, weighted: bool, wmax: int) -> int | None:
    """The README's unconditional lower bound for a method, or None."""
    h, z = divmod(d, 3)
    if method == "two-approx":
        return -(-d // 2)
    if method in ("aingworth", "rv"):
        return None if weighted else (2 * h + z if z < 2 else 2 * h + 1)
    if method == "rv-weighted":
        return (2 * d) // 3 - wmax
    if method == "dense":
        return 2 * h + z if h >= 1 else None
    if method == "sparse":
        return 2 * h + z
    if method == "four-fifths":
        return (4 * d) // 5
    return None  # sampling holds its floor only with high probability


def _value_checks(method, value, ref, failures, where, params=""):
    if not ref["finite"]:
        failures.append(f"{where}: reference says infinite diameter")
        return
    if value > ref["d_hi"]:
        failures.append(f"{where}: value {value} > D {ref['d_hi']}")
    if not ref["exact"]:
        return
    d = ref["d_hi"]
    floor = floor_for(method, d, ref["weighted"], ref["wmax"])
    if floor is not None and value < floor:
        failures.append(f"{where}: value {value} below the {method} floor {floor} (D={d})")
    if (method == "exact" or "branch=direct" in params) and value != d:
        failures.append(f"{where}: value {value} != D {d}")


def _witness_check(witness: str, value: int, g: RefGraph, failures, where):
    kind, _, rest = witness.partition(":")
    if kind == "tree":
        direction, _, src = rest.partition(":")
        dist = g.dist_from(int(src), direction)
        depth = int(dist[np.isfinite(dist)].max())
        if depth != value:
            failures.append(f"{where}: witness {witness} has depth {depth}, not {value}")
        return
    a, b = (int(x) for x in rest.split(","))
    dist = g.dist_from(a)[b]
    if kind == "distance" and dist != value:
        failures.append(f"{where}: witness {witness} is at distance {dist}, not {value}")
    elif kind == "pair" and dist < value:
        failures.append(f"{where}: pair {witness} is at distance {dist} < {value}")
    elif kind not in ("distance", "pair"):
        failures.append(f"{where}: unknown witness kind {kind!r}")


def parse_kv(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def check_call(call, stdout: str, refs: dict, graphs) -> list[str]:
    """Failure names for one call's output (empty list: all checks pass).

    ``refs`` maps a file path to its reference(); ``graphs(path, directed)``
    returns the loaded RefGraph for witness checks.
    """
    failures: list[str] = []
    where = f"{call.kind}:{call.method}"
    try:
        if call.kind == "bench":
            _check_bench(call, stdout, refs, failures)
            return failures
        inp = call.inputs[0]
        ref = refs[str(inp.path)]
        kv = parse_kv(stdout)
        value = int(kv["value"])
        _value_checks(call.method, value, ref, failures, where, kv.get("params", ""))
        _witness_check(kv["witness"], value, graphs(inp.path, inp.directed),
                       failures, where)
        if call.kind == "exact" and ref["exact"]:
            if int(kv["eccentricity_max"]) != ref["d_hi"]:
                failures.append(f"{where}: eccentricity_max {kv['eccentricity_max']} != D")
            if int(kv["eccentricity_min"]) != ref["radius"]:
                failures.append(f"{where}: eccentricity_min {kv['eccentricity_min']} "
                                f"!= radius {ref['radius']}")
    except (KeyError, ValueError, IndexError) as exc:
        failures.append(f"{where}: unreadable output ({exc!r})")
    return failures


def _check_bench(call, stdout, refs, failures):
    rows = list(csv.DictReader(io.StringIO(stdout)))
    by_id = {inp.path.stem: inp for inp in call.inputs}
    if sorted(r["instance"] for r in rows) != sorted(by_id):
        failures.append(f"bench:{call.method}: rows do not match the corpus")
    for row in rows:
        where = f"bench:{call.method}:{row['instance']}"
        inp = by_id.get(row["instance"])
        if inp is None:
            continue
        if row["estimate"] == "":
            failures.append(f"{where}: empty row (the method failed)")
            continue
        _value_checks(call.method, int(row["estimate"]), refs[str(inp.path)],
                      failures, where)


def stable_stdout(call, stdout: str) -> str:
    """The part of stdout that must repeat byte for byte for a fixed seed
    (bench CSV rows drop their trailing millis column)."""
    if call.kind != "bench":
        return stdout
    return "\n".join(line.rsplit(",", 1)[0] for line in stdout.splitlines())
