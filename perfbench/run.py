"""diamest benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Set-up (``diamest gen`` rounds and the reference answers) runs in a child
process.  This process then calls ``diamest.cli.main`` in-process, one call
at a time, in passes over the workload's calls for about S seconds, timing
every call from outside, and checks every output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` makes untraced and then traced passes
and reports the per-layer metrics.  The last stdout line is one JSON
object; a fuller result file goes to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import median

import checks
import tracing
import workloads
from workloads import ROOT

MIN_PASSES = 3        # the stdout identity check needs repeats
SETUP_MIN_ROUNDS = 3
SETUP_EVERY_S = 6.0   # one more set-up round between passes this often
SETUP_TIMEOUT = 150
OUT_DIR = ROOT / ".perfbench"


@dataclass
class Result:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Pass:
    seconds: float
    results: list
    spans: list


def invoke(cli, argv, tracer=None, call_id=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.root(call_id, cli.main, list(argv))
    except Exception:  # a crash is a failed call, not a benchmark error
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return Result(rc, out.getvalue(), err.getvalue(), seconds)


def run_passes(cli, calls, budget: float, tracer=None, between=None) -> list:
    """Passes over all calls until the next would overrun ``budget`` seconds;
    ``between`` runs after every pass."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [invoke(cli, c.argv, tracer, k) for k, c in enumerate(calls)]
        seconds = time.perf_counter() - t0
        spans = []
        if tracer is not None:
            spans, tracer.spans = tracer.spans, []
        passes.append(Pass(seconds, results, spans))
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + median(q.seconds for q in passes) > budget):
            return passes


def run_inputs(args, work, refs=False, trace=False) -> dict:
    """Run inputs.py: one timed set-up round into ``work``."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "inputs.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--dir", str(work),
           "--refs", str(int(refs)), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


class SetupRounds:
    """Set-up rounds spread over the run, each in a fresh process as a
    user's ``diamest gen`` would be.

    The host's speed changes every few seconds, so rounds timed back to
    back at the start would all land in whatever state the run began in.
    """

    def __init__(self, args, work, first: float):
        self.args, self.work = args, work / "rounds"
        self.times = [first]
        self.last = time.perf_counter()

    def between_passes(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.add()

    def add(self):
        self.times.append(run_inputs(self.args, self.work)["setup_s"])
        self.last = time.perf_counter()

    def finish(self) -> list:
        while len(self.times) < SETUP_MIN_ROUNDS:
            self.add()
        return self.times


# ---- checks -------------------------------------------------------------------

def check_outputs(calls, passes, refs) -> tuple[int, list]:
    """(failed call count, failure names) over every call of every pass."""
    loaded = {}

    def graphs(path, directed):
        key = (str(path), directed)
        if key not in loaded:
            loaded[key] = checks.load(path, directed)
        return loaded[key]

    failed, names = 0, []
    for k, call in enumerate(calls):
        first = passes[0].results[k]
        bad_output = []
        if first.rc == 0:
            bad_output = checks.check_call(call, first.stdout, refs, graphs)
        names += bad_output
        want = checks.stable_stdout(call, first.stdout)
        for p, ps in enumerate(passes):
            r = ps.results[k]
            reasons = []
            if r.rc != 0:
                tail = r.stderr.strip().splitlines()[-1:] or [""]
                reasons.append(f"{call.kind}:{call.method}: exit code {r.rc} ({tail[0]})")
            elif checks.stable_stdout(call, r.stdout) != want:
                reasons.append(f"{call.kind}:{call.method}: stdout of pass {p} "
                               "differs from pass 0")
            if reasons or bad_output:
                failed += 1
            names += reasons
    return failed, list(dict.fromkeys(names))


# ---- metrics -----------------------------------------------------------------

def best_of(calls, passes, methods=None) -> float:
    """Summed fastest time of each call (of the given methods) over passes.

    The host's speed flips between states every few seconds, so a median
    over passes depends on how long a run spent in the slow state.  The
    fastest of a call's many repeats is its time without that slowdown.
    """
    return sum(min(p.results[k].seconds for p in passes)
               for k, c in enumerate(calls) if methods is None or c.method in methods)


def method_walls(calls, passes) -> dict:
    return {m: best_of(calls, passes, (m,)) for m in dict.fromkeys(c.method for c in calls)}


def layer_metrics(wl, untraced, traced, setup) -> tuple[dict, dict]:
    """Per-layer metrics (fastest of the traced passes) and the trace report."""
    calls = wl.calls
    methods = {k: c.method for k, c in enumerate(calls)}
    per_pass = [tracing.pass_layers(p.spans, methods) for p in traced]
    layers = {name: min(pp[name] for pp in per_pass)
              for name, _ in tracing.layer_metric_names()}
    layers.update(setup["layers"])
    walls = method_walls(calls, untraced)
    for m in workloads.METHODS:
        layers[f"wall_s.{m}"] = walls.get(m, 0.0)
    run_untraced = best_of(calls, untraced)
    run_traced = best_of(calls, traced)
    layers["trace.overhead_s"] = run_traced - run_untraced
    rv_calls = [k for k, c in enumerate(calls) if c.method == "rv"]
    layers["estimators.rv.reruns"] = sum(
        int(checks.parse_kv(untraced[0].results[k].stdout).get("reruns", 0))
        for k in rv_calls)
    report = {
        "run_s_untraced": run_untraced,
        "run_s_traced": run_traced,
        "traced_wall_s": method_walls(calls, traced),
        "dominant_layer": dominance(wl.name, layers, calls, traced, run_traced),
    }
    return layers, report


def _share_holds(prediction, part, whole, threshold=0.5) -> dict:
    share = float(part / whole) if whole else 0.0
    return {"prediction": prediction, "share": round(share, 4),
            "holds": share > threshold}


def dominance(name, layers, calls, traced, run_traced) -> list:
    """Does the layer the workload was chosen for dominate, as predicted?"""
    if name == "sweep-directed":
        return [_share_holds("search.batch_search_stats.s is most of run_s",
                             layers["search.batch_search_stats.s"], run_traced)]
    if name == "nearset-undirected":
        walls = method_walls(calls, traced)
        return [_share_holds(f"estimators.{m}.self_s is most of {m}'s wall time",
                             layers[f"estimators.{m}.self_s"], walls[m])
                for m in ("aingworth", "dense")]
    if name == "corpus-small":
        fixed = (layers["cli.self_s"] + layers["graph.parse_graph.s"]
                 + layers["graph.finite_diameter_check.s"])
        return [_share_holds("per-call and per-file fixed cost (cli self, parse, "
                             "finite check) is most of run_s", fixed, run_traced)]
    totals = [tracing.call_totals(p.spans) for p in traced]
    out = []
    for weighted in (False, True):
        ks = [k for k, c in enumerate(calls) if c.inputs[0].weighted == weighted]
        out.append(_share_holds(
            f"graph.parse_graph.s (with build_graph) is most of the "
            f"{'weighted' if weighted else 'unweighted'} calls",
            sum(min(t[k].get("graph.parse_graph", 0.0) for t in totals) for k in ks),
            sum(min(t[k][tracing.ROOT] for t in totals) for k in ks)))
    return out


def search_report(calls, traced, refs) -> list:
    """Counted full searches per call next to the README formula's count."""
    counted = {}
    for name, _, _, _, k, work in traced[0].spans:
        counted[k] = counted.get(k, 0) + tracing.full_searches(name, work)
    out = []
    for k, call in enumerate(calls):
        if call.kind == "bench":
            out.append({"call": f"bench:{call.method}", "counted": counted.get(k, 0),
                        "predicted": None, "formula": "per-instance params not printed"})
            continue
        inp = call.inputs[0]
        kv = checks.parse_kv(traced[0].results[k].stdout)
        params = dict(item.split("=", 1) for item in kv.get("params", "").split(";")
                      if "=" in item)
        n_high = 0
        if call.method == "sparse" and "delta" in params:
            g = checks.load(inp.path, inp.directed)
            n_high = int(((g.mat.indptr[1:] - g.mat.indptr[:-1])
                          >= int(params["delta"])).sum())
        lo, hi, formula = tracing.predicted_searches(
            call.method, params, int(kv.get("reruns", 0)), refs[str(inp.path)]["n"],
            n_high, inp.directed)
        got = counted.get(k, 0)
        out.append({"call": f"{call.kind}:{call.method}:{inp.path.name}",
                    "counted": got, "predicted": [lo, hi], "formula": formula,
                    "within": None if lo is None else lo <= got <= hi})
    return out


# ---- output ------------------------------------------------------------------

def repro(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diamest benchmark: one workload")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    cli = workloads.import_program()
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        setup = run_inputs(args, work, refs=True, trace=args.trace)
        rounds = SetupRounds(args, work, setup["setup_s"])
        wl = workloads.build(args.workload, args.seed, work)
        start = time.perf_counter()
        # one untimed pass lets lazy imports and allocator growth finish
        warmup = [Pass(0.0, [invoke(cli, c.argv) for c in wl.calls], [])]
        budget = args.seconds - (time.perf_counter() - start)
        if args.trace:
            budget /= 2
        untraced = run_passes(cli, wl.calls, budget,
                              between=None if args.trace else rounds.between_passes)
        traced = []
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced = run_passes(cli, wl.calls, budget, tracer)
            finally:
                tracing.uninstall(patches)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = warmup + untraced + traced
        failed, failures = check_outputs(wl.calls, passes, setup["refs"])
        report = {}
        if args.trace:
            metrics, report = layer_metrics(wl, untraced, traced, setup)
            report["full_searches"] = search_report(wl.calls, traced, setup["refs"])
            units = dict(tracing.layer_metric_names())
        else:
            metrics = {"setup_s": median(rounds.finish()),
                       "run_s": best_of(wl.calls, untraced),
                       "peak_rss_mb": peak_rss_mb}
            units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes) * len(wl.calls)
    walls = method_walls(wl.calls, untraced)
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, repro=repro(args), passes=len(untraced),
                  traced_passes=len(traced), pass_s=[p.seconds for p in passes[1:]],
                  call_s=[[r.seconds for r in p.results] for p in passes[1:]],
                  run_median_s=median(p.seconds for p in untraced),
                  fail_ratio=failed / attempted,
                  failures=failures, setup_s_rounds=rounds.times,
                  peak_rss_mb=peak_rss_mb, wall_s=walls, refs=setup["refs"],
                  report=report)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for p in traced:
                fh.write(json.dumps(p.spans) + "\n")

    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(wl.calls)} calls")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"run_median_s {record['run_median_s']:.6g} s (median pass, not gated)")
        for method, seconds in walls.items():
            print(f"wall_s.{method} {seconds:.6g} s")
    for item in report.get("dominant_layer", []):
        print(f"dominant layer: {item['prediction']}: share {item['share']} "
              f"-> {'holds' if item['holds'] else 'DOES NOT HOLD'}")
    for item in report.get("full_searches", []):
        print(f"full searches {item['call']}: counted {item['counted']}, "
              f"predicted {item['predicted']} ({item['formula']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
