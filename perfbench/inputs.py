"""Benchmark set-up for one workload, run by run.py in its own process.

Generates the workload's input files through ``diamest gen`` in one
timed round.  With ``--refs 1`` it also writes the bench corpus files and
computes the reference answers the output checks use; with ``--trace 1``
it makes one more, traced round for the set-up layers.  run.py starts it
once before measuring and again between passes, so the set-up rounds are
spread over the whole run.  Keeping set-up out of the measuring process
leaves that process's peak memory to the calls alone.  Prints one JSON
object.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads


def gen_round(cli, wl) -> float:
    t0 = time.perf_counter()
    for inp in wl.inputs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(list(inp.gen))
        if rc != 0:
            sys.exit(f"set-up: `diamest {' '.join(inp.gen)}` exited {rc}: {err.getvalue()}")
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--refs", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = workloads.import_program()
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, work)
    setup_s = gen_round(cli, wl)

    layers = {}
    if args.trace:
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            gen_round(cli, wl)
        finally:
            tracing.uninstall(patches)
        for name in tracing.SETUP_TIMED:
            layers[f"{name}.s"] = sum(s[2] - s[1] for s in tracer.spans if s[0] == name)

    refs = {}
    if args.refs:
        for path, text in wl.corpus_specs.items():
            Path(path).write_text(text, encoding="utf-8")
        refs = {str(inp.path): checks.reference(inp.path, inp.directed,
                                                inp.exact_reference)
                for inp in wl.inputs}
    print(json.dumps({"setup_s": setup_s, "layers": layers, "refs": refs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
