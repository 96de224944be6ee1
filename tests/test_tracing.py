"""The benchmark's tracer against the library: ``perfbench/tracing.py``
wraps, by name, the functions that a ``--trace 1`` run times, so a name
that leaves ``src/`` must fail here before it fails a benchmark run."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    mods = [importlib.import_module(f"diamest.{m}") for m in tracing.MODULES]
    graph_cls = importlib.import_module("diamest.graph").Graph
    before = [dict(vars(mod)) for mod in mods]
    reverse = graph_cls.__dict__["reverse"]

    patches = tracing.install(tracing.Tracer())  # raises on a missing name
    try:
        for owner, names in tracing.TRACED.items():
            home = importlib.import_module(f"diamest.{owner}")
            for name in names:
                assert getattr(home, name) is not before[
                    mods.index(home)][name], f"{owner}.{name} not wrapped"
    finally:
        tracing.uninstall(patches)

    assert patches
    for target, name, orig in patches:
        assert target.__dict__[name] is orig, name
    for mod, saved in zip(mods, before):
        now = vars(mod)
        assert now.keys() == saved.keys(), mod.__name__
        assert all(now[k] is v for k, v in saved.items()), mod.__name__
    assert graph_cls.__dict__["reverse"] is reverse
