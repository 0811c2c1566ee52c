"""The benchmark's tracer wraps traitline functions by module and name; a
rename that would break ``perfbench/run.py --trace 1`` fails here first."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracing_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, *_ in tracing.HOOKS:
        # resolved as tracing.installed() resolves it
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in vars(owner), f"{module}.{attr}"
