"""The benchmark's tracer (perfbench/tracing.py) still finds every name it
wraps in the library, and puts every original back."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
