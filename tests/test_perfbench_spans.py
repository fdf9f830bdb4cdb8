"""The benchmark's span tracer patches program names by ``getattr`` without
a default, so a renamed or deleted name breaks every traced run."""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer("t")
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)
