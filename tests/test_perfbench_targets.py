"""The benchmark's traced run wraps abc2d functions by name (perfbench/tracer.py).

These tests read the tracer's table without changing it, so a rename or a
deletion of a traced function fails here instead of in a ``--trace 1`` run.
"""

import importlib
from pathlib import Path

import pytest

from abc2d import specfn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_traced_name_resolves(tracer):
    missing = [f"{mod}.{name}" for mod, names in tracer.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"abc2d.{mod}"), name, None))]
    assert missing == []


def test_kummer_classifier_builds(tracer):
    path = tracer.kummer_classifier(specfn)
    assert path(-2.0, 1.0, 0.5) == "poly"
    assert path(0.5, 1.5, 3j) == "taylor"
    assert path(0.5, 1.5, 100j) == "asymptotic"
