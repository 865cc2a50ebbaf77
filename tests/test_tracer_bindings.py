"""perfbench/spans.py wraps program functions by module attribute name; a
moved or renamed function breaks the traced benchmark run. These tests load
the tracer by path and check that every binding it wraps exists and is
restored."""

import importlib.util
from pathlib import Path

import pytest

from mirror_dce import trajectories

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves(spans):
    for owner, attr, name, _ in spans._bindings():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"
    assert callable(trajectories.find_root)


def test_installed_wraps_and_restores_every_binding(spans):
    before = spans.installed_bindings()
    with spans.Tracer().installed():
        for (owner, attr, original), (_, _, current) in zip(before, spans.installed_bindings()):
            assert current.__wrapped__ is original, f"{owner.__name__}.{attr}"
    assert spans.installed_bindings() == before
