"""The benchmark's trace (perfbench/spans.py) wraps congestlist attributes
by name and reads some of their arguments by name. These tests read its
TARGETS, so a change under src/ that renames or drops a wrapped attribute or
a counted parameter fails here, not only in a traced benchmark run."""

import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from congestlist import cluster_pipeline, pipeline
from congestlist.config import SimConfig
from congestlist.engine import RoundEngine
from congestlist.graphs import planted

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for owner, attr, name, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)


def test_counted_parameters_exist():
    assert "counts" in inspect.signature(RoundEngine.phase_transfer_counts).parameters
    assert "messages" in inspect.signature(cluster_pipeline.cluster_route).parameters


def test_traced_forced_depth_run_counts_transfers_and_routes(spans):
    g = planted(64, 14, 3, 0.01, seed=3)
    with spans.installed(spans.Tracer()) as tracer:
        pipeline.congest_list_kp(g, 4, seed=3, cfg=SimConfig(light_factor=0.1),
                                 forced_depth=2, eps0_fraction=Fraction(1, 2))
    values = tracer.values()
    assert values["engine.phase_transfer_counts.messages"] > 0
    assert values["engine.cluster_route.messages"] > 0
    assert values["pipeline.congest_list_kp.calls"] == 1
