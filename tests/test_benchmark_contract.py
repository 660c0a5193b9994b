"""The benchmark's call contract: every workload in perfbench/workloads.py
sets up, runs each of its evaluations once and encodes the results to
finite numbers, so that an API change that would break the benchmark (a
dropped keyword, a renamed report field) fails here first.  The workloads
file is loaded by path and only read."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from lfunlab import kuznetsov

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _numbers(encoded):
    if isinstance(encoded, dict):
        for value in encoded.values():
            yield from _numbers(value)
    elif isinstance(encoded, (list, tuple)):
        for value in encoded:
            yield from _numbers(value)
    else:
        yield encoded


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    kuznetsov._cached_weight.cache_clear()
    yield module.WORKLOADS
    kuznetsov._cached_weight.cache_clear()


def test_every_workload_runs_and_encodes_finite_numbers(workloads):
    assert sorted(workloads) == ["diagonal_weight", "trace_identity", "voronoi_identity"]
    for name, workload in workloads.items():
        evaluations = workload.evaluations(workload.setup())
        assert evaluations, name
        for label, call in evaluations:
            numbers = list(_numbers(workload.encode(call())))
            assert numbers, (name, label)
            for x in numbers:
                assert isinstance(x, (int, float)) and math.isfinite(x), (name, label, x)
