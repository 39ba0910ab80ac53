"""The benchmark's own output checks and pins, run on the package's traces.

``perfbench/run.py`` is loaded as it is, and its ``check_trace`` and
``trace_digest`` read each trace the way a benchmark pass does: a change to
the trace's read API or to what a run computes fails here, not only in the
benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import streamcache
from streamcache import SimConfig, StrategyKind, generate_stream, run_strategy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        module.sc = streamcache  # what its load_package() binds, without touching sys.path
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["interleaved-bounded", "progressive-long"])
def test_strategy_workload_output_matches_its_pin(bench, name, seed):
    workload = bench.WORKLOADS[name]
    cfg = SimConfig(seed=seed)  # the benchmark's config document is {"seed": seed}
    stream = generate_stream(cfg, workload.duration_s)
    trace = run_strategy(StrategyKind(workload.kind_value), stream, cfg)
    assert bench.check_trace(trace, len(stream.times)) == []
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    assert bench.trace_digest(trace) == pins[name][str(seed)]
