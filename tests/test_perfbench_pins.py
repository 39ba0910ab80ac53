"""The benchmark's own output checks and pins, run on the package's traces.

``perfbench/run.py`` is loaded as it is, and its ``check_trace`` and
``trace_digest`` read each trace the way a benchmark pass does: a change to
the trace's read API or to what a run computes fails here, not only in the
benchmark. ``connector-train`` runs through the workload's own ``setup`` and
``run``, so a change to its loss curve fails here too.
``perfbench/tracing.py`` is loaded as it is too, and its tracer
must find every name it wraps, so a renamed function fails here before it
fails ``perfbench/run.py --trace 1``.
"""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import streamcache
from streamcache import SimConfig, StrategyKind, generate_stream, run_strategy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextlib.contextmanager
def load(name, filename):
    """``perfbench/<filename>`` imported as module ``name``, as it is."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def bench():
    with load("perfbench_run", "run.py") as module:
        module.sc = streamcache  # what its load_package() binds, without touching sys.path
        yield module


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


@pytest.mark.parametrize("seed", [0, 1])
def test_connector_workload_output_matches_its_pin(bench, tmp_path, seed):
    workload = bench.WORKLOADS["connector-train"]
    workload.prepare(seed, tmp_path)
    result = workload.run(workload.setup())
    assert result.failures == []
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    assert result.digest == pins["connector-train"][str(seed)]


def test_tracer_wraps_every_trace_point_and_restores_it():
    with load("perfbench_tracing", "tracing.py") as tracing:
        points = [(owner, attr) for owner, attr, _, _ in tracing.TRACE_POINTS]
        originals = [owner.__dict__[attr] for owner, attr in points]
        pool = streamcache.cli.ThreadPoolExecutor
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (owner, attr), original in zip(points, originals):
                assert owner.__dict__[attr].__wrapped__ is original, attr
            assert streamcache.cli.ThreadPoolExecutor is not pool
            assert issubclass(streamcache.cli.ThreadPoolExecutor, pool)
        finally:
            tracer.uninstall()
        assert [owner.__dict__[attr] for owner, attr in points] == originals
        assert streamcache.cli.ThreadPoolExecutor is pool
    # the strategy workloads count frames as len(stream.frames)
    stream = generate_stream(SimConfig(), 60.0)
    assert len(stream.frames) == len(stream.times) == 240


def test_tracer_counts_one_engine_append_per_frame():
    # b's frames each append one token, which the engine routes to the
    # append_token the tracer spans; the prompt and the verbalized groups
    # are blocks, so --trace 1's attention.append_calls counts frames
    with load("perfbench_tracing", "tracing.py") as tracing:
        cfg = SimConfig()
        stream = generate_stream(cfg, 60.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg)
        finally:
            tracer.uninstall()
        spans = tracer.aggregate()["spans"]
    assert cfg.tokens_per_frame == 1 and any(trace.rows.verbalization_event)
    assert spans["attention.append"]["calls"] == len(stream.times) == 240
