#!/usr/bin/env python3
"""streamcache benchmark: four workloads through the package's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. Each run sets up its inputs from the
seed (timed as ``setup_s``), does one untimed warm-up pass, then repeats
passes for ``--seconds``, checking every pass's output. Timings are scaled
to a reference machine speed sampled between passes. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` measures half the time untraced and
half with a span on every call into the package, runs the attention probe,
and reports the per-layer metrics. The last line of standard output is one
JSON object; the exit code is 1 if any output check failed, 2 on bad usage
or a missing package. See NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PINS = BENCH_DIR / "pins.json"

# the reference machine's median rate for the calibration kernel over 4 s
REFERENCE_UNITS_PER_S = 8000.0
SPEED_SAMPLE_S = 0.1
FLOAT_DIGITS = 8  # significant digits kept where a digest includes floats

sc = None  # the streamcache package, bound by load_package()


def load_package():
    """Import ``streamcache`` from this checkout's ``src/``; refuse any other copy."""
    global sc
    if not (SRC / "streamcache" / "__init__.py").is_file():
        raise RuntimeError(f"no streamcache package under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamcache
    import streamcache.attention
    import streamcache.cli
    import streamcache.config
    import streamcache.connector
    import streamcache.harness
    if not Path(streamcache.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"streamcache imported from {streamcache.__file__}, not {SRC}")
    sc = streamcache
    return streamcache


@dataclass
class Pass:
    """One timed call of a workload and what its output checks found."""

    wall_s: float
    ops: int  # frames replayed, or scene-gradient evaluations
    latencies_ns: list
    digest: dict  # compared with the run's first pass and with the pin
    flops: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    speed: float = 1.0  # machine speed around the pass, set by Checker.measure


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def write_config(work: Path, seed: int) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps({"seed": seed}), encoding="utf-8")
    return path


def replay_flops(trace) -> tuple:
    """Engine flops and final live size implied by the cache event log:
    each entry appends at the new live size, each exit removes its tokens."""
    cfg = trace.cfg
    live = total = 0
    for event in trace.cache_events:
        if event.op == "entry":
            live += 1
            total += sc.attention.append_flop_cost(live, cfg.d, sc.harness.ENGINE_LAYERS,
                                                   cfg.vocab_size)
        else:
            live -= len(event.token_ids)
    return total, live


def check_trace(trace, n_frames: int) -> list:
    kind = trace.kind.value
    if len(trace.rows) != n_frames or trace.truncated_at is not None:
        return [f"{kind}: {len(trace.rows)} of {n_frames} frames traced"]
    failures = []
    flops, live = replay_flops(trace)
    if flops != trace.engine_total_flops:
        failures.append(f"{kind}: engine counted {trace.engine_total_flops} flops, "
                        f"cache events imply {flops}")
    if live != trace.rows[-1].live_token_count:
        failures.append(f"{kind}: final live size {trace.rows[-1].live_token_count}, "
                        f"cache events imply {live}")
    return failures


def trace_digest(trace) -> dict:
    rows = [(r.live_token_count, r.append_flops, r.extra_recompute_flops, r.text_entry_flops,
             r.predicted_step_id, r.verbalization_event) for r in trace.rows]
    return {"engine_total_flops": trace.engine_total_flops,
            "rows_sha256": _sha256(repr(rows).encode())}


class StrategyWorkload:
    """``run_strategy`` for one strategy over a ``SimConfig(seed=...)`` stream."""

    def __init__(self, name: str, kind: str, duration_s: float) -> None:
        self.name, self.kind_value, self.duration_s = name, kind, duration_s
        self.sim_minutes = duration_s / 60.0

    def prepare(self, seed: int, work: Path) -> None:
        self.config_path = write_config(work, seed)

    def setup(self):
        cfg = sc.config.load_config(str(self.config_path))
        return cfg, sc.harness.generate_stream(cfg, self.duration_s)

    def run(self, state) -> Pass:
        cfg, stream = state
        kind = sc.harness.StrategyKind(self.kind_value)
        t0 = time.perf_counter()
        trace = sc.harness.run_strategy(kind, stream, cfg)
        wall = time.perf_counter() - t0
        return Pass(wall, len(trace.rows), [r.wall_ns for r in trace.rows],
                    trace_digest(trace), trace.engine_total_flops,
                    check_trace(trace, len(stream.frames)))


class SimulateWorkload:
    """``streamcache simulate --strategy all`` called in-process through
    ``streamcache.cli.main``; the traces it builds are captured on their way
    to the artifact writers for their per-frame stamps and checks."""

    STRATEGIES = ["a1", "a2", "b"]

    def __init__(self, name: str, horizon_s: float, noise_p: float) -> None:
        self.name, self.horizon_s, self.noise_p = name, horizon_s, noise_p
        self.sim_minutes = horizon_s / 60.0

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.config_path = write_config(work, seed)
        self.out_dir = work / "simulate"
        self.argv = ["simulate", str(self.config_path), "--strategy", "all",
                     "--duration-s", str(self.horizon_s), "--noise-p", str(self.noise_p),
                     "--out-dir", str(self.out_dir)]

    def setup(self):
        # the set-up the command itself does before starting its workers
        cfg = sc.config.load_config(str(self.config_path))
        sc.harness.generate_stream(cfg, self.horizon_s)
        return None

    def run(self, state) -> Pass:
        captured = []
        inner = sc.cli.run_strategy

        def capture(*args, **kwargs):
            trace = inner(*args, **kwargs)
            captured.append(trace)
            return trace

        sc.cli.run_strategy = capture
        stdout = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = sc.cli.main(self.argv)
            wall = time.perf_counter() - t0
        finally:
            sc.cli.run_strategy = inner
        captured.sort(key=lambda trace: trace.kind.value)
        failures = self.check(code, stdout.getvalue(), captured)
        files = sorted(os.listdir(self.out_dir))
        digest = {}
        for name in files:
            if name == "manifest.json":
                continue
            data = (self.out_dir / name).read_bytes()
            if name == "summary.json":
                # its floats come from least-squares fits; keep the digits
                # that do not depend on the BLAS kernel
                data = json.dumps(_round_floats(json.loads(data)), sort_keys=True).encode()
            digest[name] = _sha256(data)
        return Pass(wall, sum(len(t.rows) for t in captured),
                    [r.wall_ns for t in captured for r in t.rows], digest,
                    sum(t.engine_total_flops for t in captured), failures,
                    {"bytes_written": sum((self.out_dir / n).stat().st_size for n in files)})

    def check(self, code: int, stdout: str, traces: list) -> list:
        if code != 0:
            return [f"simulate exited {code}"]
        failures = []
        report = json.loads(stdout)
        if report != {"out_dir": str(self.out_dir), "strategies": self.STRATEGIES,
                      "truncated": False}:
            failures.append(f"simulate reported {report}")
        n_frames = int(round(self.horizon_s * sc.config.SimConfig().fps))
        if [t.kind.value for t in traces] != self.STRATEGIES:
            return failures + [f"simulate ran {[t.kind.value for t in traces]}"]
        for trace in traces:
            failures += check_trace(trace, n_frames)
        artifacts = [str(self.out_dir / f"{stem}_{k}.{ext}") for k in self.STRATEGIES
                     for stem, ext in (("trace", "csv"), ("events", "jsonl"))]
        artifacts.append(str(self.out_dir / "summary.json"))
        expected = sorted(Path(a).name for a in artifacts) + ["manifest.json"]
        if sorted(os.listdir(self.out_dir)) != sorted(expected):
            return failures + [f"simulate wrote {sorted(os.listdir(self.out_dir))}"]
        summary = json.loads((self.out_dir / "summary.json").read_text(encoding="utf-8"))
        for trace in traces:
            entry = summary["strategies"][trace.kind.value]
            if (entry["engine_total_flops"] != trace.engine_total_flops
                    or entry["frames"] != n_frames):
                failures.append(f"summary.json disagrees with the {trace.kind.value} trace")
        manifest = json.loads((self.out_dir / "manifest.json").read_text(encoding="utf-8"))
        if manifest["seed"] != self.seed or sorted(manifest["artifacts"]) != sorted(artifacts):
            failures.append("manifest.json lists other artifacts or another seed")
        return failures


class ConnectorWorkload:
    """``train_toy`` on one seeded 16x16 scene with 48-dim patch features.

    Each scene-gradient evaluation is stamped by a wrapper around
    ``streamcache.connector.stage1_value_and_grads``, the name ``train_toy``
    calls it by; those stamps are this workload's per-operation latency."""

    def __init__(self, name: str, epochs: int, lr: float) -> None:
        self.name, self.epochs, self.lr = name, epochs, lr
        self.sim_minutes = 0.0

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed

    def setup(self):
        scene = sc.connector.make_scene(self.seed, side=16, dim=48)
        params = sc.connector.init_connector(feat_dim=48, d=32, m=8, k=2, d_mlp=48,
                                             seed=self.seed + 1)
        decoder = sc.connector.init_caption_decoder(32, 64, seed=self.seed + 2)
        return scene, params, decoder

    def run(self, state) -> Pass:
        scene, params0, decoder = state
        params = {name: arr.copy() for name, arr in params0.items()}
        stamps = []
        inner = sc.connector.stage1_value_and_grads

        def stamped(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = inner(*args, **kwargs)
            stamps.append(time.perf_counter_ns() - t0)
            return out

        sc.connector.stage1_value_and_grads = stamped
        try:
            t0 = time.perf_counter()
            result = sc.connector.train_toy(params, decoder, [scene], epochs=self.epochs,
                                            lr=self.lr, lambda_1=2.0)
            wall = time.perf_counter() - t0
        finally:
            sc.connector.stage1_value_and_grads = inner
        curve = result.curve
        failures = []
        if curve.shape != (self.epochs + 1, 3) or not np.isfinite(curve).all():
            failures.append(f"loss curve has shape {curve.shape} or non-finite values")
        if len(stamps) != self.epochs:
            failures.append(f"{len(stamps)} gradient evaluations for {self.epochs} epochs")
        digest = {"curve_sha256": _sha256(repr(_round_floats(curve.tolist())).encode()),
                  "final_ho": _round_floats(result.final_ho)}
        return Pass(wall, len(stamps), stamps, digest, 0, failures,
                    {"final_ho": result.final_ho})


# why each workload was chosen: NOTES.md
WORKLOADS = {w.name: w for w in (
    StrategyWorkload("interleaved-bounded", "b", 1800.0),
    StrategyWorkload("progressive-long", "a1", 600.0),
    SimulateWorkload("simulate-noisy", 120.0, 0.25),
    ConnectorWorkload("connector-train", 200, 0.1),
)}


class Checker:
    """Runs passes, checks each one, and keeps the attempted/failed tally."""

    def __init__(self, pin) -> None:
        self.pin = pin
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def fail(self, problems) -> None:
        self.failed += 1
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    def run(self, workload, state):
        self.attempted += 1
        gc.collect()  # start every pass from a heap without the last pass's garbage
        try:
            result = workload.run(state)
        except Exception:
            self.fail([traceback.format_exc()])
            return None
        problems = list(result.failures)
        if self.reference is None:
            self.reference = result.digest
        elif result.digest != self.reference:
            problems.append(f"output differs from this run's first pass: {result.digest}")
        if self.pin is not None and result.digest != self.pin:
            problems.append(f"output {result.digest} differs from the pinned {self.pin}")
        if problems:
            self.fail(problems)
        return result

    def measure(self, workload, state, seconds: float, between) -> list:
        """Passes until less than half a pass's time is left. ``between``
        runs before the first pass and after each one, outside their timing,
        and returns the machine speed; a pass's speed is the mean of the two
        around it."""
        passes = []
        deadline = time.perf_counter() + seconds
        before = between()
        while True:
            result = self.run(workload, state)
            if result is None:
                return passes
            after = between()
            result.speed = (before + after) / 2
            before = after
            passes.append(result)
            if deadline - time.perf_counter() < statistics.median(p.wall_s for p in passes) / 2:
                return passes


_CAL_RNG = np.random.default_rng(0)
_CAL_W = _CAL_RNG.standard_normal((64, 64)) / 8
_CAL_ROWS = _CAL_RNG.standard_normal((1024, 64))


def _calibration_unit() -> float:
    """Fixed work shaped like a streamcache frame: small matrix-vector
    products, interpreter arithmetic, a dict, and one (1025, 64) copy."""
    x = _CAL_ROWS[0]
    acc = 0.0
    for i in range(16):
        y = x @ _CAL_W
        x = y / (1.0 + np.abs(y).sum())
        rec = {"i": i, "v": float(x[i])}
        acc += sum((j * i) % 7 for j in range(20)) + rec["v"]
    return acc + float(np.vstack([_CAL_ROWS, x[None, :]])[-1, 0])


def machine_speed() -> float:
    """The machine's current speed as a share of the reference machine's,
    from running the calibration kernel for ``SPEED_SAMPLE_S``.

    The reference machine's host changed speed by up to 1.7x for seconds to
    minutes at a time, moving every timing with it; timings divided by the
    speed around them read as on the reference machine.
    """
    units = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < SPEED_SAMPLE_S:
        _calibration_unit()
        units += 1
    return units / elapsed / REFERENCE_UNITS_PER_S


def blas_threads() -> str:
    """OpenBLAS thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_note() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads={blas_threads()} "
            f"machine={platform.machine()}")


def percentile(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def latency_percentiles(passes: list, qs) -> list:
    """Percentiles of every frame latency of the run, in microseconds, each
    scaled to the reference speed by its pass's speed."""
    samples = np.concatenate([np.asarray(p.latencies_ns) * (p.speed / 1e3) for p in passes])
    print(f"  frame latency over {samples.size} samples in {len(passes)} passes")
    return [float(v) for v in np.percentile(samples, qs)]


def throughput(p: Pass) -> float:
    """Frames per second at the reference speed."""
    return p.ops / p.wall_s / p.speed


def end_to_end(setups: list, passes: list) -> dict:
    """``setups`` holds (seconds, machine speed) pairs. A time measured while
    the machine ran at ``speed`` times the reference would take ``speed``
    times as long on the reference."""
    p50, p95 = latency_percentiles(passes, [50, 95])
    print(f"  as measured: setup_s {statistics.median(t for t, _ in setups):.6g}, "
          f"frames_per_s {statistics.median(p.ops / p.wall_s for p in passes):.6g}, "
          f"machine speed {statistics.median(s for _, s in setups):.4f}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(t * speed for t, speed in setups), "s"),
        "frames_per_s": (statistics.median(map(throughput, passes)), "1/s"),
        "frame_us_p50": (p50, "us"),
        "frame_us_p95": (p95, "us"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(agg: dict, traced: list, plain: list, probe: dict, workload) -> dict:
    """Per-pass totals and per-call percentiles from the traced passes."""
    spans, counts = agg["spans"], agg["counts"]
    n = len(traced)

    def calls(name):
        return spans[name]["calls"] / n

    def self_s(*names):
        return sum(spans[name]["self_s"] for name in names) / n

    def call_us(name, q=50):
        return percentile(spans[name]["us"], q)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "attention.append_calls": (calls("attention.append"), "count"),
        "attention.append_self_s": (self_s("attention.append"), "s"),
        "attention.append_us_p50": (call_us("attention.append"), "us"),
        "attention.append_us_p99": (call_us("attention.append", 99), "us"),
        "attention.evict_calls": (calls("attention.evict"), "count"),
        "attention.evict_rows": (counts["attention.evict_rows"] / n, "count"),
        "attention.evict_self_s": (self_s("attention.evict"), "s"),
        "attention.evict_us_p50": (call_us("attention.evict"), "us"),
        "attention.flops": (traced[0].flops, "flop"),
        "cache.entry_calls": (calls("cache.entry"), "count"),
        "cache.entry_self_s": (self_s("cache.entry"), "s"),
        "cache.exit_short_calls": (calls("cache.exit_short"), "count"),
        "cache.exit_short_self_s": (self_s("cache.exit_short"), "s"),
        "cache.exit_short_evicted": (counts["cache.exit_short_evicted"] / n, "count"),
        "cache.exit_short_useful_ratio": (ratio(counts["cache.exit_short_useful"],
                                                spans["cache.exit_short"]["calls"]), "ratio"),
        "cache.exit_long_calls": (calls("cache.exit_long"), "count"),
        "cache.exit_long_self_s": (self_s("cache.exit_long"), "s"),
        "cache.exit_long_groups": (counts["cache.exit_long_groups"] / n, "count"),
        "verbalize.should_calls": (calls("verbalize.should"), "count"),
        "verbalize.verbalize_calls": (calls("verbalize.verbalize"), "count"),
        "verbalize.suppression_ratio": (ratio(counts["verbalize.suppressed"],
                                              spans["verbalize.should"]["calls"]), "ratio"),
        "verbalize.text_tokens": (counts["verbalize.text_tokens"] / n, "count"),
        "verbalize.self_s": (self_s("verbalize.should", "verbalize.verbalize"), "s"),
        "harness.generate_stream_s": (call_us("harness.generate_stream") / 1e6, "s"),
        "harness.run_strategy_self_s": (self_s("harness.run_strategy"), "s"),
        "harness.predict_self_s": (self_s("harness.predict"), "s"),
        "config.load_s": (call_us("config.load") / 1e6, "s"),
        "traceio.write_trace_csv_s": (self_s("traceio.write_trace_csv"), "s"),
        "traceio.write_events_jsonl_s": (self_s("traceio.write_events_jsonl"), "s"),
        "traceio.summarize_s": (self_s("traceio.summarize"), "s"),
        "traceio.bytes_written": (traced[0].extra.get("bytes_written", 0), "B"),
        "cli.simulate_s": (call_us("cli.simulate") / 1e6, "s"),
        "cli.pool_s": (call_us("cli.pool") / 1e6, "s"),
        "connector.value_and_grads_calls": (calls("connector.value_and_grads"), "count"),
        "connector.value_and_grads_us_p50": (call_us("connector.value_and_grads"), "us"),
        "connector.hungarian_us_p50": (call_us("connector.hungarian"), "us"),
        "connector.losses_us_p50": (call_us("connector.losses"), "us"),
        "connector.final_ho": (traced[0].extra.get("final_ho", 0.0), "loss"),
        "bench.trace_overhead_ratio": (statistics.median(map(throughput, traced))
                                       / statistics.median(map(throughput, plain)), "ratio"),
        "bench.machine_speed": (statistics.median(p.speed for p in traced), "ratio"),
        "bench.pass_s": (sum(p.wall_s for p in traced) / n, "s"),
        "bench.sim_minutes": (workload.sim_minutes, "min"),
    }
    m.update({name: (value, "us" if "_us_" in name else "abs")
              for name, value in probe.items()})
    return m


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    pin = pins.get(workload.name, {}).get(str(seed))
    if pin is None:
        print(f"  no pinned output for seed {seed}: checking invariants and "
              f"pass-to-pass determinism only")
    workload.prepare(seed, work)
    state = workload.setup()
    setups = []

    def between():
        # set up again between passes, so setup_s spans the run like they do
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        speed = machine_speed()
        setups.append((setup_s, speed))
        return speed

    checker = Checker(pin)
    checker.run(workload, state)  # untimed warm-up pass
    if not trace:
        passes = checker.measure(workload, state, seconds, between)
        print(f"  setup_s over {len(setups)} set-ups")
        metrics = end_to_end(setups, passes) if passes else {}
    else:
        import tracing  # imports the package's modules, so only after load_package()
        plain = checker.measure(workload, state, seconds / 2, between)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = checker.measure(workload, state, seconds / 2, between)
        finally:
            tracer.uninstall()
        cfg = sc.config.SimConfig(seed=seed)
        checker.attempted += 1
        try:
            probe, problems = tracing.attention_probe(
                seed, cfg.d, sc.harness.ENGINE_HEADS, sc.harness.ENGINE_LAYERS, cfg.vocab_size)
        except Exception:
            probe, problems = {}, [traceback.format_exc()]
        if problems:
            checker.fail(problems)
        spans_path = WORK / f"spans-{workload.name}.csv"
        print(f"  {tracer.write(spans_path)} spans written to {spans_path}")
        metrics = (per_layer(tracer.aggregate(), traced, plain, probe, workload)
                   if plain and traced and probe else {})
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"machine: {machine_note()}")
    print(f"workload {workload.name} seed {args.seed}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
