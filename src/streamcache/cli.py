"""Command-line entry point.

Exit codes: 0 success, 2 config/usage error, 3 runtime abort (memory cap),
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from . import __version__
from .attention import append_flop_cost
from .config import DEFAULT_LAMBDA_1, ConfigError, SimConfig, load_config
from .connector import (GRAD_CHECK_TOL, TrainingDivergence, grad_check, init_caption_decoder,
                        init_connector, load_scene, make_scene, stage1_losses,
                        stage1_value_and_grads)
from .harness import (ENGINE_HEADS, ENGINE_LAYERS, MAX_LIVE_TOKENS, StrategyAbort,
                      StrategyKind, admit, affine_fit, fit_growth, frame_count,
                      generate_stream, run_strategy)
from .traceio import (read_trace_csv, summarize, write_events_jsonl,
                      write_manifest, write_trace_csv)
from .verbalize import DEFAULT_TOKENS_PER_STEP, budget_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4

def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _load_engine_config(path: str) -> SimConfig:
    """``load_config`` plus the engine's own constraint: ``d`` must split
    evenly over its ``ENGINE_HEADS`` heads."""
    cfg = load_config(path)
    if cfg.d % ENGINE_HEADS:
        raise ConfigError(f"d={cfg.d} is not divisible by the engine's {ENGINE_HEADS} heads")
    return cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = _load_engine_config(args.config)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    if args.duration_s <= 0:
        return _fail("--duration-s must be > 0", EXIT_CONFIG)
    if not 0.0 <= args.noise_p <= 1.0:
        return _fail("--noise-p must be in [0, 1]", EXIT_CONFIG)
    if args.mem_cap_bytes is not None and args.mem_cap_bytes <= 0:
        return _fail("--mem-cap-bytes must be > 0", EXIT_CONFIG)
    try:
        n_frames = frame_count(cfg, args.duration_s)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    if not n_frames:
        return _fail(f"--duration-s {args.duration_s} at {cfg.fps} fps gives no frames",
                     EXIT_CONFIG)
    kinds = list(StrategyKind) if args.strategy == "all" else [StrategyKind(args.strategy)]
    try:  # each requested strategy's bounds, then the budget that summary.json reports
        for kind in kinds:
            admit(kind, cfg, n_frames)
        budget_report(cfg, n_frames / cfg.fps)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    stream = generate_stream(cfg, args.duration_s)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create --out-dir {args.out_dir}: {exc}", EXIT_CONFIG)
    cap = None
    if args.mem_cap_bytes is not None:
        cap = max(1, args.mem_cap_bytes // (cfg.d * 8))

    def run(kind):
        return run_strategy(kind, stream, cfg, noise_p=args.noise_p,
                            live_token_cap=cap)

    traces = []
    truncated = False
    # one worker: under the interpreter lock, parallel strategies only trade
    # turns, and the handoffs stretch the frame latencies
    with ThreadPoolExecutor(max_workers=1) as pool:
        for future in [pool.submit(run, kind) for kind in kinds]:
            try:
                traces.append(future.result())
            except StrategyAbort as exc:
                truncated = True
                traces.append(exc.trace)
                print(f"aborted: {exc}", file=sys.stderr)

    artifacts = []
    try:
        for trace in traces:
            for stem, ext, write in (("trace", "csv", write_trace_csv),
                                     ("events", "jsonl", write_events_jsonl)):
                path = os.path.join(args.out_dir, f"{stem}_{trace.kind.value}.{ext}")
                write(path, trace)
                artifacts.append(path)
        path = os.path.join(args.out_dir, "summary.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summarize(traces), fh, indent=2, sort_keys=True, allow_nan=False)
        artifacts.append(path)
        path = os.path.join(args.out_dir, "manifest.json")
        write_manifest(path, cfg, artifacts, __version__)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc}", EXIT_CONFIG)
    _print_json({"out_dir": args.out_dir,
                 "strategies": [t.kind.value for t in traces],
                 "truncated": truncated})
    return EXIT_RUNTIME if truncated else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = _load_engine_config(args.config)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    try:
        start, stop, step = (int(v) for v in args.sweep.split(":"))
    except ValueError:
        return _fail(f"bad --sweep {args.sweep!r}, expected from:to:step", EXIT_CONFIG)
    if start < 1 or step < 1 or stop < start:
        return _fail(f"bad sweep range {args.sweep!r}: need 1 <= from <= to, step >= 1",
                     EXIT_CONFIG)
    if stop > MAX_LIVE_TOKENS:
        return _fail(f"--sweep stop {stop} is above MAX_LIVE_TOKENS = {MAX_LIVE_TOKENS}",
                     EXIT_CONFIG)

    # the flops the engine charges one append at n live tokens, the new one included
    rows = [(n, append_flop_cost(n, cfg.d, ENGINE_LAYERS, cfg.vocab_size))
            for n in range(start, stop + 1, step)]

    out = {"points": [{"live_tokens": n, "append_flops": f} for n, f in rows]}
    if len(rows) >= 2:
        xs = np.array([n for n, _ in rows], dtype=np.float64)
        ys = np.array([f for _, f in rows], dtype=np.float64)
        slope, intercept, r2 = affine_fit(xs, ys)
        out["fit"] = {"slope": slope, "intercept": intercept, "r2": r2}
    else:
        out["fit"] = None  # a single point cannot pin an affine law
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("live_tokens,append_flops\n")
                for n, f in rows:
                    fh.write(f"{n},{f}\n")
        except OSError as exc:
            return _fail(f"cannot write --out {args.out}: {exc}", EXIT_CONFIG)
    _print_json(out)
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.eps <= 0:
        return _fail("--eps must be > 0", EXIT_CONFIG)
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}", EXIT_CONFIG)
    if args.scene:
        try:
            scene = load_scene(args.scene)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            return _fail(f"cannot load scene {args.scene}: {exc}", EXIT_CONFIG)
    else:
        scene = make_scene(args.seed, side=4, dim=24)
    params = init_connector(feat_dim=scene.patches.shape[1], d=16, m=4,
                            k=len(scene.objects) or 2, d_mlp=24, seed=args.seed)
    decoder = init_caption_decoder(16, 64, args.seed)

    def value_and_grad(p):
        losses, grads = stage1_value_and_grads(p, decoder, scene, lambda_1=DEFAULT_LAMBDA_1)
        return losses["total"], grads

    def value(p):
        return stage1_losses(p, decoder, scene, lambda_1=DEFAULT_LAMBDA_1)["total"]

    try:
        # an overflow ends as TrainingDivergence or a non-finite error, not a warning
        with np.errstate(all="ignore"):
            err = grad_check(params, value_and_grad, eps=args.eps,
                             rng=np.random.default_rng(args.seed), value_fn=value)
    except TrainingDivergence as exc:
        return _fail(f"gradient check diverged, TrainingDivergence: {exc}", EXIT_VERIFY)
    if not math.isfinite(err):
        return _fail(f"gradient check gave a non-finite error: {err}", EXIT_VERIFY)
    _print_json({"max_rel_error": err, "eps": args.eps, "pass": bool(err <= GRAD_CHECK_TOL)})
    return EXIT_OK if err <= GRAD_CHECK_TOL else EXIT_VERIFY


def cmd_report(args: argparse.Namespace) -> int:
    if args.budget:
        try:
            cfg = load_config(args.config) if args.config else SimConfig()
        except ConfigError as exc:
            return _fail(str(exc), EXIT_CONFIG)
        try:
            report = budget_report(cfg, args.horizon_s, args.tokens_per_step)
        except (ValueError, OverflowError) as exc:  # bad arguments, or overflowed numbers
            return _fail(str(exc), EXIT_CONFIG)
        _print_json(asdict(report))
        return EXIT_OK
    try:
        per_strategy = read_trace_csv(args.scaling)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read trace: {exc}", EXIT_CONFIG)
    out = {}
    for strategy, cols in sorted(per_strategy.items()):
        try:
            out[strategy] = fit_growth(cols["live_tokens"]).to_dict()
        except ValueError as exc:
            return _fail(str(exc), EXIT_CONFIG)
    _print_json(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamcache",
                                     description="Streaming token-cache simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run caching strategies over a synthetic stream")
    p.add_argument("config")
    p.add_argument("--strategy", choices=["all"] + [kind.value for kind in StrategyKind],
                   default="all")
    p.add_argument("--duration-s", type=_finite_float, default=1200.0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--noise-p", type=_finite_float, default=0.0)
    p.add_argument("--mem-cap-bytes", type=int, default=None,
                   help="abort once live tokens * d * 8 bytes (a proxy; the engine "
                        "holds 2 * layers * d * 8 bytes of K/V per slot, in a slab "
                        "sized once to the strategy's most live tokens) exceeds this")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="sweep live-cache sizes and fit flops-per-append")
    p.add_argument("config")
    p.add_argument("--sweep", default="8:512:8", help="from:to:step live-token sizes")
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check of the connector losses")
    p.add_argument("--scene", default=None,
                   help="scene JSON file (default: a seeded synthetic scene)")
    p.add_argument("--eps", type=_finite_float, default=1e-4)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="print budget arithmetic or growth classification")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", action="store_true")
    group.add_argument("--scaling", default=None, metavar="TRACE_CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--horizon-s", type=_finite_float, default=3600.0)
    p.add_argument("--tokens-per-step", type=_finite_float, default=DEFAULT_TOKENS_PER_STEP)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the config exit code
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
