"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from streamcache import (AttentionEngine, BBox, SimConfig,
                         StrategyKind, TokenFactory, budget_report,
                         full_recompute, generate_stream, giou, giou_batch,
                         fit_growth, grad_check, hungarian_match,
                         init_caption_decoder, init_connector, make_scene,
                         run_strategy, spike_ratio, stage1_value_and_grads,
                         train_toy)

from naive_reference import transcribe
from test_cache import Driver
from test_connector import brute_force_match


@pytest.fixture(scope="module")
def default_cfg():
    return SimConfig()  # N_S=64, N_L=5, fps=4, 32 s steps


@pytest.fixture(scope="module")
def stream_30min(default_cfg):
    return generate_stream(default_cfg, 1800.0)


@pytest.fixture(scope="module")
def traces_30min(default_cfg, stream_30min):
    t0 = time.monotonic()
    traces = {
        "a1": run_strategy(StrategyKind.PROGRESSIVE_VISUAL, stream_30min, default_cfg),
        "a2": run_strategy(StrategyKind.VERBALIZED_SEPARATE, stream_30min, default_cfg),
        "b": run_strategy(StrategyKind.INTERLEAVED, stream_30min, default_cfg),
        "b_unbounded": run_strategy(
            StrategyKind.INTERLEAVED, stream_30min,
            dataclasses.replace(default_cfg, N_L=10 ** 9)),
    }
    traces["elapsed"] = time.monotonic() - t0
    return traces


def test_c1_incremental_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    d, h, layers, vocab = 32, 4, 2, 64
    lengths = ([int(rng.integers(4, 25)) for _ in range(950)]
               + [int(rng.integers(25, 65)) for _ in range(45)]
               + [120, 150, 180, 220, 256])
    assert len(lengths) == 1000
    worst = 0.0
    for trial, n_appends in enumerate(lengths):
        engine = AttentionEngine(d, h, layers, vocab, seed=trial)
        factory, clock = TokenFactory(), itertools.count()
        live = []
        for _ in range(n_appends):
            if live and rng.random() < 0.25:
                count = min(len(live), int(rng.integers(1, 4)))
                idx = sorted(rng.choice(len(live), size=count, replace=False),
                             reverse=True)
                engine.evict([live[i].id for i in idx])
                for i in idx:
                    live.pop(i)
            tok = factory.prompt(rng.standard_normal(d))
            tok.entry_position = next(clock)
            out, _ = engine.append_token(tok)
            live.append(tok)
            oracle = full_recompute(engine.weights, live)
            worst = max(worst, float(np.abs(oracle[-1] - out).max()))
        assert len(live) <= 256
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6, f"max deviation {worst}"
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C1 PASS - 1000 random traces, append == oracle last row "
          f"(max abs diff {worst:.2e}, {elapsed:.1f}s)")


def test_c2_flops_affine_in_live_size():
    d, h, layers, vocab = 64, 4, 2, 128
    engine = AttentionEngine(d, h, layers, vocab, seed=5)
    factory, clock = TokenFactory(), itertools.count()
    rng = np.random.default_rng(5)
    points = []
    for n in range(1, 513):
        tok = factory.prompt(rng.standard_normal(d))
        tok.entry_position = next(clock)
        before = engine.flop_counter
        engine.append_token(tok)
        if 8 <= n <= 512:
            points.append((n, engine.flop_counter - before))
    ns = np.array([p[0] for p in points], dtype=np.float64)
    flops = np.array([p[1] for p in points], dtype=np.float64)
    slope, intercept = np.polyfit(ns, flops, 1)
    pred = slope * ns + intercept
    r2 = 1 - np.sum((flops - pred) ** 2) / np.sum((flops - flops.mean()) ** 2)
    assert r2 >= 0.999
    print(f"\nACCEPTANCE C2 PASS - flops per append affine in live size "
          f"(R^2 = {r2:.6f}, slope {slope:.1f} MACs/token)")


def test_c3_token_budget_reproduction(default_cfg):
    hour = budget_report(default_cfg, 3600.0, tokens_per_step=5.7)
    assert hour.visual_tokens == 14400
    assert abs(hour.verbalized_text_tokens - 630) / 630 <= 0.10
    assert 20.0 <= hour.reduction_ratio <= 25.0
    window = budget_report(default_cfg, 128.0, tokens_per_step=5.7)
    assert abs(window.verbalized_text_tokens - 22.0) / 22.0 <= 0.15
    print(f"\nACCEPTANCE C3 PASS - hour budget {hour.verbalized_text_tokens:.1f} "
          f"text tokens (target ~630), ratio {hour.reduction_ratio:.1f}x, "
          f"128 s window {window.verbalized_text_tokens:.1f} tokens (target ~22)")


def test_c4_growth_classes(traces_30min):
    fit_a1 = fit_growth(traces_30min["a1"].rows.live_token_count)
    fit_unbounded = fit_growth(traces_30min["b_unbounded"].rows.live_token_count)
    fit_bounded = fit_growth(traces_30min["b"].rows.live_token_count)
    assert fit_a1.growth_class == "linear"
    assert abs(fit_a1.exponent - 1.0) <= 0.05
    assert fit_unbounded.growth_class == "sublinear"
    assert fit_unbounded.exponent <= 0.8
    assert fit_bounded.growth_class == "bounded"
    assert traces_30min["elapsed"] < 300.0
    print(f"\nACCEPTANCE C4 PASS - growth classes: a1 linear "
          f"(exp {fit_a1.exponent:.3f}), interleaved unbounded sublinear "
          f"(exp {fit_unbounded.exponent:.3f}), interleaved N_L=5 bounded "
          f"(runs took {traces_30min['elapsed']:.0f}s)")


def test_c5_spike_elimination(traces_30min):
    separate = spike_ratio(traces_30min["a2"])
    interleaved = spike_ratio(traces_30min["b"])
    assert separate >= 5.0
    assert interleaved <= 1.5
    print(f"\nACCEPTANCE C5 PASS - per-frame prediction flops max/median: "
          f"separate caches {separate:.1f} (>= 5), interleaved {interleaved:.2f} (<= 1.5)")


def test_c6_cache_law_property_suite():
    rng = np.random.default_rng(7)
    ops = np.array(["v", "g", "p", "xs", "xl"])
    for trial in range(10000):
        n_s = int(rng.integers(1, 5))
        n_l = int(rng.integers(0, 4))
        drv = Driver(n_s, n_l)
        for op in rng.choice(ops, size=int(rng.integers(4, 25)),
                             p=[0.45, 0.2, 0.05, 0.15, 0.15]):
            if op == "v":
                drv.enter_visual()
            elif op == "g":
                drv.enter_group(int(rng.integers(1, 4)))
            elif op == "p":
                drv.enter_prompt()
            elif op == "xs":
                drv.exit_short()
            else:
                drv.exit_long()
            drv.check_state()
        drv.exit_short()
        drv.exit_long()
        drv.check_state()
        assert drv.real.visual_count <= n_s
        assert drv.real.long_count <= n_l
        assert drv.evicted_visual == drv.entered_visual[: len(drv.evicted_visual)]
        assert drv.evicted_groups == drv.entered_groups[: len(drv.evicted_groups)]
    print("\nACCEPTANCE C6 PASS - 10000 random op traces match the naive "
          "pop-by-index reference and hold capacity/FIFO/order invariants")


def test_c7_matching_oracle_and_giou_suite():
    rng = np.random.default_rng(11)

    def rand_box():
        return BBox(float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.15, 0.85)),
                    float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.05, 0.6)))

    for _ in range(1000):
        n_pred = int(rng.integers(1, 5))
        n_gt = int(rng.integers(0, n_pred + 1))
        pred = [rand_box() for _ in range(n_pred)]
        gt = [rand_box() for _ in range(n_gt)]
        assert hungarian_match(pred, gt) == brute_force_match(pred, gt)[0]

    n = 100_000
    a = np.column_stack([rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n),
                         rng.uniform(0.01, 0.8, n), rng.uniform(0.01, 0.8, n)])
    b = np.column_stack([rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n),
                         rng.uniform(0.01, 0.8, n), rng.uniform(0.01, 0.8, n)])
    ab, ba = giou_batch(a, b), giou_batch(b, a)
    np.testing.assert_array_equal(ab, ba)
    assert np.all(ab > -1.0) and np.all(ab <= 1.0)
    np.testing.assert_array_equal(giou_batch(a, a), np.ones(n))
    print("\nACCEPTANCE C7 PASS - matcher equals exhaustive search on 1000 "
          "instances; GIoU symmetry/identity/range hold on 100000 pairs")


def test_c8_gradient_correctness_and_overfit():
    scene = make_scene(seed=11, side=4, dim=24)
    params = init_connector(feat_dim=24, d=16, m=4, k=2, d_mlp=24, seed=5)
    decoder = init_caption_decoder(16, 64, seed=9)

    def vag(p):
        losses, grads = stage1_value_and_grads(p, decoder, scene, lambda_1=2.0)
        return losses["total"], grads

    err = grad_check(params, vag, eps=1e-4, max_coords=2000,
                     rng=np.random.default_rng(1))
    assert err <= 1e-4

    train_scene = make_scene(seed=11, side=16, dim=48)
    train_params = init_connector(feat_dim=48, d=32, m=8, k=2, d_mlp=48, seed=5)
    train_decoder = init_caption_decoder(32, 64, seed=9)
    result = train_toy(train_params, train_decoder, [train_scene],
                       epochs=200, lr=0.1, lambda_1=2.0)
    ratio = result.final_ho / result.initial_ho
    assert ratio <= 0.10
    print(f"\nACCEPTANCE C8 PASS - grad check max rel err {err:.2e} (<= 1e-4); "
          f"overfit box loss to {100 * ratio:.1f}% of initial in 200 epochs")


def test_c9_streaming_loop_fidelity():
    rng = np.random.default_rng(23)
    for trial in range(100):
        cfg = SimConfig(
            fps=float(rng.choice([2.0, 4.0])),
            tokens_per_frame=int(rng.integers(1, 3)),
            d=8,
            N_S=int(rng.integers(2, 12)),
            N_L=int(rng.integers(0, 4)),
            tau=int(rng.integers(0, 8)),
            mean_step_s=float(rng.uniform(4.0, 16.0)),
            step_s_jitter=float(rng.uniform(0.0, 4.0)),
            vocab_size=32,
            seed=int(rng.integers(0, 10 ** 6)),
            lambda_1=2.0,
        )
        stream = generate_stream(cfg, float(rng.uniform(30.0, 90.0)), n_classes=6)
        noise = float(rng.choice([0.0, 0.1, 0.4]))
        trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg,
                             noise_p=noise, prompt_tokens=3)
        got = [(e.op, tuple(e.token_ids)) for e in trace.cache_events]
        want = transcribe(StrategyKind.INTERLEAVED, stream, cfg, noise, prompt_tokens=3).ops()
        assert got == want, f"divergence on trial {trial}"
    print("\nACCEPTANCE C9 PASS - interleaved op log equals the literal "
          "pseudocode transcription on 100 random streams")
