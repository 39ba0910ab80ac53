import dataclasses

import numpy as np
import pytest

from streamcache import (OraclePredictor, SimConfig, StrategyAbort, StrategyKind,
                         fit_growth, generate_stream, oracle_predict, run_strategy,
                         spike_ratio, temporal_variance)

from naive_reference import transcribe_interleaved


def small_cfg(**overrides):
    base = dict(fps=4.0, tokens_per_frame=1, d=16, N_S=8, N_L=3, tau=4,
                mean_step_s=8.0, step_s_jitter=2.0, vocab_size=32, seed=13,
                lambda_1=2.0)
    base.update(overrides)
    return SimConfig(**base)


# -- stream generation ------------------------------------------------------

def test_generate_stream_step_count_hour(cfg):
    stream = generate_stream(cfg, 3600.0)
    assert len(stream.steps) == pytest.approx(112, rel=0.2)
    assert len(stream.frames) == 14400


def test_generate_stream_short_duration_single_step(cfg):
    stream = generate_stream(cfg, 2.0)
    assert len(stream.steps) == 1
    assert len(stream.frames) == 8


def test_generate_stream_deterministic(cfg):
    s1 = generate_stream(cfg, 120.0)
    s2 = generate_stream(cfg, 120.0)
    assert [st.step_id for st in s1.steps] == [st.step_id for st in s2.steps]
    np.testing.assert_array_equal(s1.frames[37].feature, s2.frames[37].feature)


def test_generate_stream_frames_cover_steps(cfg):
    stream = generate_stream(cfg, 300.0)
    for frame in stream.frames:
        step = next(s for s in stream.steps if s.start_s <= frame.time_s < s.end_s)
        assert frame.step_id == step.step_id
    assert all(a.end_s == b.start_s for a, b in zip(stream.steps, stream.steps[1:]))


def test_generate_stream_rejects_bad_duration(cfg):
    with pytest.raises(ValueError):
        generate_stream(cfg, 0.0)


@pytest.mark.parametrize("duration", [float("inf"), float("-inf"), float("nan")])
def test_generate_stream_rejects_non_finite_duration(cfg, duration):
    with pytest.raises(ValueError, match="finite"):
        generate_stream(cfg, duration)


# -- oracle predictor -------------------------------------------------------

def test_oracle_noise_zero_always_correct():
    cfg = small_cfg()
    stream = generate_stream(cfg, 60.0)
    predictor = OraclePredictor(stream, 0.0, seed=1)
    assert all(predictor.predict(f) == f.step_id for f in stream.frames)


def test_oracle_noise_one_accuracy_near_uniform(rng):
    classes = list(range(20))
    hits = sum(oracle_predict(7, classes, 1.0, rng) == 7 for _ in range(20000))
    assert hits / 20000 == pytest.approx(1 / 20, abs=0.01)


def test_oracle_noise_tenth_accuracy(rng):
    classes = list(range(20))
    hits = sum(oracle_predict(3, classes, 0.1, rng) == 3 for _ in range(10000))
    assert hits / 10000 == pytest.approx(0.9 + 0.1 / 20, abs=0.01)


def test_oracle_rejects_bad_noise():
    with pytest.raises(ValueError):
        oracle_predict(0, [0, 1], 1.5, np.random.default_rng(0))


# -- strategies -------------------------------------------------------------

def test_interleaved_capacity_invariant():
    cfg = small_cfg()
    stream = generate_stream(cfg, 240.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg, prompt_tokens=3)
    # visual cap + marker/text groups + prompt bounds the live count
    max_group = 1 + int(stream.class_token_counts.max())
    bound = cfg.N_S * cfg.tokens_per_frame + cfg.N_L * max_group + 3
    assert all(r.live_token_count <= bound for r in trace.rows)


def test_progressive_grows_affinely():
    cfg = small_cfg()
    stream = generate_stream(cfg, 120.0)
    trace = run_strategy(StrategyKind.PROGRESSIVE_VISUAL, stream, cfg, prompt_tokens=2)
    live = trace.live_series()
    assert live[-1] == 2 + len(stream.frames) * cfg.tokens_per_frame
    diffs = np.diff(live)
    assert np.all(diffs == cfg.tokens_per_frame)


def test_tokens_per_frame_scales_visual_budget():
    cfg = small_cfg(tokens_per_frame=3)
    stream = generate_stream(cfg, 120.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg, prompt_tokens=0)
    visual_cap = cfg.N_S * cfg.tokens_per_frame
    max_group = 1 + int(stream.class_token_counts.max())
    assert max(r.live_token_count for r in trace.rows) <= visual_cap + cfg.N_L * max_group


def test_traces_deterministic():
    cfg = small_cfg()
    stream = generate_stream(cfg, 120.0)
    t1 = run_strategy(StrategyKind.VERBALIZED_SEPARATE, stream, cfg, noise_p=0.2)
    t2 = run_strategy(StrategyKind.VERBALIZED_SEPARATE, stream, cfg, noise_p=0.2)
    r1 = [(r.frame, r.live_token_count, r.append_flops, r.extra_recompute_flops,
           r.predicted_step_id, r.verbalization_event) for r in t1.rows]
    r2 = [(r.frame, r.live_token_count, r.append_flops, r.extra_recompute_flops,
           r.predicted_step_id, r.verbalization_event) for r in t2.rows]
    assert r1 == r2


def test_prediction_stream_shared_across_strategies():
    cfg = small_cfg()
    stream = generate_stream(cfg, 120.0)
    preds = {}
    for kind in StrategyKind:
        trace = run_strategy(kind, stream, cfg, noise_p=0.3)
        preds[kind] = [r.predicted_step_id for r in trace.rows]
    assert preds[StrategyKind.PROGRESSIVE_VISUAL] == preds[StrategyKind.INTERLEAVED]
    assert preds[StrategyKind.VERBALIZED_SEPARATE] == preds[StrategyKind.INTERLEAVED]


def test_separate_strategy_charges_recompute_on_events():
    cfg = small_cfg()
    stream = generate_stream(cfg, 240.0)
    trace = run_strategy(StrategyKind.VERBALIZED_SEPARATE, stream, cfg)
    for row in trace.rows:
        assert (row.extra_recompute_flops > 0) == row.verbalization_event
    assert sum(r.verbalization_event for r in trace.rows) >= len(stream.steps) - 1


def test_interleaved_keeps_prediction_path_flat():
    cfg = small_cfg()
    stream = generate_stream(cfg, 240.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg)
    assert all(r.extra_recompute_flops == 0 for r in trace.rows)
    events = [r for r in trace.rows if r.verbalization_event]
    assert events and all(r.text_entry_flops > 0 for r in events)


def test_memory_cap_aborts_with_truncation_point():
    cfg = small_cfg()
    stream = generate_stream(cfg, 120.0)
    cap = 50
    with pytest.raises(StrategyAbort) as excinfo:
        run_strategy(StrategyKind.PROGRESSIVE_VISUAL, stream, cfg,
                     prompt_tokens=2, live_token_cap=cap)
    trace = excinfo.value.trace
    assert trace.truncated_at == cap - 2  # prompt + (frame+1) tokens > cap
    assert trace.rows[-1].live_token_count == cap + 1


def test_with_engine_false_runs_symbolically():
    cfg = small_cfg()
    stream = generate_stream(cfg, 60.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg, with_engine=False)
    assert trace.engine_total_flops == 0
    assert all(r.append_flops == 0 for r in trace.rows)
    assert len(trace.cache_events) > 0


def test_trace_one_row_per_frame_and_budget_consistency():
    # with a clean predictor and runs much longer than tau, every prediction
    # run verbalizes exactly once, so traced text tokens match the grouped
    # prediction arithmetic
    cfg = small_cfg()
    stream = generate_stream(cfg, 300.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg)
    assert len(trace.rows) == len(stream.frames)
    from streamcache import group_consecutive
    groups = group_consecutive([(r.frame, r.predicted_step_id) for r in trace.rows])
    events = sum(r.verbalization_event for r in trace.rows)
    assert events == len(groups)
    expected_entries = sum(1 + int(stream.class_token_counts[g.step_id])
                           for g in groups)
    entered = sum(len(e.token_ids) for e in trace.cache_events
                  if e.op == "entry" and e.kind in ("text", "long_term_marker"))
    assert entered == expected_entries


# -- literal pseudocode differential ---------------------------------------

@pytest.mark.parametrize("seed,noise,tau,n_l", [
    (1, 0.0, 4, 3), (2, 0.2, 1, 0), (3, 0.5, 8, 2), (4, 0.1, 0, 1),
])
def test_interleaved_matches_literal_transcription(seed, noise, tau, n_l):
    cfg = small_cfg(seed=seed, tau=tau, N_L=n_l)
    stream = generate_stream(cfg, 90.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg, noise_p=noise,
                         prompt_tokens=2, with_engine=False)
    got = [(e.op, tuple(e.token_ids)) for e in trace.cache_events]
    want_events, want_live = transcribe_interleaved(stream, cfg, noise, prompt_tokens=2)
    assert got == want_events


# -- growth fitting ---------------------------------------------------------

def test_fit_growth_classes():
    frames = np.arange(1, 2001, dtype=np.float64)
    assert fit_growth(4 + frames).growth_class == "linear"
    assert fit_growth(10 * np.sqrt(frames)).growth_class == "sublinear"
    flat = np.full(2000, 80.0)
    flat[:100] = np.linspace(4, 80, 100)
    assert fit_growth(flat).growth_class == "bounded"
    assert fit_growth(np.full(500, 7.0)).growth_class == "bounded"


def test_fit_growth_linear_exponent_close_to_one():
    frames = np.arange(1, 5001, dtype=np.float64)
    fit = fit_growth(3 + 2 * frames)
    assert fit.growth_class == "linear"
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    assert fit.r2 >= 0.999


def test_fit_growth_requires_min_frames():
    with pytest.raises(ValueError):
        fit_growth(np.arange(50, dtype=np.float64))


# -- temporal variance ------------------------------------------------------

def test_temporal_variance_zero_noise(cfg):
    stream = generate_stream(cfg, 600.0, feature_noise=0.0)
    cls = stream.steps[0].step_id
    assert temporal_variance(stream, cls) == pytest.approx(0.0, abs=1e-12)


def test_temporal_variance_unit_noise_near_one(cfg):
    stream = generate_stream(cfg, 1200.0, feature_noise=1.0)
    cls = max((s.step_id for s in stream.steps),
              key=lambda c: sum(s.step_id == c for s in stream.steps))
    assert temporal_variance(stream, cls) == pytest.approx(1.0, rel=0.1)


def test_temporal_variance_orders_by_noise():
    cfg = small_cfg(mean_step_s=16.0)
    stream = generate_stream(cfg, 1200.0, class_noise={c: 0.1 for c in range(10)}
                             | {c: 0.5 for c in range(10, 20)})
    lo = [c for c in range(10) if sum(f.step_id == c for f in stream.frames) >= 2]
    hi = [c for c in range(10, 20) if sum(f.step_id == c for f in stream.frames) >= 2]
    v_lo = np.mean([temporal_variance(stream, c) for c in lo])
    v_hi = np.mean([temporal_variance(stream, c) for c in hi])
    assert v_hi > v_lo


def test_temporal_variance_rejects_singleton(cfg):
    stream = generate_stream(cfg, 600.0)
    missing = max(f.step_id for f in stream.frames) + 1
    with pytest.raises(ValueError):
        temporal_variance(stream, missing)
