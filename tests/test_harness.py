import collections
import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamcache
from streamcache import (OraclePredictor, SimConfig, StrategyAbort, StrategyKind,
                         append_flop_cost, fit_growth, generate_stream,
                         recompute_flop_cost, run_strategy, spike_ratio)
from streamcache.harness import (ENGINE_LAYERS, MAX_FRAMES, affine_fit, frame_count,
                                 live_token_bound)

import naive_reference
from naive_reference import transcribe_interleaved


def small_cfg(**overrides):
    base = dict(fps=4.0, tokens_per_frame=1, d=16, N_S=8, N_L=3, tau=4,
                mean_step_s=8.0, step_s_jitter=2.0, vocab_size=32, seed=13,
                lambda_1=2.0)
    base.update(overrides)
    return SimConfig(**base)


# -- stream generation ------------------------------------------------------

def step_runs(stream):
    """(class id, frame count) of each run of frames that share a step id:
    adjacent steps always change class, so each run is one step."""
    return [(c, len(list(run)))
            for c, run in itertools.groupby(f.step_id for f in stream.frames)]


def test_generate_stream_step_count_hour(cfg):
    stream = generate_stream(cfg, 3600.0)
    assert len(step_runs(stream)) == pytest.approx(112, rel=0.2)
    assert len(stream.frames) == 14400


def test_generate_stream_short_duration_single_step(cfg):
    stream = generate_stream(cfg, 2.0)
    assert len(step_runs(stream)) == 1
    assert len(stream.frames) == 8


def test_generate_stream_deterministic(cfg):
    s1 = generate_stream(cfg, 120.0)
    s2 = generate_stream(cfg, 120.0)
    assert step_runs(s1) == step_runs(s2)
    np.testing.assert_array_equal(s1.frames[37].feature, s2.frames[37].feature)


def test_generate_stream_frames_cover_steps(cfg):
    stream = generate_stream(cfg, 300.0)
    assert [f.time_s for f in stream.frames] == [i / cfg.fps for i in range(1200)]
    runs = step_runs(stream)
    assert all(0 <= c < len(stream.class_token_counts) for c, _ in runs)
    # every step but the clamped last one lasts a normal draw around mean_step_s
    for _, n in runs[:-1]:
        assert abs(n / cfg.fps - cfg.mean_step_s) <= 5 * cfg.step_s_jitter
    # each class is described by 5 or 6 text tokens
    assert set(stream.class_token_counts.tolist()) <= {5, 6}


def test_generate_stream_rejects_bad_duration(cfg):
    with pytest.raises(ValueError):
        generate_stream(cfg, 0.0)


@pytest.mark.parametrize("duration", [float("inf"), float("-inf"), float("nan")])
def test_generate_stream_rejects_non_finite_duration(cfg, duration):
    with pytest.raises(ValueError, match="finite"):
        generate_stream(cfg, duration)


def _stream_bytes(stream):
    """Every frame's (index, time_s, step_id) with their types, then the bytes
    of all the frame features in order, then the class token counts."""
    labels = [(f.index, f.time_s, f.step_id) for f in stream.frames]
    types = {tuple(map(type, label)) for label in labels}
    features = b"".join(f.feature.tobytes() for f in stream.frames)
    return labels, types, features, stream.class_token_counts.tobytes()


@pytest.mark.parametrize("n_classes", [20, 6])
@pytest.mark.parametrize("fps", [4.0, 2.5, 30.0])
@pytest.mark.parametrize("seed", range(4))
def test_generate_stream_matches_frame_loop(seed, fps, n_classes):
    for duration in (0.75, 2.0, 33.3, 120.0, 1800.0):
        cfg = SimConfig(seed=seed, fps=fps)
        assert _stream_bytes(generate_stream(cfg, duration, n_classes)) == \
            _stream_bytes(naive_reference.generate_stream(cfg, duration, n_classes))


def test_generate_stream_matches_frame_loop_on_step_ends():
    # steps of exactly 2 s end on frame times: such a frame opens the next step
    cfg = SimConfig(seed=3, step_s_jitter=0.0, mean_step_s=2.0)
    stream = generate_stream(cfg, 30.0)
    starts = [b.time_s for a, b in zip(stream.frames, stream.frames[1:])
              if a.step_id != b.step_id]
    assert starts == [2.0 * i for i in range(1, 15)]
    assert _stream_bytes(stream) == _stream_bytes(naive_reference.generate_stream(cfg, 30.0))


def test_frame_count_bound():
    assert frame_count(SimConfig(), 3600.0) == 14400
    assert frame_count(SimConfig(fps=1.0), float(MAX_FRAMES)) == MAX_FRAMES
    for fps, duration in [(1.0, MAX_FRAMES + 1.0), (1e9, 1200.0), (4.0, 1e12),
                          (1e300, 1e300)]:  # the last product overflows to inf
        with pytest.raises(ValueError, match="MAX_FRAMES"):
            frame_count(SimConfig(fps=fps), duration)


# -- oracle predictor -------------------------------------------------------

def test_oracle_noise_zero_always_correct():
    cfg = small_cfg()
    stream = generate_stream(cfg, 60.0)
    predictor = OraclePredictor(stream, 0.0, seed=1)
    assert all(predictor.predict(f) == f.step_id for f in stream.frames)


def test_oracle_noise_one_accuracy_near_uniform():
    stream = generate_stream(small_cfg(), 10.0)
    assert len(stream.class_token_counts) == 20
    frame = stream.frames[0]
    predictor = OraclePredictor(stream, 1.0, seed=0)
    hits = sum(predictor.predict(frame) == frame.step_id for _ in range(20000))
    assert hits / 20000 == pytest.approx(1 / 20, abs=0.01)


def test_oracle_noise_tenth_accuracy():
    stream = generate_stream(small_cfg(), 10.0)
    frame = stream.frames[0]
    predictor = OraclePredictor(stream, 0.1, seed=0)
    hits = sum(predictor.predict(frame) == frame.step_id for _ in range(10000))
    assert hits / 10000 == pytest.approx(0.9 + 0.1 / 20, abs=0.01)


def test_oracle_rejects_bad_noise():
    stream = generate_stream(small_cfg(), 10.0)
    with pytest.raises(ValueError):
        OraclePredictor(stream, 1.5, seed=0)


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
    assert sum(r.verbalization_event for r in trace.rows) >= len(step_runs(stream)) - 1


@pytest.mark.parametrize("tokens_per_frame", [1, 3])
@pytest.mark.parametrize("prompt_tokens", [0, 2])
def test_separate_strategy_charge_replays_from_event_log(prompt_tokens, tokens_per_frame):
    # a2 runs b's cache and books each verbalized group's append, plus a
    # re-encode of the prompt and visual tokens over the markers and text,
    # as conversion recompute
    cfg = small_cfg(tokens_per_frame=tokens_per_frame)
    stream = generate_stream(cfg, 120.0)
    a2, b = (run_strategy(kind, stream, cfg, noise_p=0.25, prompt_tokens=prompt_tokens)
             for kind in (StrategyKind.VERBALIZED_SEPARATE, StrategyKind.INTERLEAVED))
    assert [e.to_dict() for e in a2.cache_events] == [e.to_dict() for e in b.cache_events]

    kind_of = {}
    live = collections.Counter()
    group_flops = 0
    charges = []
    for event in a2.cache_events:
        if event.op == "entry":
            (tok_id,) = event.token_ids
            kind_of[tok_id] = event.kind
            live[event.kind] += 1
            cost = append_flop_cost(sum(live.values()), cfg.d, ENGINE_LAYERS,
                                    cfg.vocab_size)
            if event.kind == "long_term_marker":
                group_flops = cost
            elif event.kind == "text":
                group_flops += cost
            continue
        if event.op == "exit_long":
            n_short = live["prompt"] + live["visual_frame"]
            n_long = live["long_term_marker"] + live["text"]
            charges.append(group_flops + recompute_flop_cost(n_short, n_long, cfg.d,
                                                             ENGINE_LAYERS))
        for tok_id in event.token_ids:
            live[kind_of.pop(tok_id)] -= 1

    verbalizing = [r for r in a2.rows if r.verbalization_event]
    assert len(verbalizing) == len(charges) > 0
    assert [r.extra_recompute_flops for r in verbalizing] == charges
    assert all(r.extra_recompute_flops == 0 for r in a2.rows if not r.verbalization_event)
    assert all(r.text_entry_flops == 0 for r in a2.rows)


def test_only_a1_and_b_build_an_attention_engine(monkeypatch):
    built = []

    class CountingEngine(streamcache.harness.AttentionEngine):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(streamcache.harness, "AttentionEngine", CountingEngine)
    cfg = small_cfg()
    stream = generate_stream(cfg, 60.0)
    counts = {}
    for with_engine in (True, False):
        for kind in StrategyKind:
            built.clear()
            run_strategy(kind, stream, cfg, noise_p=0.25, with_engine=with_engine)
            counts[kind.value, with_engine] = len(built)
    assert counts == {("a1", True): 1, ("a2", True): 0, ("b", True): 1,
                      ("a1", False): 0, ("a2", False): 0, ("b", False): 0}


@pytest.mark.parametrize("prompt_tokens", [0, 4])
@pytest.mark.parametrize("noise", [0.0, 0.25])
@pytest.mark.parametrize("n_s,n_l", [(1, 0), (64, 5)])
@pytest.mark.parametrize("tokens_per_frame", [1, 3])
@pytest.mark.parametrize("kind", [StrategyKind.PROGRESSIVE_VISUAL, StrategyKind.INTERLEAVED],
                         ids=lambda k: k.value)
def test_engine_slab_is_sized_once(monkeypatch, kind, tokens_per_frame, n_s, n_l, noise,
                                   prompt_tokens):
    # the engine is built at its strategy's live-token bound, so no append
    # reallocates the slab, and a1, which never evicts, ends exactly full
    engines, sizes = [], []

    class SizeWatchingEngine(streamcache.harness.AttentionEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)
            sizes.append(self.nbytes)

        def append_tokens(self, tokens):
            out = super().append_tokens(tokens)
            sizes.append(self.nbytes)
            return out

    monkeypatch.setattr(streamcache.harness, "AttentionEngine", SizeWatchingEngine)
    cfg = small_cfg(tokens_per_frame=tokens_per_frame, N_S=n_s, N_L=n_l)
    stream = generate_stream(cfg, 90.0)
    run_strategy(kind, stream, cfg, noise_p=noise, prompt_tokens=prompt_tokens)
    [engine] = engines
    capacity = live_token_bound(kind, cfg, len(stream.frames), prompt_tokens)
    assert set(sizes) == {(2 * ENGINE_LAYERS * cfg.d * 8 + 8) * capacity}
    assert len(sizes) > len(stream.frames)
    if kind is StrategyKind.PROGRESSIVE_VISUAL:
        assert len(engine.live_ids()) == capacity


def test_live_token_bound_is_at_least_one():
    cfg = small_cfg()
    assert live_token_bound(StrategyKind.PROGRESSIVE_VISUAL, cfg, 0, 0) == 1
    assert live_token_bound(StrategyKind.INTERLEAVED, cfg, 0, 0) == 1
    # b's bound counts N_S + 1 frames and N_L + 1 groups of up to 7 tokens
    assert live_token_bound(StrategyKind.INTERLEAVED, cfg, 1000, 4) == 4 + 9 + 4 * 7


@pytest.mark.parametrize("tokens_per_frame", [1, 3])
def test_engine_free_a2_charges_b_engine_flops(tokens_per_frame):
    # a2's closed-form charges equal what b's engine counts, block by block
    cfg = small_cfg(tokens_per_frame=tokens_per_frame)
    stream = generate_stream(cfg, 240.0)
    a2, b = (run_strategy(kind, stream, cfg, noise_p=0.25, prompt_tokens=2)
             for kind in (StrategyKind.VERBALIZED_SEPARATE, StrategyKind.INTERLEAVED))
    assert [r.append_flops for r in a2.rows] == [r.append_flops for r in b.rows]
    assert a2.engine_total_flops == b.engine_total_flops > 0
    verbalizing = [(x, y) for x, y in zip(a2.rows, b.rows) if y.verbalization_event]
    assert verbalizing
    assert all(x.extra_recompute_flops > y.text_entry_flops > 0 for x, y in verbalizing)


def test_engine_count_must_match_the_charged_flops(monkeypatch):
    # a charge that drifts from the engine's own counter fails the run
    cfg = small_cfg()
    stream = generate_stream(cfg, 30.0)
    charge = streamcache.harness.block_flop_cost
    monkeypatch.setattr(streamcache.harness, "block_flop_cost",
                        lambda *args: charge(*args) + 1)
    for kind in (StrategyKind.PROGRESSIVE_VISUAL, StrategyKind.INTERLEAVED):
        with pytest.raises(RuntimeError, match="engine counted"):
            run_strategy(kind, stream, cfg)
    run_strategy(StrategyKind.VERBALIZED_SEPARATE, stream, cfg)  # no engine to disagree


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


@pytest.mark.parametrize("tokens_per_frame", [1, 3])
@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_symbolic_replay_matches_engine_replay(kind, tokens_per_frame):
    # C9 checks the cache mechanics on with_engine=False runs; this ties that
    # mode to the engine run frame by frame
    cfg = small_cfg(tokens_per_frame=tokens_per_frame)
    stream = generate_stream(cfg, 240.0)
    engine, symbolic = (run_strategy(kind, stream, cfg, noise_p=0.25, prompt_tokens=2,
                                     with_engine=with_engine)
                        for with_engine in (True, False))
    events = [[e.to_dict() for e in t.cache_events] for t in (symbolic, engine)]
    assert events[0] == events[1]

    def per_frame(trace):
        return [(r.frame, r.live_token_count, r.predicted_step_id, r.correct,
                 r.verbalization_event) for r in trace.rows]

    assert per_frame(symbolic) == per_frame(engine)
    assert len(engine.rows) == len(stream.frames)


def test_trace_one_row_per_frame_and_budget_consistency():
    # with a clean predictor and runs much longer than tau, every prediction
    # run verbalizes exactly once, so traced text tokens match the grouped
    # prediction arithmetic
    cfg = small_cfg()
    stream = generate_stream(cfg, 300.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg)
    assert len(trace.rows) == len(stream.frames)
    runs = [step for step, _ in itertools.groupby(r.predicted_step_id for r in trace.rows)]
    events = sum(r.verbalization_event for r in trace.rows)
    assert events == len(runs)
    expected_entries = sum(1 + int(stream.class_token_counts[step]) for step in runs)
    entered = sum(len(e.token_ids) for e in trace.cache_events
                  if e.op == "entry" and e.kind in ("text", "long_term_marker"))
    assert entered == expected_entries


def replay_engine_flops(trace):
    """Engine flops and final live size implied by the cache event log: each
    entry appends at the new live size, each exit removes its tokens."""
    cfg = trace.cfg
    total = live = 0
    for event in trace.cache_events:
        if event.op == "entry":
            live += 1
            total += append_flop_cost(live, cfg.d, ENGINE_LAYERS, cfg.vocab_size)
        else:
            live -= len(event.token_ids)
    return total, live


@pytest.mark.parametrize("tokens_per_frame", [1, 3])
@pytest.mark.parametrize("kind", list(StrategyKind))
def test_engine_flops_match_cache_event_replay(kind, tokens_per_frame):
    cfg = small_cfg(tokens_per_frame=tokens_per_frame)
    stream = generate_stream(cfg, 90.0)
    trace = run_strategy(kind, stream, cfg, noise_p=0.25)
    total, live = replay_engine_flops(trace)
    assert trace.engine_total_flops == total > 0
    assert trace.rows[-1].live_token_count == live
    if kind is not StrategyKind.PROGRESSIVE_VISUAL:
        assert any(e.op == "exit_long" and e.token_ids for e in trace.cache_events)


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


def test_affine_fit_matches_least_squares(rng):
    x = rng.uniform(0, 10, 500)
    y = 3.0 - 0.5 * x + rng.standard_normal(500)
    slope, intercept, r2 = affine_fit(x, y)
    want_slope, want_intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(want_slope, rel=1e-12)
    assert intercept == pytest.approx(want_intercept, rel=1e-12)
    assert r2 == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2, rel=1e-12)
    assert affine_fit(x, np.full(500, 2.0)) == (0.0, 2.0, 1.0)


# b's live series over 30 minutes of the default config: its fit is nearly
# flat, so rounding in the fit shows in the digits that summary.json prints
_FIT_SCRIPT = """
from streamcache import SimConfig, StrategyKind, fit_growth, generate_stream, run_strategy
cfg = SimConfig()
trace = run_strategy(StrategyKind.INTERLEAVED, generate_stream(cfg, 1800.0), cfg,
                     with_engine=False)
print(repr(fit_growth(trace)))
"""


def test_fit_growth_does_not_depend_on_blas_kernel():
    outputs = []
    for coretype in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(streamcache.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _FIT_SCRIPT], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
