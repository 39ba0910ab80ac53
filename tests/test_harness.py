import collections
import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamcache
from streamcache import (CacheEvent, OraclePredictor, SimConfig, StrategyAbort, StrategyKind,
                         append_flop_cost, fit_growth, generate_stream,
                         recompute_flop_cost, run_strategy, spike_ratio)
from streamcache.attention import MAX_BLOCK_CELLS
from streamcache.harness import (ENGINE_HEADS, ENGINE_LAYERS, MAX_FRAMES, MAX_LIVE_TOKENS, admit,
                                 affine_fit, frame_count)
from streamcache.traceio import summarize, write_events_jsonl, write_trace_csv

import naive_reference
from naive_reference import transcribe


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
            for c, run in itertools.groupby(stream.step_ids)]


def test_generate_stream_step_count_hour(cfg):
    stream = generate_stream(cfg, 3600.0)
    assert len(step_runs(stream)) == pytest.approx(112, rel=0.2)
    assert len(stream.times) == 14400


def test_generate_stream_short_duration_single_step(cfg):
    stream = generate_stream(cfg, 2.0)
    assert len(step_runs(stream)) == 1
    assert len(stream.times) == 8


def test_generate_stream_deterministic(cfg):
    s1 = generate_stream(cfg, 120.0)
    s2 = generate_stream(cfg, 120.0)
    assert step_runs(s1) == step_runs(s2)
    np.testing.assert_array_equal(np.vstack(list(s1.feature_blocks())),
                                  np.vstack(list(s2.feature_blocks())))


def test_generate_stream_frames_cover_steps(cfg):
    stream = generate_stream(cfg, 300.0)
    assert stream.times == [i / cfg.fps for i in range(1200)]
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
    """Every frame's (time_s, step_id) with their types, then the bytes of
    all the frame features in order, then the class token counts, from one
    walk of the stream."""
    frames = list(stream.walk())
    labels = [(t, c) for t, c, _ in frames]
    types = {tuple(map(type, label)) for label in labels}
    features = b"".join(f.tobytes() for _, _, f in frames)
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
    starts = [t for t, a, b in zip(stream.times[1:], stream.step_ids, stream.step_ids[1:])
              if a != b]
    assert starts == [2.0 * i for i in range(1, 15)]
    assert _stream_bytes(stream) == _stream_bytes(naive_reference.generate_stream(cfg, 30.0))


def test_stream_builds_no_frame_records(cfg):
    # the stream is lists: a walk reads each feature as a row view of its
    # block, not as a per-frame copy
    stream = generate_stream(cfg, 60.0)
    assert len(stream.times) == len(stream.step_ids) == 240
    assert type(stream.times) is list and type(stream.step_ids) is list
    naive = naive_reference.generate_stream(cfg, 60.0)
    for (_, _, feature), want in zip(stream.walk(), naive.features, strict=True):
        assert feature.tobytes() == want.tobytes()
        assert feature.base.shape == (240, cfg.d)


def test_run_strategy_reads_no_frames():
    class FramelessStream(streamcache.SyntheticStream):
        @property
        def frames(self):
            raise AssertionError("run_strategy read stream.frames")

    cfg = small_cfg()
    stream = generate_stream(cfg, 60.0)
    frameless = FramelessStream(stream.times, stream.step_ids, stream.prototypes,
                                stream.noise_state, stream.class_token_counts)
    for kind in StrategyKind:
        want, got = (run_strategy(kind, s, cfg, noise_p=0.25) for s in (stream, frameless))
        assert [dataclasses.replace(r, wall_ns=0) for r in got.rows] == \
            [dataclasses.replace(r, wall_ns=0) for r in want.rows]
    # the per-frame sequences must agree in length: the features follow the
    # step ids, so a stream with one step id too few has one time too many
    short = dataclasses.replace(stream, step_ids=stream.step_ids[:-1])
    for kind in StrategyKind:
        with pytest.raises(ValueError, match="zip"):
            run_strategy(kind, short, cfg)
    with pytest.raises(ValueError, match="zip"):
        list(short.walk())


BLOCK = streamcache.harness.FEATURE_BLOCK_FRAMES


@pytest.mark.parametrize("n_frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_stream_features_match_frame_loop_across_blocks(n_frames):
    cfg = SimConfig(seed=11)
    stream = generate_stream(cfg, n_frames / cfg.fps)
    naive = naive_reference.generate_stream(cfg, n_frames / cfg.fps)
    assert len(stream.times) == n_frames
    assert _stream_bytes(stream) == _stream_bytes(naive)
    assert b"".join(b.tobytes() for b in stream.feature_blocks()) == naive.features.tobytes()


def test_frames_walk_each_feature_block_once(monkeypatch, cfg):
    walks, blocks = [], []
    draw = streamcache.SyntheticStream.feature_blocks

    def counting(self):
        walks.append(len(self.times))
        for block in draw(self):
            blocks.append(len(block))
            yield block

    monkeypatch.setattr(streamcache.SyntheticStream, "feature_blocks", counting)
    n = 2 * BLOCK + 3
    stream = generate_stream(cfg, n / cfg.fps)
    assert (walks, blocks) == ([], [])
    assert len(list(stream.walk())) == n
    assert (walks, blocks) == ([n], [BLOCK, BLOCK, 3])
    # a1 and b walk the features into their engines; a2 builds none and walks none
    for kind, want in (("a1", [n]), ("a2", []), ("b", [n])):
        walks.clear(), blocks.clear()
        run_strategy(StrategyKind(kind), stream, cfg, noise_p=0.25)
        assert (walks, blocks) == (want, [BLOCK, BLOCK, 3] if want else [])


@pytest.mark.parametrize("tokens_per_frame", [1, 3])
@pytest.mark.parametrize("kind", [StrategyKind.PROGRESSIVE_VISUAL, StrategyKind.INTERLEAVED])
def test_engine_receives_the_frame_loop_features(monkeypatch, kind, tokens_per_frame):
    seen = collections.defaultdict(list)  # frame index -> the embeddings its tokens bring

    class RecordingEngine(streamcache.attention.AttentionEngine):
        def append_tokens(self, tokens):
            for tok in tokens:
                if tok.kind is streamcache.TokenKind.VISUAL_FRAME:
                    seen[tok.frame_index].append(tok.embedding.tobytes())
            return super().append_tokens(tokens)

    monkeypatch.setattr(streamcache.harness, "AttentionEngine", RecordingEngine)
    cfg = small_cfg(tokens_per_frame=tokens_per_frame)
    n = 2 * BLOCK + 3
    run_strategy(kind, generate_stream(cfg, n / cfg.fps), cfg, noise_p=0.25)
    naive = naive_reference.generate_stream(cfg, n / cfg.fps)
    assert seen == {i: [row.tobytes()] * tokens_per_frame
                    for i, row in enumerate(naive.features)}


def test_stream_and_b_run_memory_is_bounded(cfg):
    # generating a 20-minute stream and running b over it holds no per-frame
    # feature: 4,800 frames of d = 64 features would be 2.46 MB on their own.
    # The engine copies each embedding into its slab and keeps no token. Its
    # weights and slab and the embedding table, about 1.0 MB that does not
    # grow with the stream, are measured apart; the rest of the run peaks at
    # about 1.1 MB
    def traced_peak(build):
        gc.collect()
        tracemalloc.start()
        try:
            return build(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    capacity = admit(StrategyKind.INTERLEAVED, cfg, 4800)
    _, fixed = traced_peak(lambda: (
        streamcache.AttentionEngine(cfg.d, ENGINE_HEADS, ENGINE_LAYERS, cfg.vocab_size,
                                    cfg.seed, capacity),
        streamcache.EmbeddingTable(cfg.vocab_size, cfg.d, cfg.seed)))
    trace, peak = traced_peak(lambda: run_strategy(StrategyKind.INTERLEAVED,
                                                   generate_stream(cfg, 1200.0), cfg))
    assert len(trace.rows) == 4800
    assert peak - fixed < 2_000_000


# -- trace columns ----------------------------------------------------------

FRAME_RECORD_TYPES = [int, float, int, int, int, int, int, bool, bool, int]


def test_trace_views_read_back_what_the_run_recorded(monkeypatch):
    # the records a run once built, from the values it appends to its rows
    # and from the arguments and results of the cache's public ops
    rows, events = [], []
    TraceRows, InterleavedCache = streamcache.harness.TraceRows, streamcache.InterleavedCache
    append, entry = TraceRows._append, InterleavedCache.entry
    exit_short, exit_long = InterleavedCache.exit_short, InterleavedCache.exit_long

    def recording_append(self, *values):
        rows.append(streamcache.harness.FrameRecord(len(self), *values))
        append(self, *values)

    def recording_entry(self, token, t=0.0):
        entry(self, token, t)
        events.append(CacheEvent(t, "entry", [token.id], token.kind.value))

    def recording_exit_short(self, t=0.0):
        evicted = exit_short(self, t)
        events.append(CacheEvent(t, "exit_short", [tok.id for tok in evicted], "visual_frame"))
        return evicted

    def recording_exit_long(self, t=0.0):
        groups = exit_long(self, t)
        events.append(CacheEvent(t, "exit_long", [tok.id for grp in groups for tok in grp],
                                 "long_term_marker"))
        return groups

    monkeypatch.setattr(TraceRows, "_append", recording_append)
    monkeypatch.setattr(InterleavedCache, "entry", recording_entry)
    monkeypatch.setattr(InterleavedCache, "exit_short", recording_exit_short)
    monkeypatch.setattr(InterleavedCache, "exit_long", recording_exit_long)
    cfg = small_cfg(tokens_per_frame=3)
    stream = generate_stream(cfg, 120.0)
    for kind in StrategyKind:
        rows.clear()
        events.clear()
        trace = run_strategy(kind, stream, cfg, noise_p=0.25, prompt_tokens=2)
        got_rows, got_events = list(trace.rows), list(trace.cache_events)
        assert got_rows == rows and len(rows) == len(stream.times)
        assert got_events == events
        assert {e.op for e in events} == ({"entry"} if kind is StrategyKind.PROGRESSIVE_VISUAL
                                          else {"entry", "exit_short", "exit_long"})
        for got, want in zip(got_rows, rows):
            assert [type(v) for v in dataclasses.astuple(got)] == FRAME_RECORD_TYPES
            assert got.t_s.hex() == want.t_s.hex()
        for got, want in zip(got_events, events):
            assert type(got.t) is float and got.t.hex() == float(want.t).hex()
            assert type(got.token_ids) is list
            assert all(type(tok_id) is int for tok_id in got.token_ids)


def test_trace_views_index_like_read_only_sequences():
    cfg = small_cfg()
    trace = run_strategy(StrategyKind.INTERLEAVED, generate_stream(cfg, 60.0), cfg,
                         noise_p=0.25)
    for view in (trace.rows, trace.cache_events):
        records, n = list(view), len(view)
        assert n == len(records) > 10
        assert view[0] == records[0] and view[5] == records[5]
        assert view[-1] == records[-1] and view[-n] == records[0]
        assert view[3:11:2] == records[3:11:2] and view[::-1] == records[::-1]
        assert view[-3:] == records[-3:] and view[n:] == []
        assert view[3] is not view[3]  # built per read, not kept
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                view[index]
        with pytest.raises(TypeError):
            view["0"]
        with pytest.raises(TypeError):
            view[0] = records[0]
        with pytest.raises(TypeError):
            del view[0]
        assert len(view) == n


def test_runs_and_writers_build_no_records(monkeypatch, tmp_path):
    # a run appends to columns, and the writers and the summary read them:
    # only an index, a slice or an iteration of a view builds records
    built = []

    class CountingRecord(streamcache.harness.FrameRecord):
        def __init__(self, *args):
            built.append("row")
            super().__init__(*args)

    class CountingEvent(CacheEvent):
        def __init__(self, *args):
            built.append("event")
            super().__init__(*args)

    monkeypatch.setattr(streamcache.harness, "FrameRecord", CountingRecord)
    monkeypatch.setattr(streamcache.cache, "CacheEvent", CountingEvent)
    cfg = small_cfg()
    stream = generate_stream(cfg, 60.0)
    traces = [run_strategy(kind, stream, cfg, noise_p=0.25) for kind in StrategyKind]
    for trace in traces:
        write_trace_csv(str(tmp_path / f"trace_{trace.kind.value}.csv"), trace)
        write_events_jsonl(str(tmp_path / f"events_{trace.kind.value}.jsonl"), trace)
        fit_growth(trace.rows.live_token_count)
        spike_ratio(trace)
        trace.accuracy()
    summarize(traces)
    assert built == []
    trace = traces[-1]
    assert trace.rows[7].frame == 7
    assert trace.cache_events[-1].t == stream.times[-1]
    assert [r.frame for r in trace.rows[2:4]] == [2, 3]
    assert built == ["row", "event", "row", "row"]


def test_trace_memory_per_frame_is_bounded(cfg):
    # a 5-minute b run holds its rows and cache events as columns, about
    # 118 B a frame; a FrameRecord per frame and a CacheEvent per event held
    # 536 B a frame
    stream = generate_stream(cfg, 300.0)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == 1200 and len(trace.cache_events) > 2400
    assert held / len(trace.rows) <= 160


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
    assert all(predictor.predict(step) == step for step in stream.step_ids)


def test_oracle_noise_one_accuracy_near_uniform():
    stream = generate_stream(small_cfg(), 10.0)
    assert len(stream.class_token_counts) == 20
    step = stream.step_ids[0]
    predictor = OraclePredictor(stream, 1.0, seed=0)
    hits = sum(predictor.predict(step) == step for _ in range(20000))
    assert hits / 20000 == pytest.approx(1 / 20, abs=0.01)


def test_oracle_noise_tenth_accuracy():
    stream = generate_stream(small_cfg(), 10.0)
    step = stream.step_ids[0]
    predictor = OraclePredictor(stream, 0.1, seed=0)
    hits = sum(predictor.predict(step) == step for _ in range(10000))
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
    live = trace.rows.live_token_count
    assert live[-1] == 2 + len(stream.times) * cfg.tokens_per_frame
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
    assert list(a2.cache_events) == list(b.cache_events)

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
    for kind in StrategyKind:
        built.clear()
        run_strategy(kind, stream, cfg, noise_p=0.25)
        counts[kind.value] = len(built)
    assert counts == {"a1": 1, "a2": 0, "b": 1}


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
    capacity = admit(kind, cfg, len(stream.times), prompt_tokens)
    assert set(sizes) == {(2 * ENGINE_LAYERS * cfg.d * 8 + 8) * capacity}
    assert len(sizes) > len(stream.times)
    if kind is StrategyKind.PROGRESSIVE_VISUAL:
        assert len(engine.live_ids()) == capacity


def test_run_strategy_refuses_a_block_above_the_cell_bound():
    # a1's last frame would append 16,384 tokens over 65,540: admit refuses
    # the stream before the engine is asked for any block
    cfg = SimConfig(tokens_per_frame=16384)
    stream = generate_stream(cfg, 1.0)
    with pytest.raises(ValueError, match="1073807360 attention cells, above MAX_BLOCK_CELLS"):
        run_strategy(StrategyKind.PROGRESSIVE_VISUAL, stream, cfg)


def test_admit_bound_is_at_least_one():
    cfg = small_cfg()
    assert admit(StrategyKind.PROGRESSIVE_VISUAL, cfg, 0, 0) == 1
    assert admit(StrategyKind.INTERLEAVED, cfg, 0, 0) == 1
    # b's bound counts N_S + 1 frames and N_L + 1 groups of up to 7 tokens
    assert admit(StrategyKind.INTERLEAVED, cfg, 1000, 4) == 4 + 9 + 4 * 7


BOUNDED = [StrategyKind.VERBALIZED_SEPARATE, StrategyKind.INTERLEAVED]
# each case reaches its bound exactly with `prompt` prompt tokens and passes
# it by one with a prompt token more (a1's live check, on its visual tokens
# only, with a frame more): (kinds, config, frames, prompt, admitted, message)
ADMIT_CASES = {
    "a1-live": ([StrategyKind.PROGRESSIVE_VISUAL], {}, MAX_LIVE_TOKENS, 4,
                MAX_LIVE_TOKENS + 4,
                "tokens_per_frame 1 over 65537 frames gives a1 65537 live tokens, above "
                "MAX_LIVE_TOKENS = 65536"),
    "a1-cells": ([StrategyKind.PROGRESSIVE_VISUAL], {"tokens_per_frame": 1024}, 4, 0,
                 MAX_BLOCK_CELLS // 1024,
                 "tokens_per_frame 1024 over 4 frames gives a1 a last block of 4195328 "
                 "attention cells, above MAX_BLOCK_CELLS = 4194304"),
    "b-live": (BOUNDED, {"N_S": 10 ** 6, "N_L": 10 ** 6}, 8191, 8, MAX_LIVE_TOKENS,
               "N_S 1000000, N_L 1000000 and tokens_per_frame 1 over 8191 frames give b and "
               "a2 up to 65537 live tokens, above MAX_LIVE_TOKENS = 65536"),
    "b-cells": (BOUNDED, {"tokens_per_frame": 128, "N_S": 1000, "N_L": 1000}, 240, 368,
                MAX_BLOCK_CELLS // 128,
                "N_S 1000, N_L 1000 and tokens_per_frame 128 over 240 frames give b and a2 "
                "a block of up to 4194432 attention cells, above MAX_BLOCK_CELLS = 4194304"),
}


@pytest.mark.parametrize("case", ADMIT_CASES)
def test_admit_refuses_one_past_each_bound(case):
    kinds, overrides, frames, prompt, admitted, message = ADMIT_CASES[case]
    cfg = small_cfg(**overrides)
    past = (frames + 1, prompt) if case == "a1-live" else (frames, prompt + 1)
    for kind in kinds:
        assert admit(kind, cfg, frames, prompt) == admitted
        with pytest.raises(ValueError) as excinfo:
            admit(kind, cfg, *past)
        assert str(excinfo.value) == message


def test_run_strategy_refuses_before_building_an_engine(monkeypatch):
    # 240 frames of 256 tokens: a1's last block, and b's and a2's largest
    # block over their bound, pass MAX_BLOCK_CELLS
    built = []

    class CountingEngine(streamcache.harness.AttentionEngine):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(streamcache.harness, "AttentionEngine", CountingEngine)
    cfg = small_cfg(tokens_per_frame=256, N_S=1000, N_L=1000)
    stream = generate_stream(cfg, 60.0)
    for kind in StrategyKind:
        with pytest.raises(ValueError, match="attention cells, above MAX_BLOCK_CELLS"):
            run_strategy(kind, stream, cfg)
    assert built == []


def test_run_strategy_takes_a_kind_or_its_value():
    # a kind's value selects that kind's loop, and any other string is refused
    cfg = small_cfg()
    stream = generate_stream(cfg, 30.0)
    with pytest.raises(ValueError):
        run_strategy("x", stream, cfg)
    by_value = run_strategy("a1", stream, cfg)
    by_kind = run_strategy(StrategyKind.PROGRESSIVE_VISUAL, stream, cfg)
    assert by_value.kind is StrategyKind.PROGRESSIVE_VISUAL
    for column in streamcache.harness.TraceRows.__slots__:
        if column != "wall_ns":
            assert getattr(by_value.rows, column) == getattr(by_kind.rows, column), column
    assert by_value.engine_total_flops == by_kind.engine_total_flops


def test_run_strategy_refuses_a1_past_the_live_bound_at_once():
    # 1,200 frames of 64 tokens: the engine itself would refuse only at
    # 65,476 live tokens, after minutes of appends
    cfg = SimConfig(tokens_per_frame=64)
    stream = generate_stream(cfg, 300.0)
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as excinfo:
        run_strategy(StrategyKind.PROGRESSIVE_VISUAL, stream, cfg)
    assert time.perf_counter() - t0 < 1.0
    assert str(excinfo.value) == ("tokens_per_frame 64 over 1200 frames gives a1 76800 live "
                                  "tokens, above MAX_LIVE_TOKENS = 65536")


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


@pytest.mark.parametrize("tokens_per_frame", [1, 3])
@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_symbolic_replay_matches_engine_replay(kind, tokens_per_frame):
    # the literal transcription replays the loop on symbols; the run, with
    # its engine for a1 and b, must trace the same frame by frame
    cfg = small_cfg(tokens_per_frame=tokens_per_frame)
    stream = generate_stream(cfg, 240.0)
    trace = run_strategy(kind, stream, cfg, noise_p=0.25, prompt_tokens=2)
    assert_trace_is_transcribed(trace, transcribe(kind, stream, cfg, 0.25, 2))


def test_trace_one_row_per_frame_and_budget_consistency():
    # with a clean predictor and runs much longer than tau, every prediction
    # run verbalizes exactly once, so traced text tokens match the grouped
    # prediction arithmetic
    cfg = small_cfg()
    stream = generate_stream(cfg, 300.0)
    trace = run_strategy(StrategyKind.INTERLEAVED, stream, cfg)
    assert len(trace.rows) == len(stream.times)
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
                         prompt_tokens=2)
    got = [(e.op, tuple(e.token_ids)) for e in trace.cache_events]
    want_events = transcribe(StrategyKind.INTERLEAVED, stream, cfg, noise,
                             prompt_tokens=2).ops()
    assert got == want_events


def assert_trace_is_transcribed(trace, want):
    """Every trace column but ``wall_ns``, every cache event, the engine's
    flop total and the truncation frame equal the literal transcription's."""
    r = trace.rows
    rows = list(zip(r.t_s, r.live_token_count, r.append_flops, r.extra_recompute_flops,
                    r.text_entry_flops, r.predicted_step_id, map(bool, r.correct),
                    map(bool, r.verbalization_event)))
    assert rows == want.rows
    assert [(e.t, e.op, tuple(e.token_ids), e.kind) for e in trace.cache_events] == \
        want.events
    assert trace.engine_total_flops == want.engine_total_flops
    assert trace.truncated_at == want.truncated_at


@st.composite
def stream_runs(draw):
    """A config at d = 8, a frame count up to past one feature block, a noise
    level, a prompt length, a class count and no live-token cap or a small
    one."""
    cfg = small_cfg(fps=draw(st.sampled_from([1.0, 2.0, 4.0])),
                    tokens_per_frame=draw(st.integers(1, 4)), d=8,
                    N_S=draw(st.integers(1, 12)), N_L=draw(st.integers(0, 4)),
                    tau=draw(st.integers(0, 8)), mean_step_s=draw(st.floats(1.0, 16.0)),
                    step_s_jitter=draw(st.floats(0.0, 4.0)),
                    seed=draw(st.integers(0, 10 ** 6)))
    return (cfg, draw(st.integers(1, BLOCK + 40)), draw(st.floats(0.0, 1.0)),
            draw(st.integers(0, 4)), draw(st.integers(2, 20)),
            draw(st.none() | st.integers(0, 120)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(stream_runs())
@example((small_cfg(d=8, tokens_per_frame=2, N_L=0, tau=0), BLOCK + 1, 0.0, 0, 20, None))
@example((small_cfg(d=8, tokens_per_frame=4, N_S=1, tau=0), BLOCK + 40, 1.0, 4, 6, None))
# the default width: a1 passes the cap at frame 28, b and a2 stay below it
@example((small_cfg(d=64, tokens_per_frame=2, N_S=4, tau=2), 120, 0.25, 4, 8, 60))
def test_every_strategy_matches_the_literal_transcription(run):
    cfg, n_frames, noise, prompt_tokens, n_classes, cap = run
    stream = generate_stream(cfg, n_frames / cfg.fps, n_classes)
    assert len(stream.times) == n_frames
    for kind in StrategyKind:
        want = transcribe(kind, stream, cfg, noise, prompt_tokens, cap)
        if want.truncated_at is None:
            trace = run_strategy(kind, stream, cfg, noise_p=noise,
                                 prompt_tokens=prompt_tokens, live_token_cap=cap)
        else:
            with pytest.raises(StrategyAbort) as excinfo:
                run_strategy(kind, stream, cfg, noise_p=noise, prompt_tokens=prompt_tokens,
                             live_token_cap=cap)
            trace = excinfo.value.trace
            assert trace.truncated_at == len(trace.rows) - 1
        assert_trace_is_transcribed(trace, want)


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


# b's live series over 30 minutes of the default config, as a2's run, which
# builds no engine, traces it: its fit is nearly flat, so rounding in the fit
# shows in the digits that summary.json prints
_FIT_SCRIPT = """
from streamcache import SimConfig, StrategyKind, fit_growth, generate_stream, run_strategy
cfg = SimConfig()
trace = run_strategy(StrategyKind.VERBALIZED_SEPARATE, generate_stream(cfg, 1800.0), cfg)
print(repr(fit_growth(trace.rows.live_token_count)))
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
