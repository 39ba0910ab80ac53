"""The attention engine against ``naive_reference.last_rows``, at the live
sizes and blocks that real runs reach.

``last_rows`` is first pinned to ``full_recompute`` wherever both fit. Then the
engines that ``run_strategy`` builds are observed through a subclass that
checks sampled appends against ``last_rows`` over the engine's live tokens, at
C1's 1e-6 bound.
"""

import numpy as np
import pytest

import streamcache.harness
from streamcache import (AttentionEngine, SimConfig, StrategyKind, TokenFactory,
                         full_recompute, generate_stream, run_strategy)
from streamcache.attention import REL_BIAS_CLIP

from naive_reference import last_rows

D, H, L, V = 32, 4, 2, 64
BOUND = 1e-6  # C1's bound on an append against the oracle


def _positioned(factory, rng, pos):
    tok = factory.visual(pos, rng.standard_normal(D))
    tok.entry_position = pos
    return tok


@pytest.mark.parametrize("trace", range(8))
def test_last_rows_equals_full_recompute_and_engine(trace):
    # prompt tokens at positions 0-3 and content past REL_BIAS_CLIP, so most
    # deltas are clipped and some are not; blocks of 1-8 tokens; random
    # mid-sequence evictions; and an engine of capacity 1, so its slab doubles
    rng = np.random.default_rng(3000 + trace)
    factory = TokenFactory()
    engine = AttentionEngine(D, H, L, V, seed=trace, capacity=1)
    live = []
    pos = 0
    worst_pin = worst_engine = 0.0
    clipped = unclipped = False
    for step in range(40):
        if len(live) > 8 and rng.random() < 0.4:
            picks = set(rng.choice(len(live), size=int(rng.integers(1, 6)),
                                   replace=False).tolist())
            engine.evict([live[i].id for i in picks])
            live = [tok for i, tok in enumerate(live) if i not in picks]
        block = []
        for _ in range(int(rng.integers(1, 9))):
            block.append(_positioned(factory, rng, pos))
            pos += int(rng.integers(1, 120)) if step else 1
        if step == 0:
            pos = REL_BIAS_CLIP + int(rng.integers(0, 300))
        out, _ = engine.append_tokens(block)
        live.extend(block)
        k = len(block)
        want = last_rows(engine.weights, live, k)
        full = full_recompute(engine.weights, live)
        worst_pin = max(worst_pin, float(np.abs(want - full[-k:]).max()))
        worst_engine = max(worst_engine, float(np.abs(out - want).max()))
        # every row, not only the block's: k = n is the whole recompute
        np.testing.assert_allclose(last_rows(engine.weights, live, len(live)), full,
                                   rtol=0, atol=1e-12)
        deltas = np.subtract.outer([t.entry_position for t in block],
                                   [t.entry_position for t in live])
        clipped |= bool((deltas > REL_BIAS_CLIP).any())
        unclipped |= bool(((deltas > 0) & (deltas <= REL_BIAS_CLIP)).any())
    assert clipped and unclipped
    assert engine.nbytes > 64 * (2 * L * D * 8 + 8)  # the slab doubled past 64 slots
    assert worst_pin <= 1e-12
    assert worst_engine <= BOUND


def observe_run(monkeypatch, kind, cfg, duration_s, noise_p=0.0, every=1):
    """Run ``kind`` over a ``duration_s`` stream with its engine observed:
    every ``every``-th append and the first of each block size are checked
    against ``last_rows`` over the engine's live tokens, right after the append
    (an exit later in the frame changes them). Returns the largest error, the
    largest live size checked and the block sizes checked."""
    seen = {"worst": 0.0, "max_live": 0, "blocks": set()}
    class ObservedEngine(streamcache.harness.AttentionEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tokens = {}  # every token appended, by id
            self.calls = 0

        def append_tokens(self, tokens):
            out, logits = super().append_tokens(tokens)
            self.tokens.update((tok.id, tok) for tok in tokens)
            self.calls += 1
            if self.calls % every == 0 or len(tokens) not in seen["blocks"]:
                self.check(out, len(tokens))
            return out, logits

        def check(self, out, k):
            live = [self.tokens[i] for i in self.live_ids()]
            want = last_rows(self.weights, live, k)
            seen["worst"] = max(seen["worst"], float(np.abs(out - want).max()))
            seen["max_live"] = max(seen["max_live"], len(live))
            seen["blocks"].add(k)

    monkeypatch.setattr(streamcache.harness, "AttentionEngine", ObservedEngine)
    run_strategy(kind, generate_stream(cfg, duration_s), cfg, noise_p=noise_p)
    return seen


def test_a1_ten_minutes_matches_last_rows(monkeypatch):
    # every frame token is kept, up to 4 + 2,400 live tokens; of the 2,401
    # appends (the prompt block, then one per frame) every 49th includes the last
    seen = observe_run(monkeypatch, StrategyKind.PROGRESSIVE_VISUAL, SimConfig(), 600.0,
                       every=49)
    assert seen["max_live"] == 2404
    assert seen["worst"] <= BOUND


def test_b_noisy_matches_last_rows(monkeypatch):
    # noisy predictions verbalize often, so exit_long churns the groups
    seen = observe_run(monkeypatch, StrategyKind.INTERLEAVED, SimConfig(), 600.0,
                       noise_p=0.25, every=10)
    assert seen["blocks"] >= {1, 4, 6, 7}  # frames, the prompt and verbalized groups
    assert seen["worst"] <= BOUND


@pytest.mark.parametrize("kind", [StrategyKind.PROGRESSIVE_VISUAL, StrategyKind.INTERLEAVED],
                         ids=lambda k: k.value)
def test_three_tokens_per_frame_matches_last_rows(monkeypatch, kind):
    # a1 makes 961 appends (the prompt block, then one per frame), and every
    # 31st includes the last
    seen = observe_run(monkeypatch, kind, SimConfig(tokens_per_frame=3), 240.0,
                       noise_p=0.25, every=31)
    assert 3 in seen["blocks"]
    if kind is StrategyKind.PROGRESSIVE_VISUAL:
        assert seen["max_live"] == 4 + 960 * 3
    assert seen["worst"] <= BOUND
