import numpy as np
import pytest

from streamcache import (AttentionEngine, PositionClock, TokenFactory,
                         append_flop_cost, full_recompute, init_weights,
                         recompute_flop_cost)
from streamcache.attention import REL_BIAS_CLIP

D, H, L, V = 32, 4, 2, 64


def fresh_engine(seed=7):
    return AttentionEngine(D, H, L, V, seed)


def stream_tokens(n, rng, factory=None, clock=None, d=D):
    factory = factory or TokenFactory()
    clock = clock or PositionClock()
    toks = []
    for _ in range(n):
        tok = factory.prompt(rng.standard_normal(d))
        tok.entry_position = clock.next()
        toks.append(tok)
    return toks


def test_init_validation_and_determinism():
    w1 = init_weights(64, 4, 2, 128, seed=7)
    w2 = init_weights(64, 4, 2, 128, seed=7)
    for name in ("w_q", "w_k", "w_v", "w_o", "rel_bias", "w_lm"):
        np.testing.assert_array_equal(getattr(w1, name), getattr(w2, name))
    assert np.abs(w1.w_q).max() <= 1 / np.sqrt(64)
    with pytest.raises(ValueError):
        init_weights(63, 4, 2, 128, seed=7)


def test_first_token_attends_only_to_itself(rng):
    eng = fresh_engine()
    tok = stream_tokens(1, rng)[0]
    out, logits = eng.append_token(tok)
    oracle = full_recompute(eng.weights, [tok])
    np.testing.assert_allclose(out, oracle[0], atol=1e-12)
    # all of each head's weight on the token itself: every layer adds its own value
    want = tok.embedding
    for layer in range(L):
        want = want + tok.embedding @ eng.weights.w_v[layer] @ eng.weights.w_o[layer]
    np.testing.assert_allclose(out, want, atol=1e-12)
    assert logits.shape == (V,)
    np.testing.assert_allclose(logits, out @ eng.weights.w_lm, atol=1e-12)


def test_duplicate_and_position_errors(rng):
    eng = fresh_engine()
    factory, clock = TokenFactory(), PositionClock()
    tok = stream_tokens(1, rng, factory, clock)[0]
    eng.append_token(tok)
    with pytest.raises(ValueError, match="already"):
        eng.append_token(tok)
    stale = factory.prompt(rng.standard_normal(D))
    stale.entry_position = 0  # not beyond the stored position
    with pytest.raises(ValueError, match="position"):
        eng.append_token(stale)


def test_append_flop_accounting_exact(rng):
    eng = fresh_engine()
    toks = stream_tokens(3, rng)
    assert eng.flop_counter == 0
    eng.append_token(toks[0])
    assert eng.flop_counter == append_flop_cost(1, D, L, V)
    before = eng.flop_counter
    eng.append_token(toks[1])
    assert eng.flop_counter - before == append_flop_cost(2, D, L, V)
    # monotone non-decreasing across ops, eviction free
    before = eng.flop_counter
    eng.evict([toks[0].id])
    assert eng.flop_counter == before


def test_attention_cost_scales_with_live_size(rng):
    fixed = L * 4 * D * D + D * V  # projections + output head, N-independent

    def attn_part(n_live):
        eng = fresh_engine()
        toks = stream_tokens(n_live, rng)
        for tok in toks[:-1]:
            eng.append_token(tok)
        before = eng.flop_counter
        eng.append_token(toks[-1])
        return eng.flop_counter - before - fixed

    assert attn_part(100) == 100 * attn_part(1)


def test_flop_monotonicity_over_ops(rng):
    eng = fresh_engine()
    last = 0
    for tok in stream_tokens(100, rng):
        eng.append_token(tok)
        now = eng.flop_counter
        assert now > last
        last = now


def test_incremental_matches_oracle_row_for_row(rng):
    eng = fresh_engine()
    toks = stream_tokens(10, rng)
    incremental = [eng.append_token(tok)[0] for tok in toks]
    oracle = full_recompute(eng.weights, toks)
    np.testing.assert_allclose(np.stack(incremental), oracle, atol=1e-6)


def test_eviction_then_append_matches_survivor_oracle(rng):
    eng = fresh_engine()
    toks = stream_tokens(8, rng)
    for tok in toks[:-1]:
        eng.append_token(tok)
    eng.evict([toks[2].id, toks[5].id])
    out, _ = eng.append_token(toks[-1])
    survivors = [t for i, t in enumerate(toks[:-1]) if i not in (2, 5)] + [toks[-1]]
    oracle = full_recompute(eng.weights, survivors)
    np.testing.assert_allclose(out, oracle[-1], atol=1e-6)
    assert eng.live_ids() == tuple(t.id for t in survivors)


def test_evict_validation(rng):
    eng = fresh_engine()
    toks = stream_tokens(3, rng)
    for tok in toks:
        eng.append_token(tok)
    with pytest.raises(KeyError):
        eng.evict([999])
    eng.evict([t.id for t in toks])
    assert len(eng.live_ids()) == 0


def test_full_recompute_requires_position_order(rng):
    weights = fresh_engine().weights
    toks = stream_tokens(4, rng)
    with pytest.raises(ValueError, match="position"):
        full_recompute(weights, [toks[1], toks[0], toks[2], toks[3]])


def test_softmax_rows_and_causal_mask(rng):
    weights = fresh_engine().weights
    toks = stream_tokens(12, rng)
    out = full_recompute(weights, toks)
    # causal mask: no output depends on a later token
    for n in range(1, len(toks)):
        np.testing.assert_allclose(full_recompute(weights, toks[:n]), out[:n], atol=1e-12)
    # softmax rows sum to one: with one embedding everywhere, every key and value
    # is the same, so each output equals the first however its row splits weight
    same = stream_tokens(12, rng)
    for tok in same:
        tok.embedding = same[0].embedding
    out = full_recompute(weights, same)
    np.testing.assert_allclose(out, np.broadcast_to(out[0], out.shape), atol=1e-12)


def test_positions_survive_eviction_bias_unchanged(rng):
    # same survivor set reached with and without an intermediate token:
    # outputs differ unless positions are original, then the direct
    # construction with matching positions agrees
    factory, clock = TokenFactory(), PositionClock()
    toks = stream_tokens(5, rng, factory, clock)
    eng = fresh_engine()
    for tok in toks:
        eng.append_token(tok)
    eng.evict([toks[1].id])
    survivors = [toks[0]] + toks[2:]
    tail = factory.prompt(rng.standard_normal(D))
    tail.entry_position = clock.next()
    out, _ = eng.append_token(tail)
    oracle = full_recompute(eng.weights, survivors + [tail])
    np.testing.assert_allclose(out, oracle[-1], atol=1e-10)
    stored = [t.entry_position for t in survivors]
    assert stored == [0, 2, 3, 4]  # untouched by the eviction


def test_affine_flop_law_r2():
    ns = np.arange(8, 513, 8, dtype=np.float64)
    flops = np.array([append_flop_cost(int(n), D, L, V) for n in ns], dtype=np.float64)
    slope, intercept = np.polyfit(ns, flops, 1)
    pred = slope * ns + intercept
    r2 = 1 - np.sum((flops - pred) ** 2) / np.sum((flops - flops.mean()) ** 2)
    assert r2 >= 0.999
    assert slope == pytest.approx(2 * D * L)


def test_recompute_cost_shape():
    # quadratic in the re-encoded span, linear in the prefix
    base = recompute_flop_cost(10, 0, D, L)
    with_prefix = recompute_flop_cost(10, 7, D, L)
    assert with_prefix - base == L * 2 * D * 10 * 7
    assert recompute_flop_cost(20, 0, D, L) > 2 * base


def positioned(factory, rng, pos, prompt=False):
    emb = rng.standard_normal(D)
    tok = factory.prompt(emb) if prompt else factory.visual(pos, emb)
    tok.entry_position = pos
    return tok


def test_clipped_bias_regime_with_evictions_matches_oracle():
    # real runs pin prompt tokens at positions 0-3 while frames pass position
    # 7000, so most deltas sit beyond REL_BIAS_CLIP; random evictions move
    # tail slots into holes, which must leave every append exact
    content_start = 2000
    assert content_start - 3 > REL_BIAS_CLIP
    worst = 0.0
    for trace in range(30):
        rng = np.random.default_rng(1000 + trace)
        factory = TokenFactory()
        eng = fresh_engine(seed=trace)
        live = [positioned(factory, rng, p, prompt=True) for p in range(4)]
        for tok in live:
            eng.append_token(tok)
        pos = content_start + int(rng.integers(0, 200))
        for _ in range(150):
            if len(live) > 10 and rng.random() < 0.3:
                k = int(rng.integers(1, 8))
                picks = set(rng.choice(np.arange(4, len(live)), size=k, replace=False).tolist())
                eng.evict([live[i].id for i in picks])
                live = [t for i, t in enumerate(live) if i not in picks]
            tok = positioned(factory, rng, pos)
            out, _ = eng.append_token(tok)
            live.append(tok)
            worst = max(worst, float(np.max(np.abs(out - full_recompute(eng.weights, live)[-1]))))
            assert eng.live_ids() == tuple(t.id for t in live)
            pos += int(rng.integers(1, 201))
    assert worst <= 1e-6


def test_evict_duplicate_ids_accepted(rng):
    eng = fresh_engine()
    toks = stream_tokens(6, rng)
    for tok in toks[:-1]:
        eng.append_token(tok)
    eng.evict([toks[1].id, toks[1].id, toks[3].id])
    survivors = [toks[0], toks[2], toks[4]]
    assert eng.live_ids() == tuple(t.id for t in survivors)
    out, _ = eng.append_token(toks[-1])
    oracle = full_recompute(eng.weights, survivors + [toks[-1]])
    np.testing.assert_allclose(out, oracle[-1], atol=1e-6)


def test_evict_unknown_id_changes_nothing(rng):
    toks = stream_tokens(6, rng)
    eng, ref = fresh_engine(), fresh_engine()
    for tok in toks[:-1]:
        eng.append_token(tok)
        ref.append_token(tok)
    with pytest.raises(KeyError, match="999"):
        eng.evict([toks[0].id, 999, toks[4].id])
    assert eng.live_ids() == ref.live_ids()
    np.testing.assert_array_equal(eng.append_token(toks[-1])[0],
                                  ref.append_token(toks[-1])[0])


def test_position_rule_checks_newest_survivor(rng):
    factory = TokenFactory()
    eng = fresh_engine()
    toks = [positioned(factory, rng, p) for p in (0, 10, 20, 30)]
    for tok in toks:
        eng.append_token(tok)
    eng.evict([toks[1].id])  # the newest token (30) moves into the freed slot
    with pytest.raises(ValueError, match="not beyond stored positions"):
        eng.append_token(positioned(factory, rng, 25))
    eng.evict([toks[-1].id])
    between = positioned(factory, rng, 25)  # beyond 20, the newest survivor
    out, _ = eng.append_token(between)
    oracle = full_recompute(eng.weights, [toks[0], toks[2], between])
    np.testing.assert_allclose(out, oracle[-1], atol=1e-6)
    assert eng.live_ids() == (toks[0].id, toks[2].id, between.id)


def test_growth_past_initial_capacity_with_evictions(rng):
    factory, clock = TokenFactory(), PositionClock()
    eng = fresh_engine()
    live = []
    for step in range(300):
        tok = stream_tokens(1, rng, factory, clock)[0]
        out, _ = eng.append_token(tok)
        live.append(tok)
        if step % 25 == 0:
            np.testing.assert_allclose(out, full_recompute(eng.weights, live)[-1],
                                       atol=1e-6)
        if step % 7 == 6:
            picks = set(rng.choice(len(live), size=3, replace=False).tolist())
            eng.evict([live[i].id for i in picks])
            live = [t for i, t in enumerate(live) if i not in picks]
    assert len(eng.live_ids()) == len(live) > 64
    assert eng.live_ids() == tuple(t.id for t in live)
    tail = stream_tokens(1, rng, factory, clock)[0]
    out, _ = eng.append_token(tail)
    np.testing.assert_allclose(out, full_recompute(eng.weights, live + [tail])[-1],
                               atol=1e-6)


def test_slab_growth_past_64_and_128_with_newest_and_last_slot_evictions(rng):
    # blocks grow the one K/V slab past 64 and then 128 slots; between them,
    # evictions take the newest token (the engine must find a new newest), the
    # token in the last slot (nothing moves) or random middle tokens (the last
    # slot's token moves into each hole, so slot order leaves entry order)
    factory, clock = TokenFactory(), PositionClock()
    eng = fresh_engine()
    live = []
    for step in range(64):
        block = stream_tokens(int(rng.integers(1, 7)), rng, factory, clock)
        out, _ = eng.append_tokens(block)
        live.extend(block)
        np.testing.assert_allclose(out, full_recompute(eng.weights, live)[-len(block):],
                                   atol=1e-6)
        if step % 4 == 1:
            victims = [live[-1].id]
        elif step % 4 == 2:
            victims = [eng._ids[-1]]  # the id held in the last live slot
        elif step % 4 == 3:
            picks = rng.choice(len(live) - 1, size=2, replace=False)
            victims = [live[i].id for i in picks]
        else:
            continue
        eng.evict(victims)
        live = [t for t in live if t.id not in victims]
        assert eng.live_ids() == tuple(t.id for t in live)
    assert len(eng.live_ids()) == len(live) > 128


@pytest.mark.parametrize("capacity", [0, -1, 2.5])
def test_capacity_must_be_a_positive_int(capacity):
    with pytest.raises(ValueError, match="capacity"):
        AttentionEngine(D, H, L, V, 7, capacity)


def test_slab_holds_its_capacity_then_doubles(rng):
    # nbytes counts the K/V slab and the position array; it stays put while
    # appends fit, evictions included, and doubles on the first append past
    # the capacity
    per_slot = 2 * L * D * 8 + 8
    assert fresh_engine().nbytes == per_slot * 64
    eng = AttentionEngine(D, H, L, V, 7, capacity=5)
    assert eng.nbytes == per_slot * 5
    factory, clock = TokenFactory(), PositionClock()
    live = stream_tokens(6, rng, factory, clock)
    eng.append_tokens(live[:3])
    eng.evict([live[1].id])
    del live[1]
    eng.append_tokens(live[2:])
    assert len(eng.live_ids()) == 5 and eng.nbytes == per_slot * 5
    tail = stream_tokens(1, rng, factory, clock)[0]
    out, _ = eng.append_token(tail)  # one past the capacity
    live.append(tail)
    assert eng.nbytes == per_slot * 10
    assert eng.live_ids() == tuple(t.id for t in live)
    np.testing.assert_allclose(out, full_recompute(eng.weights, live)[-1], atol=1e-6)


# -- block appends ----------------------------------------------------------

def test_block_rows_match_oracle_with_clipped_bias_and_evictions():
    # prompt block at positions 0-3, content blocks from position 2000 (every
    # prompt delta past REL_BIAS_CLIP), random mid-sequence evictions between
    # blocks; every row of every block must match the survivors' oracle
    worst = 0.0
    for trace in range(12):
        rng = np.random.default_rng(2000 + trace)
        factory = TokenFactory()
        eng = fresh_engine(seed=trace)
        live = [positioned(factory, rng, p, prompt=True) for p in range(4)]
        out, _ = eng.append_tokens(live)
        worst = max(worst, float(np.max(np.abs(out - full_recompute(eng.weights, live)))))
        pos = 2000 + int(rng.integers(0, 200))
        for _ in range(25):
            if len(live) > 10 and rng.random() < 0.5:
                k = int(rng.integers(1, 8))
                picks = set(rng.choice(np.arange(4, len(live)), size=k, replace=False).tolist())
                eng.evict([live[i].id for i in picks])
                live = [t for i, t in enumerate(live) if i not in picks]
            block = []
            for _ in range(int(rng.integers(1, 9))):
                block.append(positioned(factory, rng, pos))
                pos += int(rng.integers(1, 300))
            out, logits = eng.append_tokens(block)
            live.extend(block)
            assert out.shape == (len(block), D) and logits.shape == (len(block), V)
            ref = full_recompute(eng.weights, live)[-len(block):]
            worst = max(worst, float(np.max(np.abs(out - ref))))
            np.testing.assert_allclose(logits, out @ eng.weights.w_lm, atol=1e-12)
            assert eng.live_ids() == tuple(t.id for t in live)
    assert worst <= 1e-6


def test_block_equals_single_appends_and_charges_their_flops(rng):
    toks = stream_tokens(40, rng)
    blocked, single = fresh_engine(), fresh_engine()
    blocked.append_tokens(toks[:30])
    for tok in toks[:30]:
        single.append_token(tok)
    for eng in (blocked, single):
        eng.evict([toks[3].id, toks[17].id])
    n = len(blocked.live_ids())
    before = blocked.flop_counter
    out, logits = blocked.append_tokens(toks[30:])
    assert blocked.flop_counter - before == sum(
        append_flop_cost(n + i, D, L, V) for i in range(1, 11))
    rows = [single.append_token(tok) for tok in toks[30:]]
    np.testing.assert_allclose(out, np.stack([r[0] for r in rows]), atol=1e-10)
    np.testing.assert_allclose(logits, np.stack([r[1] for r in rows]), atol=1e-10)
    assert blocked.flop_counter == single.flop_counter
    assert blocked.live_ids() == single.live_ids()


def test_block_of_one_is_append_token(rng):
    toks = stream_tokens(6, rng)
    blocked, single = fresh_engine(), fresh_engine()
    for tok in toks:
        out, logits = blocked.append_tokens([tok])
        ref_out, ref_logits = single.append_token(tok)
        np.testing.assert_array_equal(out[0], ref_out)
        np.testing.assert_array_equal(logits[0], ref_logits)
        assert blocked.flop_counter == single.flop_counter


def _bad_blocks(factory, rng, live):
    newest = live[-1].entry_position

    def at(*positions):
        return [positioned(factory, rng, p) for p in positions]

    repeated = at(newest + 1)
    wrong_shape = at(newest + 1, newest + 2)
    wrong_shape[-1].embedding = rng.standard_normal(D + 1)
    return {
        "empty": ([], "empty"),
        "repeated id": (repeated + repeated, "already"),
        "live id": (at(newest + 1) + [live[2]], "already"),
        "non-increasing": (at(newest + 5, newest + 5), "not beyond"),
        "not beyond survivors": (at(newest, newest + 1), "not beyond"),
        "embedding shape": (wrong_shape, "embedding shape"),
    }


@pytest.mark.parametrize("case", ["empty", "repeated id", "live id", "non-increasing",
                                  "not beyond survivors", "embedding shape"])
def test_bad_block_raises_and_changes_nothing(rng, case):
    factory = TokenFactory()
    live = [positioned(factory, rng, p) for p in (0, 10, 20, 30, 40)]
    eng, ref = fresh_engine(), fresh_engine()
    for e in (eng, ref):
        e.append_tokens(live)
        e.evict([live[1].id])
    live.pop(1)
    block, message = _bad_blocks(factory, rng, live)[case]
    with pytest.raises(ValueError, match=message):
        eng.append_tokens(block)
    assert eng.live_ids() == ref.live_ids() == tuple(t.id for t in live)
    assert eng.flop_counter == ref.flop_counter
    tail = positioned(factory, rng, 99)
    np.testing.assert_array_equal(eng.append_token(tail)[0], ref.append_token(tail)[0])


def test_full_recompute_requires_entry_positions(rng):
    weights = fresh_engine().weights
    toks = stream_tokens(3, rng)
    toks[1].entry_position = None
    with pytest.raises(ValueError, match="entry positions"):
        full_recompute(weights, toks)
