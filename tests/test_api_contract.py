"""Contract table for the package's public callables.

Each row is a callable from ``streamcache`` (``admit`` from
``streamcache.harness``, which the CLI and ``run_strategy`` call first), the
arguments it gets and the exception it must raise, with a fragment of the
message. A refused call raises before it builds or draws anything.
"""

import math

import numpy as np
import pytest

from streamcache import (AttentionEngine, BBox, ConfigError, Scene, SimConfig, Token, TokenKind,
                         fit_growth, generate_stream, giou_batch, init_connector, init_weights,
                         make_scene, run_strategy)
from streamcache.harness import admit

STREAM = generate_stream(SimConfig(), 4.0)
BOX = [[0.5, 0.5, 0.2, 0.3]]
# d=6 passes SimConfig but no 4-head engine splits it, and a2 charges b's engine
D6 = SimConfig(d=6, vocab_size=32)
D6_STREAM = generate_stream(D6, 30.0)
NAN_PATCHES = np.zeros((4, 3))
NAN_PATCHES[1, 2] = math.nan

CONTRACT = [
    # (label, callable, args, kwargs, exception, message fragment)
    ("admit-unknown-kind", admit, ("zz", SimConfig(), 7200), {}, ValueError,
     "not a valid StrategyKind"),
    ("admit-negative-prompt", admit, ("b", SimConfig(), 7200), {"prompt_tokens": -1},
     ValueError, "prompt_tokens must be >= 0"),
    ("run-strategy-negative-prompt", run_strategy, ("a1", STREAM, SimConfig()),
     {"prompt_tokens": -3}, ValueError, "prompt_tokens must be >= 0"),
    ("fit-growth-nan", fit_growth, ([math.nan] * 200,), {}, ValueError, "must be finite"),
    ("fit-growth-inf", fit_growth, ([1.0] * 199 + [math.inf],), {}, ValueError,
     "must be finite"),
    ("fit-growth-short", fit_growth, ([1.0] * 99,), {}, ValueError, "at least 100 frames"),
    ("make-scene-three-hands", make_scene, (0,), {"n_hands": 3}, ValueError, "n_hands"),
    ("make-scene-negative-hands", make_scene, (0,), {"n_hands": -1}, ValueError, "n_hands"),
    ("make-scene-negative-objects", make_scene, (0,), {"n_objects": -2}, ValueError,
     "n_objects"),
    ("init-connector-no-object-query", init_connector, (8, 4, 2, 0, 8, 0), {}, ValueError,
     "k >= 1"),
    ("giou-batch-zero-width", giou_batch, ([[0.5, 0.5, 0.0, 0.3]], BOX), {}, ValueError,
     "degenerate"),
    ("giou-batch-negative-height", giou_batch, (BOX, [[0.5, 0.5, 0.2, -0.1]]), {}, ValueError,
     "degenerate"),
    ("giou-batch-nan", giou_batch, ([[math.nan, 0.5, 0.2, 0.3]], BOX), {}, ValueError,
     "non-finite"),
    ("giou-batch-inf", giou_batch, (BOX, [[0.5, 0.5, math.inf, 0.3]]), {}, ValueError,
     "non-finite"),
    ("make-scene-zero-side", make_scene, (0,), {"side": 0}, ValueError, "side and dim"),
    ("make-scene-zero-dim", make_scene, (0,), {"dim": 0}, ValueError, "side and dim"),
    ("make-scene-one-word-vocab", make_scene, (0,), {"vocab_size": 1}, ValueError,
     "vocab_size >= 2"),
    ("init-connector-zero-feat-dim", init_connector, (0, 4, 2, 1, 8, 0), {}, ValueError,
     "feat_dim, d and d_mlp >= 1"),
    ("init-connector-zero-d", init_connector, (8, 0, 2, 1, 8, 0), {}, ValueError,
     "feat_dim, d and d_mlp >= 1"),
    ("init-connector-zero-d-mlp", init_connector, (8, 4, 2, 1, 0, 0), {}, ValueError,
     "feat_dim, d and d_mlp >= 1"),
    ("run-strategy-zero-cap", run_strategy, ("b", STREAM, SimConfig()),
     {"live_token_cap": 0}, ValueError, "live_token_cap must be >= 1"),
    ("run-strategy-negative-cap", run_strategy, ("a1", STREAM, SimConfig()),
     {"live_token_cap": -1}, ValueError, "live_token_cap must be >= 1"),
    ("init-weights-zero-heads", init_weights, (8, 0, 1, 16, 0), {}, ValueError,
     "heads must be >= 1"),
    ("attention-engine-zero-heads", AttentionEngine, (8, 0, 1, 16, 0), {}, ValueError,
     "heads must be >= 1"),
    # value types refuse a bad field when built
    ("sim-config-negative-fps", SimConfig, (), {"fps": -4.0}, ConfigError,
     "fps must be > 0, got -4.0"),
    ("token-visual-no-frame-index", Token, (0, TokenKind.VISUAL_FRAME, np.zeros(3)), {},
     ValueError, "visual frame token requires frame_index"),
    ("bbox-zero-width", BBox, (0.5, 0.5, 0.0, 0.1), {}, ValueError, "degenerate box"),
    ("bbox-nan-height", BBox, (0.5, 0.5, 0.1, math.nan), {}, ValueError, "non-finite box"),
    ("scene-nan-patches", Scene, (NAN_PATCHES, 2, [], [BBox(0.5, 0.5, 0.2, 0.3)], [1]), {},
     ValueError, "patch features must be finite"),
    ("scene-wrong-grid-shape", Scene, (np.zeros((5, 3)), 2, [], [], [1]), {}, ValueError,
     r"expected 4 patches, got shape \(5, 3\)"),
    ("admit-a2-d-not-divisible", admit, ("a2", D6, 120), {}, ValueError,
     "d=6 not divisible by heads=4"),
    ("run-strategy-a2-d-not-divisible", run_strategy, ("a2", D6_STREAM, D6), {}, ValueError,
     "d=6 not divisible by heads=4"),
]


@pytest.mark.parametrize("fn, args, kwargs, exc, match",
                         [pytest.param(*row[1:], id=row[0]) for row in CONTRACT])
def test_refused_calls_raise(fn, args, kwargs, exc, match):
    with pytest.raises(exc, match=match):
        fn(*args, **kwargs)


def test_admit_takes_a_strategy_value_as_its_kind():
    # "a1" is progressive-visual: every frame's tokens stay live
    assert admit("a1", SimConfig(), 7200) == 7204
    assert admit("b", SimConfig(), 7200) == 111
