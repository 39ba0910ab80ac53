"""Contract table for the package's public callables.

Each row is a callable from ``streamcache`` (``admit`` from
``streamcache.harness``, which the CLI and ``run_strategy`` call first), the
arguments it gets and the exception it must raise, with a fragment of the
message. A refused call raises before it builds or draws anything.
"""

import math

import pytest

from streamcache import (SimConfig, fit_growth, generate_stream, init_connector, make_scene,
                         run_strategy)
from streamcache.harness import admit

STREAM = generate_stream(SimConfig(), 4.0)

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
