import dataclasses
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcache import (EmbeddingTable, SimConfig, TokenFactory, TokenKind, Verbalizer,
                         budget_report, generate_stream, should_verbalize)


def make_verbalizer(cfg):
    return Verbalizer(TokenFactory(), EmbeddingTable(cfg.vocab_size, cfg.d, cfg.seed))


# -- dedup window -----------------------------------------------------------

def test_empty_log_always_verbalizes():
    log = deque(maxlen=4)
    assert should_verbalize(log, 3)


def test_id_inside_window_blocked():
    log = deque(maxlen=4)
    log.append(3)
    for _ in range(3):  # id now at distance tau - 1
        log.append(9)
    assert not should_verbalize(log, 3)


def test_id_just_outside_window_allowed():
    log = deque(maxlen=4)
    log.append(3)
    for _ in range(4):  # id pushed out, distance tau + 1
        log.append(9)
    assert should_verbalize(log, 3)


def test_tau_zero_always_verbalizes():
    log = deque(maxlen=0)
    log.append(3)
    assert should_verbalize(log, 3)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=200), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_no_two_events_within_tau(preds, tau):
    log = deque(maxlen=tau)
    events = {}
    for n, pred in enumerate(preds):
        if should_verbalize(log, pred):
            if pred in events:
                assert n - events[pred] > tau
            events[pred] = n
        log.append(pred)


# -- verbalize --------------------------------------------------------------

def test_verbalize_shape_and_step_ids(cfg):
    verb = make_verbalizer(cfg)
    tokens = verb.verbalize(4, 5)
    assert len(tokens) == 6
    assert tokens[0].kind is TokenKind.LONG_TERM_MARKER
    assert all(t.kind is TokenKind.TEXT for t in tokens[1:])
    assert all(t.step_id == 4 for t in tokens)


def test_verbalize_repeat_same_payload_fresh_ids(cfg):
    verb = make_verbalizer(cfg)
    first = verb.verbalize(4, 3)
    second = verb.verbalize(4, 3)
    assert [t.id for t in first] != [t.id for t in second]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.embedding, b.embedding)


def test_verbalize_rejects_zero_tokens(cfg):
    verb = make_verbalizer(cfg)
    with pytest.raises(ValueError):
        verb.verbalize(4, 0)


def test_verbalized_hour_close_to_expected_count(cfg):
    # one synthetic hour of steps at ~32 s and ~5.7 tokens each lands near
    # the expected 630-ish text tokens
    stream = generate_stream(cfg, 3600.0)
    verb = make_verbalizer(cfg)
    steps = [c for c, _ in itertools.groupby(stream.step_ids)]
    text_tokens = sum(len(verb.verbalize(c, int(stream.class_token_counts[c]))) - 1
                      for c in steps)
    assert text_tokens == pytest.approx(630, rel=0.10)


# -- budget arithmetic ------------------------------------------------------

def test_budget_report_hour_horizon(cfg):
    report = budget_report(cfg, 3600.0)
    assert report.visual_tokens == 14400
    assert report.verbalized_text_tokens == pytest.approx(641.25)
    assert report.reduction_ratio == pytest.approx(22.46, abs=0.05)
    assert report.reduction_ratio_with_markers == pytest.approx(14400 / 753.75)
    assert dataclasses.asdict(report)["visual_tokens"] == 14400


def test_budget_report_128s_window(cfg):
    report = budget_report(cfg, 128.0)
    assert report.verbalized_text_tokens == pytest.approx(22.8)
    assert report.marker_tokens == pytest.approx(4.0)


def test_budget_report_rejects_bad_horizon(cfg):
    with pytest.raises(ValueError):
        budget_report(cfg, 0.0)


@given(st.floats(8.0, 256.0), st.floats(8.0, 256.0))
@settings(max_examples=100, deadline=None)
def test_compression_monotone_in_step_length(a, b):
    cfg = SimConfig()
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:
        return
    r_lo = budget_report(dataclasses.replace(cfg, mean_step_s=lo), 3600.0)
    r_hi = budget_report(dataclasses.replace(cfg, mean_step_s=hi), 3600.0)
    assert r_hi.reduction_ratio > r_lo.reduction_ratio
