import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcache import CacheStructureError, InterleavedCache, TokenFactory, TokenKind

from naive_reference import MARKER, PROMPT, TEXT, VISUAL, NaiveCache, Sym

D = 2


class Driver:
    """Drives the real cache and the naive reference through identical ops."""

    def __init__(self, n_s, n_l):
        self.real = InterleavedCache(n_s, n_l)
        self.naive = NaiveCache(n_s, n_l)
        self.factory = TokenFactory()
        self.entered_visual = []
        self.evicted_visual = []
        self.entered_groups = []
        self.evicted_groups = []
        self.next_step = 0

    def enter_visual(self):
        tok = self.factory.visual(0, np.zeros(D))
        self.real.entry(tok)
        self.naive.entry(Sym(VISUAL, tok.id))
        self.entered_visual.append(tok.id)

    def enter_prompt(self):
        tok = self.factory.prompt(np.zeros(D))
        self.real.entry(tok)
        self.naive.entry(Sym(PROMPT, tok.id))

    def enter_group(self, n_text):
        step = self.next_step
        self.next_step += 1
        marker = self.factory.marker(step, np.zeros(D))
        self.real.entry(marker)
        self.naive.entry(Sym(MARKER, marker.id, step))
        ids = [marker.id]
        for _ in range(n_text):
            tok = self.factory.text(step, np.zeros(D))
            self.real.entry(tok)
            self.naive.entry(Sym(TEXT, tok.id, step))
            ids.append(tok.id)
        self.entered_groups.append(tuple(ids))

    def exit_short(self):
        real_out = [t.id for t in self.real.exit_short()]
        naive_out = [t.id for t in self.naive.exit_short()]
        assert real_out == naive_out
        self.evicted_visual.extend(real_out)

    def exit_long(self):
        real_out = [[t.id for t in grp] for grp in self.real.exit_long()]
        naive_out = [[t.id for t in grp] for grp in self.naive.exit_long()]
        assert real_out == naive_out
        self.evicted_groups.extend(tuple(g) for g in real_out)

    def check_state(self):
        assert self.real.live_ids() == self.naive.ids()
        kinds = [t.kind for t in self.real.live_tokens()]
        assert self.real.visual_count == kinds.count(TokenKind.VISUAL_FRAME)
        assert self.real.long_count == kinds.count(TokenKind.LONG_TERM_MARKER)
        positions = [t.entry_position for t in self.real.live_tokens()]
        assert positions == sorted(positions)


def test_entry_appends_in_order(factory):
    cache = InterleavedCache(4, 2)
    v0 = factory.visual(0, np.zeros(D))
    cache.entry(v0)
    assert cache.live_ids() == (v0.id,)
    v1 = factory.visual(1, np.zeros(D))
    t0 = factory.marker(0, np.zeros(D))
    cache.entry(v1)
    cache.entry(t0)
    assert cache.live_ids() == (v0.id, v1.id, t0.id)


def test_entry_does_not_evict(factory):
    cache = InterleavedCache(64, 5)
    for i in range(65):
        cache.entry(factory.visual(i, np.zeros(D)))
    assert cache.visual_count == 65  # overflow resolved only by exit_short


def test_duplicate_and_reentry_rejected(factory):
    cache = InterleavedCache(4, 2)
    tok = factory.visual(0, np.zeros(D))
    cache.entry(tok)
    with pytest.raises(ValueError, match="duplicate"):
        cache.entry(tok)
    other = InterleavedCache(4, 2)
    with pytest.raises(ValueError, match="already entered"):
        other.entry(tok)


def test_exit_short_oldest_visual_rule(factory):
    cache = InterleavedCache(2, 5)
    v0 = factory.visual(0, np.zeros(D))
    m0 = factory.marker(0, np.zeros(D))
    t0 = factory.text(0, np.zeros(D))
    v1 = factory.visual(1, np.zeros(D))
    v2 = factory.visual(2, np.zeros(D))
    for tok in (v0, m0, t0, v1, v2):
        cache.entry(tok)
    evicted = cache.exit_short()
    assert [t.id for t in evicted] == [v0.id]
    assert cache.live_ids() == (m0.id, t0.id, v1.id, v2.id)


def test_exit_short_at_capacity_is_noop(factory):
    cache = InterleavedCache(64, 5)
    for i in range(64):
        cache.entry(factory.visual(i, np.zeros(D)))
    assert cache.exit_short() == []
    assert cache.visual_count == 64


def test_exit_short_repeated_pop(factory):
    cache = InterleavedCache(1, 5)
    toks = [factory.visual(i, np.zeros(D)) for i in range(3)]
    for tok in toks:
        cache.entry(tok)
    evicted = cache.exit_short()
    assert [t.id for t in evicted] == [toks[0].id, toks[1].id]
    assert cache.live_ids() == (toks[2].id,)


def test_exit_long_group_eviction(factory):
    cache = InterleavedCache(8, 1)
    m0 = factory.marker(0, np.zeros(D))
    a = factory.text(0, np.zeros(D))
    b = factory.text(0, np.zeros(D))
    v5 = factory.visual(5, np.zeros(D))
    m1 = factory.marker(1, np.zeros(D))
    c = factory.text(1, np.zeros(D))
    for tok in (m0, a, b, v5, m1, c):
        cache.entry(tok)
    groups = cache.exit_long()
    assert [[t.id for t in g] for g in groups] == [[m0.id, a.id, b.id]]
    assert cache.live_ids() == (v5.id, m1.id, c.id)


def test_exit_long_within_capacity_noop(factory):
    cache = InterleavedCache(8, 5)
    for step in range(4):
        cache.entry(factory.marker(step, np.zeros(D)))
        cache.entry(factory.text(step, np.zeros(D)))
    assert cache.exit_long() == []
    assert cache.long_count == 4


def test_exit_long_zero_capacity(factory):
    cache = InterleavedCache(8, 0)
    m = factory.marker(0, np.zeros(D))
    a = factory.text(0, np.zeros(D))
    cache.entry(m)
    cache.entry(a)
    groups = cache.exit_long()
    assert [[t.id for t in g] for g in groups] == [[m.id, a.id]]
    assert cache.live_ids() == ()


def test_exit_long_bare_marker_is_structural_error(factory):
    cache = InterleavedCache(8, 0)
    cache.entry(factory.marker(0, np.zeros(D)))
    with pytest.raises(CacheStructureError):
        cache.exit_long()
    # the error leaves the cache and its event log as they were, also when a
    # well-formed group waits ahead of the bare marker
    for ahead in ([factory.prompt(np.zeros(D))],
                  [factory.marker(1, np.zeros(D)), factory.text(1, np.zeros(D))]):
        cache = InterleavedCache(8, 0)
        for tok in ahead + [factory.marker(2, np.zeros(D))]:
            cache.entry(tok)
        before = (cache.live_ids(), cache.long_count, len(cache.events))
        with pytest.raises(CacheStructureError):
            cache.exit_long()
        assert (cache.live_ids(), cache.long_count, len(cache.events)) == before


def test_prompt_tokens_never_evicted(factory):
    cache = InterleavedCache(1, 0)
    p = factory.prompt(np.zeros(D))
    cache.entry(p)
    for i in range(3):
        cache.entry(factory.visual(i, np.zeros(D)))
    cache.entry(factory.marker(0, np.zeros(D)))
    cache.entry(factory.text(0, np.zeros(D)))
    cache.exit_short()
    cache.exit_long()
    assert p.id in cache.live_ids()


def test_live_tokens_snapshot(factory):
    cache = InterleavedCache(4, 2)
    assert cache.live_tokens() == ()
    toks = [factory.visual(i, np.zeros(D)) for i in range(3)]
    for tok in toks:
        cache.entry(tok)
    snap = cache.live_tokens()
    assert [t.id for t in snap] == [t.id for t in toks]
    cache.exit_short()
    assert len(snap) == 3  # snapshot unaffected by later ops


def test_event_log_records_ops(factory):
    cache = InterleavedCache(1, 0)
    cache.entry(factory.visual(0, np.zeros(D)), t=0.25)
    cache.entry(factory.visual(1, np.zeros(D)), t=0.5)
    cache.exit_short(t=0.5)
    ops = [(e.op, tuple(e.token_ids)) for e in cache.events]
    assert ops == [("entry", (0,)), ("entry", (1,)), ("exit_short", (0,))]
    assert cache.events[0].t == 0.25


@st.composite
def op_sequences(draw):
    ops = draw(st.lists(st.sampled_from(["v", "g", "p", "xs", "xl"]),
                        min_size=1, max_size=60))
    texts = draw(st.lists(st.integers(1, 3), min_size=len(ops), max_size=len(ops)))
    return list(zip(ops, texts))


@given(n_s=st.integers(1, 4), n_l=st.integers(0, 3), seq=op_sequences())
@settings(max_examples=200, deadline=None)
def test_differential_and_invariants(n_s, n_l, seq):
    drv = Driver(n_s, n_l)
    for op, n_text in seq:
        if op == "v":
            drv.enter_visual()
        elif op == "g":
            drv.enter_group(n_text)
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
    # capacity after exits
    assert drv.real.visual_count <= n_s
    assert drv.real.long_count <= n_l
    # FIFO within kind: evictions are an entry-order prefix
    assert drv.evicted_visual == drv.entered_visual[: len(drv.evicted_visual)]
    assert drv.evicted_groups == drv.entered_groups[: len(drv.evicted_groups)]


def test_differential_at_default_capacities():
    # the regime real runs use: N_S 64, N_L 5, a 4-token prompt, one visual
    # token per frame and a verbalized group on about 5% of frames
    rng = np.random.default_rng(11)
    drv = Driver(64, 5)
    for _ in range(4):
        drv.enter_prompt()
    for _ in range(3000):
        drv.enter_visual()
        drv.exit_short()
        if rng.random() < 0.05:
            drv.enter_group(int(rng.integers(5, 7)))  # a marker plus 5 or 6 text tokens
            drv.exit_long()
        drv.check_state()
    assert drv.real.visual_count == 64 and drv.real.long_count == 5
    assert drv.evicted_visual == drv.entered_visual[: len(drv.evicted_visual)]
    assert drv.evicted_groups == drv.entered_groups[: len(drv.evicted_groups)]
