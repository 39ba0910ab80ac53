"""The interleaved cache and the attention engine driven together.

A hypothesis state machine enters visual blocks and verbalized groups into
one ``InterleavedCache``, appends each block to one ``AttentionEngine``, and
mirrors every exit into an engine evict, the way ``run_strategy`` does. After
every rule the two must hold the same live tokens, and the engine's next
append must match the ``full_recompute`` oracle's last row.
"""

import copy

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from streamcache import AttentionEngine, InterleavedCache, TokenFactory, full_recompute

D, H, L, V = 16, 4, 2, 32
N_S, N_L, PROMPT = 4, 2, 2
TOL = 1e-6


class CacheEngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = InterleavedCache(N_S, N_L)
        self.engine = AttentionEngine(D, H, L, V, seed=5)
        self.factory = TokenFactory()
        self.rng = np.random.default_rng(11)
        self.tokens = {}  # every token entered, by id
        self.enter([self.factory.prompt(self.embedding()) for _ in range(PROMPT)])

    def embedding(self):
        return self.rng.standard_normal(D)

    def enter(self, tokens):
        """Enter a block into the cache, append it to the engine, and check the
        block's last output against the oracle over the cache's live tokens."""
        for tok in tokens:
            self.cache.entry(tok)
            self.tokens[tok.id] = tok
        out, _ = self.engine.append_tokens(tokens)
        ref = full_recompute(self.engine.weights, self.live())[-1]
        assert np.max(np.abs(out[-1] - ref)) <= TOL

    def live(self):
        return [self.tokens[tid] for tid in self.cache.live_ids()]

    def evict(self, tokens):
        if tokens:
            self.engine.evict([tok.id for tok in tokens])

    @rule(k=st.integers(1, 3))
    def visual_block(self, k):
        self.enter([self.factory.visual(0, self.embedding()) for _ in range(k)])

    @rule()
    def exit_short(self):
        self.evict(self.cache.exit_short())

    @rule(step_id=st.integers(0, 5), n_text=st.integers(1, 4))
    def verbalized_group(self, step_id, n_text):
        group = [self.factory.marker(step_id, self.embedding())]
        group += [self.factory.text(step_id, self.embedding()) for _ in range(n_text)]
        self.enter(group)

    @rule()
    def exit_long(self):
        for group in self.cache.exit_long():
            self.evict(group)

    @invariant()
    def engine_matches_cache(self):
        live = self.live()
        assert self.engine.live_ids() == self.cache.live_ids()
        # a probe append on a copy checks the engine's state, not just its ids
        probe = self.factory.prompt(self.embedding())
        probe.entry_position = live[-1].entry_position + 1
        out, _ = copy.deepcopy(self.engine).append_token(probe)
        ref = full_recompute(self.engine.weights, live + [probe])[-1]
        assert np.max(np.abs(out - ref)) <= TOL


CacheEngineMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=30,
                                                deadline=None)
test_cache_and_engine_stay_in_step = CacheEngineMachine.TestCase
