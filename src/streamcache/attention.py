"""Toy causal multi-head attention decoder with a slab key/value store.

The engine appends a block of tokens at a time (one token is the common case):
the block's keys and values are written, in one assignment, into the next free
slots of one ``(2, layers, heads, capacity, d/heads)`` slab (keys, then values),
each query attends over every live slot and the block tokens up to itself, and
an exact multiply-add count is charged. The slab is allocated once, at the
``capacity`` a caller passes (the harness passes its strategy's most live
tokens), and doubles only when a block does not fit. Tokens can later be
evicted from the middle of the sequence: the token in the last live slot moves
into each hole, so an eviction moves one slab row per evicted token. Slot
order is therefore not entry order; attention does not depend on it, since
each slot keeps its entry position for the bias, and ``live_ids`` sorts by
position.

Two choices make mid-sequence eviction exact rather than approximate: the
position signal is a relative bias on entry-position deltas (no re-indexing
on eviction), and each layer's key/value projections read the token's raw
embedding while only the query path evolves through the stack. Cached
keys/values therefore never encode neighbours that might later be evicted,
and every append reproduces the ``full_recompute`` oracle over the surviving
sequence to float64 round-off.

All arithmetic is float64. Not safe for concurrent mutation; one engine per
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .types import Token

REL_BIAS_CLIP = 1024  # position deltas beyond this share one bias slot


@dataclass
class AttentionWeights:
    """Seeded projection stack plus the vocab output head."""

    d: int
    heads: int
    layers: int
    vocab_size: int
    w_q: np.ndarray  # (L, d, d)
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    rel_bias: np.ndarray  # (L, heads, REL_BIAS_CLIP + 1)
    w_lm: np.ndarray  # (d, vocab_size)


def init_weights(d: int, heads: int, layers: int, vocab_size: int, seed: int) -> AttentionWeights:
    """Deterministic uniform[-1/sqrt(d), 1/sqrt(d)] weights from ``seed``."""
    if d % heads != 0:
        raise ValueError(f"d={d} not divisible by heads={heads}")
    if layers < 1 or vocab_size < 1:
        raise ValueError("layers and vocab_size must be >= 1")
    rng = np.random.default_rng(seed)
    lim = 1.0 / np.sqrt(d)

    def draw(*shape):
        return rng.uniform(-lim, lim, size=shape)

    w_q = np.empty((layers, d, d))
    w_k = np.empty((layers, d, d))
    w_v = np.empty((layers, d, d))
    w_o = np.empty((layers, d, d))
    rel_bias = np.empty((layers, heads, REL_BIAS_CLIP + 1))
    for layer in range(layers):
        w_q[layer] = draw(d, d)
        w_k[layer] = draw(d, d)
        w_v[layer] = draw(d, d)
        w_o[layer] = draw(d, d)
        rel_bias[layer] = draw(heads, REL_BIAS_CLIP + 1)
    w_lm = draw(d, vocab_size)
    return AttentionWeights(d, heads, layers, vocab_size, w_q, w_k, w_v, w_o, rel_bias, w_lm)


def append_flop_cost(n_live: int, d: int, layers: int, vocab_size: int) -> int:
    """Multiply-adds for one incremental append at live size ``n_live``
    (the new token included): per layer 4*d^2 projections plus 2*n*d for
    scores and value mixing, then the d*vocab output head."""
    return layers * (4 * d * d + 2 * n_live * d) + d * vocab_size


def block_flop_cost(n_live: int, k: int, d: int, layers: int, vocab_size: int) -> int:
    """Multiply-adds for appending a block of ``k`` tokens at live size
    ``n_live`` (the block not included): k single appends at live sizes
    n+1 .. n+k, an arithmetic series."""
    return k * (append_flop_cost(n_live + 1, d, layers, vocab_size)
                + append_flop_cost(n_live + k, d, layers, vocab_size)) // 2


def recompute_flop_cost(n_queries: int, n_prefix: int, d: int, layers: int) -> int:
    """Multiply-adds to re-encode ``n_queries`` tokens causally over a fixed
    ``n_prefix``-token prefix: the conversion penalty of a separately cached
    design, quadratic in the re-encoded span."""
    pair_terms = n_queries * n_prefix + n_queries * (n_queries + 1) // 2
    return layers * (4 * d * d * n_queries + 2 * d * pair_terms)


class AttentionEngine:
    """Incremental decoder state: one K/V slab over all layers plus a flop counter.

    Live tokens fill slots ``[0, n)`` of a ``(2, layers, heads, capacity,
    d/heads)`` slab holding keys (index 0) and values (index 1), with one entry
    position per slot. ``capacity`` slots are allocated up front; a caller that
    knows its most live tokens passes that, and the slab never moves. Past it,
    the slab doubles.
    """

    def __init__(self, d: int, heads: int, layers: int, vocab_size: int, seed: int,
                 capacity: int = 64) -> None:
        if not isinstance(capacity, (int, np.integer)) or capacity < 1:
            raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
        self.weights = init_weights(d, heads, layers, vocab_size, seed)
        self.d = d
        self.heads = heads
        self.layers = layers
        self.vocab_size = vocab_size
        w = self.weights
        # per-layer matrices as lists: indexing a list makes no array view;
        # the query projections carry the score scale
        self._w_q = list(w.w_q / math.sqrt(d // heads))
        self._w_o = list(w.w_o)
        # layer 0's query, then every layer's K and V projections side by side:
        # a block's embeddings meet all of them in one matmul
        w_kv = np.concatenate([w.w_k, w.w_v]).transpose(1, 0, 2).reshape(d, -1)
        self._w_in = np.concatenate([self._w_q[0], w_kv], axis=1)
        # slot 0 is -inf, the causal mask; slot 1 + delta is the bias for delta
        self._bias = np.concatenate([np.full((layers, heads, 1), -np.inf), w.rel_bias], axis=2)
        self._kv = np.zeros((2, layers, heads, capacity, d // heads))
        self._pos = np.zeros(capacity, dtype=np.int64)
        self._ids: List[int] = []  # token id by slot
        self._slot: Dict[int, int] = {}
        self._newest_id: Optional[int] = None  # the live token with the largest position
        self.flop_counter = 0

    @property
    def nbytes(self) -> int:
        """Bytes allocated to the K/V slab and its position array, used or not:
        ``(2 * layers * d * 8 + 8) * capacity``."""
        return self._kv.nbytes + self._pos.nbytes

    def live_ids(self) -> tuple:
        """Live token ids in entry order (slot order is not entry order)."""
        order = np.argsort(self._pos[: len(self._ids)], kind="stable")
        return tuple(self._ids[slot] for slot in order)

    def append_token(self, token: Token) -> Tuple[np.ndarray, np.ndarray]:
        """Run one token through the stack; returns (output vector, logits).

        The one-token case of ``append_tokens``.
        """
        x, logits = self.append_tokens([token])
        return x[0], logits[0]

    def append_tokens(self, tokens: Sequence[Token]) -> Tuple[np.ndarray, np.ndarray]:
        """Run a block of k tokens through the stack in one causal pass;
        returns the (k, d) outputs and (k, vocab) logits.

        Every token's key/value pair is written into the next free slots, then
        each query attends over all live slots and the block tokens up to
        itself. Outputs and the flop charge equal k single appends. The whole
        block is checked before any state changes.
        """
        tokens = list(tokens)
        if not tokens:
            raise ValueError("empty token block")
        d, h = self.d, self.heads
        dh = d // h
        n, k = len(self._ids), len(tokens)
        newest = int(self._pos[self._slot[self._newest_id]]) if n else None
        block_ids = set()
        positions = []
        x = np.empty((k, d))
        for i, tok in enumerate(tokens):
            if tok.id in self._slot or tok.id in block_ids:
                raise ValueError(f"token {tok.id} already in attention store")
            block_ids.add(tok.id)
            pos = tok.entry_position
            if pos is None:
                raise ValueError(f"token {tok.id} has no entry position")
            if newest is not None and pos <= newest:
                raise ValueError(f"token {tok.id} position {pos} not beyond stored positions")
            newest = pos
            positions.append(pos)
            if np.shape(tok.embedding) != (d,):
                raise ValueError(f"embedding shape {np.shape(tok.embedding)} != ({d},)")
            x[i] = tok.embedding

        cap = self._pos.shape[0]
        if n + k > cap:
            # double the slab; np.zeros leaves the free slots unpaged until written
            while n + k > cap:
                cap *= 2
            kv_old, p_old = self._kv, self._pos
            self._kv = np.zeros(kv_old.shape[:3] + (cap, dh))
            self._pos = np.zeros(cap, dtype=np.int64)
            self._kv[:, :, :, :n] = kv_old[:, :, :, :n]
            self._pos[:n] = p_old[:n]
        n_ctx = n + k
        proj = x @ self._w_in
        kv = self._kv
        kv[:, :, :, n:n_ctx] = (proj[:, d:].reshape(k, 2, self.layers, h, dh)
                                .transpose(1, 2, 3, 0, 4))
        self._pos[n:n_ctx] = positions
        # one (k, n_ctx) gather of 1 + delta from each query to each slot: the
        # clip sends deltas past REL_BIAS_CLIP to its slot, and the negative
        # deltas to later block tokens to the -inf slot 0
        bias = self._bias.take(self._pos[n:n_ctx, None] + 1 - self._pos[:n_ctx],
                               axis=2, mode="clip")

        keys_t = kv[0, :, :, :n_ctx].swapaxes(2, 3)  # (layers, h, dh, n_ctx)
        values = kv[1, :, :, :n_ctx]
        q = proj[:, :d]
        for layer in range(self.layers):
            if layer:
                q = x @ self._w_q[layer]
            scores = np.matmul(q.reshape(k, h, dh).transpose(1, 0, 2),
                               keys_t[layer])  # (h, k, n_ctx)
            scores += bias[layer]
            scores -= np.maximum.reduce(scores, axis=2, keepdims=True)
            probs = np.exp(scores, out=scores)
            # normalise after mixing: divides (heads, k, d/heads) values, not (heads, k, n)
            mixed = np.matmul(probs, values[layer])
            mixed /= np.add.reduce(probs, axis=2, keepdims=True)
            x += mixed.transpose(1, 0, 2).reshape(k, d) @ self._w_o[layer]

        logits = x @ self.weights.w_lm
        self.flop_counter += block_flop_cost(n, k, d, self.layers, self.vocab_size)
        for slot, tok in enumerate(tokens, n):
            self._slot[tok.id] = slot
            self._ids.append(tok.id)
        self._newest_id = tokens[-1].id
        return x, logits

    def evict(self, token_ids: Sequence[int]) -> None:
        """Drop the given tokens' key/value rows: the token in the last live
        slot moves into each hole. Positions are untouched and no flops are
        charged."""
        ids = list(token_ids)
        unknown = [tid for tid in ids if tid not in self._slot]
        if unknown:
            raise KeyError(f"unknown token ids: {unknown}")
        for tid in set(ids):
            hole, last = self._slot.pop(tid), len(self._ids) - 1
            moved = self._ids.pop()
            if hole != last:
                self._kv[:, :, :, hole] = self._kv[:, :, :, last]
                self._pos[hole] = self._pos[last]
                self._ids[hole] = moved
                self._slot[moved] = hole
        if self._ids and self._newest_id not in self._slot:
            self._newest_id = self._ids[int(self._pos[:len(self._ids)].argmax())]


def full_recompute(weights: AttentionWeights, tokens: Sequence[Token]) -> np.ndarray:
    """Oracle: causal attention over the whole sequence in one pass.

    ``tokens`` must be ordered by strictly increasing entry position. Returns
    the (n, d) final-layer outputs.
    """
    if not tokens:
        raise ValueError("empty token sequence")
    if any(t.entry_position is None for t in tokens):
        raise ValueError("all tokens need entry positions")
    positions = np.array([t.entry_position for t in tokens], dtype=np.int64)
    if np.any(np.diff(positions) <= 0):
        raise ValueError("tokens must be ordered by strictly increasing position")
    d, h, dh = weights.d, weights.heads, weights.d // weights.heads
    emb = np.stack([np.asarray(t.embedding, dtype=np.float64) for t in tokens])
    x = emb
    n = x.shape[0]
    deltas = positions[:, None] - positions[None, :]
    bias_idx = np.clip(deltas, -REL_BIAS_CLIP, REL_BIAS_CLIP)
    causal = deltas >= 0  # row i may attend to j iff pos_j <= pos_i
    for layer in range(weights.layers):
        q = (x @ weights.w_q[layer]).reshape(n, h, dh)
        k = (emb @ weights.w_k[layer]).reshape(n, h, dh)
        v = (emb @ weights.w_v[layer]).reshape(n, h, dh)
        scores = np.einsum("ihd,jhd->hij", q, k) / np.sqrt(dh)
        scores += weights.rel_bias[layer][:, np.abs(bias_idx)]
        scores = np.where(causal[None, :, :], scores, -np.inf)
        scores -= scores.max(axis=2, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=2, keepdims=True)
        mixed = np.einsum("hij,jhd->ihd", probs, v).reshape(n, d)
        x = x + mixed @ weights.w_o[layer]
    return x
