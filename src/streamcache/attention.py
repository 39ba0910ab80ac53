"""Toy causal multi-head attention decoder with a slab key/value store.

The engine processes one token at a time: the new token's key/value pair is
written into the next free slot of one ``(layers, heads, cap, d/heads)`` slab,
its query attends over every live slot, and an exact multiply-add count is
charged. Tokens can later be evicted from the middle of the sequence: the
tokens in the last live slots move into the holes, so an eviction touches only
the evicted rows and the rows moved into them. Slot order is therefore not
entry order; attention does not depend on it, since each slot keeps its entry
position for the bias, and ``live_ids`` sorts by position.

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
from typing import Dict, List, Sequence, Tuple

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


def recompute_flop_cost(n_queries: int, n_prefix: int, d: int, layers: int) -> int:
    """Multiply-adds to re-encode ``n_queries`` tokens causally over a fixed
    ``n_prefix``-token prefix: the conversion penalty of a separately cached
    design, quadratic in the re-encoded span."""
    pair_terms = n_queries * n_prefix + n_queries * (n_queries + 1) // 2
    return layers * (4 * d * d * n_queries + 2 * d * pair_terms)


class AttentionEngine:
    """Incremental decoder state: one K/V slab over all layers plus a flop counter.

    Live tokens fill slots ``[0, n)`` of ``(layers, heads, cap, d/heads)`` K
    and V slabs, with one entry position per slot; the slabs double when full.
    """

    def __init__(self, d: int, heads: int, layers: int, vocab_size: int, seed: int) -> None:
        self.weights = init_weights(d, heads, layers, vocab_size, seed)
        self.d = d
        self.heads = heads
        self.layers = layers
        self.vocab_size = vocab_size
        w = self.weights
        # every layer's K and V projections side by side: emb @ _w_kv is one matmul
        self._w_kv = np.concatenate([w.w_k, w.w_v]).transpose(1, 0, 2).reshape(d, -1)
        self._k = np.zeros((layers, heads, 64, d // heads))
        self._v = np.zeros_like(self._k)
        self._pos = np.zeros(64, dtype=np.int64)
        self._ids: List[int] = []  # token id by slot
        self._slot: Dict[int, int] = {}
        self.flop_counter = 0

    @property
    def live_size(self) -> int:
        return len(self._ids)

    def live_ids(self) -> tuple:
        """Live token ids in entry order (slot order is not entry order)."""
        order = np.argsort(self._pos[: len(self._ids)], kind="stable")
        return tuple(self._ids[slot] for slot in order)

    def flops_snapshot(self) -> int:
        return self.flop_counter

    def append_token(self, token: Token) -> Tuple[np.ndarray, np.ndarray]:
        """Run one token through the stack; returns (output vector, logits).

        The token's key/value pair is written into the next free slot of every
        layer, then its query attends over all live slots, itself included.
        """
        if token.id in self._slot:
            raise ValueError(f"token {token.id} already in attention store")
        if token.entry_position is None:
            raise ValueError(f"token {token.id} has no entry position")
        pos = token.entry_position
        n = len(self._ids)
        if n and pos <= int(self._pos[:n].max()):
            raise ValueError(
                f"token {token.id} position {pos} not beyond stored positions")
        w = self.weights
        d, h = self.d, self.heads
        dh = d // h
        emb = np.asarray(token.embedding, dtype=np.float64)
        if emb.shape != (d,):
            raise ValueError(f"embedding shape {emb.shape} != ({d},)")

        if n == self._pos.shape[0]:
            # full: double the slabs; np.zeros leaves the free slots unpaged until written
            k, v, p = self._k, self._v, self._pos
            self._k = np.zeros(k.shape[:2] + (2 * n,) + k.shape[3:])
            self._v = np.zeros(self._k.shape)
            self._pos = np.zeros(2 * n, dtype=np.int64)
            self._k[:, :, :n], self._v[:, :, :n], self._pos[:n] = k, v, p
        kv = (emb @ self._w_kv).reshape(2, self.layers, h, dh)
        self._k[:, :, n] = kv[0]
        self._v[:, :, n] = kv[1]
        self._pos[n] = pos
        n_ctx = n + 1
        bias = w.rel_bias.take(np.minimum(pos - self._pos[:n_ctx], REL_BIAS_CLIP), axis=2)

        x = emb
        for layer in range(self.layers):
            q = (x @ w.w_q[layer]).reshape(h, dh, 1) / math.sqrt(dh)
            scores = np.matmul(self._k[layer, :, :n_ctx], q)[:, :, 0]
            scores += bias[layer]
            scores -= scores.max(axis=1, keepdims=True)
            probs = np.exp(scores)
            # normalise after mixing: divides (heads, d/heads) values, not (heads, n)
            mixed = np.matmul(probs[:, None, :], self._v[layer, :, :n_ctx])[:, 0]
            mixed /= probs.sum(axis=1, keepdims=True)
            x = x + mixed.reshape(d) @ w.w_o[layer]

        logits = x @ w.w_lm
        self.flop_counter += append_flop_cost(n_ctx, d, self.layers, self.vocab_size)
        self._slot[token.id] = n
        self._ids.append(token.id)
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
                self._k[:, :, hole] = self._k[:, :, last]
                self._v[:, :, hole] = self._v[:, :, last]
                self._pos[hole] = self._pos[last]
                self._ids[hole] = moved
                self._slot[moved] = hole


def full_recompute(weights: AttentionWeights, tokens: Sequence[Token],
                   return_attn: bool = False):
    """Oracle: causal attention over the whole sequence in one pass.

    ``tokens`` must be ordered by strictly increasing entry position. Returns
    the (n, d) final-layer outputs; with ``return_attn`` also a list of
    per-layer (heads, n, n) attention probability arrays.
    """
    if not tokens:
        raise ValueError("empty token sequence")
    positions = np.array([t.entry_position for t in tokens], dtype=np.int64)
    if any(t.entry_position is None for t in tokens):
        raise ValueError("all tokens need entry positions")
    if np.any(np.diff(positions) <= 0):
        raise ValueError("tokens must be ordered by strictly increasing position")
    d, h, dh = weights.d, weights.heads, weights.d // weights.heads
    emb = np.stack([np.asarray(t.embedding, dtype=np.float64) for t in tokens])
    x = emb
    n = x.shape[0]
    deltas = positions[:, None] - positions[None, :]
    bias_idx = np.clip(deltas, -REL_BIAS_CLIP, REL_BIAS_CLIP)
    causal = deltas >= 0  # row i may attend to j iff pos_j <= pos_i
    attn_layers = []
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
        if return_attn:
            attn_layers.append(probs)
        mixed = np.einsum("hij,jhd->ihd", probs, v).reshape(n, d)
        x = x + mixed @ weights.w_o[layer]
    if return_attn:
        return x, attn_layers
    return x


def lm_logits(weights: AttentionWeights, outputs: np.ndarray) -> np.ndarray:
    """Vocab logits for decoder outputs (softmax temperature fixed at 1)."""
    return np.atleast_2d(outputs) @ weights.w_lm
