"""Toy causal multi-head attention decoder with a slab key/value store.

The engine appends a block of tokens at a time: the block's keys and values
are written, in one assignment, into the next free slots of one
``(2, layers, heads, capacity, d/heads)`` slab (keys, then values), each query
attends over every live slot and the block tokens up to itself, and an exact
multiply-add count is charged. One token, the common case, takes a one-token
path that skips the block's bookkeeping; both paths run the same layer body,
so a token gives the same bits either way. The slab is allocated once, at the
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
# a block append builds a (layers, heads, block, context) float64 bias: at this
# many block x context cells it takes 256 MiB
MAX_BLOCK_CELLS = 2 ** 22


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
    if heads < 1:
        raise ValueError(f"heads must be >= 1, got {heads}")
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
        # the live token with the largest position, and that position
        self._newest_id: Optional[int] = None
        self._newest_pos: Optional[int] = None
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

        The one-token path, which ``append_tokens`` takes for a block of one:
        the same checks, messages and order, the cell bound included, then one
        slab row written and one query through the layer body that blocks run
        too, so its outputs are the one-token block's to the bit.
        """
        d, n = self.d, len(self._ids)
        _check_cells(n, 1)
        self._check(token, self._newest_pos if n else None)
        tid, pos = token.id, token.entry_position
        x = np.empty((1, d))
        x[0] = token.embedding

        self._grow(n + 1)
        proj = x @ self._w_in
        self._kv[:, :, :, n] = proj[0, d:].reshape(2, self.layers, self.heads, d // self.heads)
        self._pos[n] = pos
        # the block path's gather for one query: its (1, n + 1) deltas
        bias = self._bias.take(pos + 1 - self._pos[None, :n + 1], axis=2, mode="clip")
        x, logits = self._attend(x, proj, bias)
        self.flop_counter += append_flop_cost(n + 1, d, self.layers, self.vocab_size)
        self._slot[tid] = n
        self._ids.append(tid)
        self._newest_id, self._newest_pos = tid, pos
        return x[0], logits[0]

    def append_tokens(self, tokens: Sequence[Token]) -> Tuple[np.ndarray, np.ndarray]:
        """Run a block of k tokens through the stack in one causal pass;
        returns the (k, d) outputs and (k, vocab) logits.

        A block of one goes to ``append_token``. A longer block's key/value
        pairs are written into the next free slots, then each query attends
        over all live slots and the block tokens up to itself, through the
        same layer body. Outputs and the flop charge equal k single appends.
        The whole block is checked before any state changes, and a block whose
        ``k * (live + k)`` attention cells exceed ``MAX_BLOCK_CELLS`` raises
        ``ValueError`` before anything is allocated.
        """
        tokens = list(tokens)
        if not tokens:
            raise ValueError("empty token block")
        if len(tokens) == 1:
            x, logits = self.append_token(tokens[0])
            return x[None], logits[None]
        d, h = self.d, self.heads
        dh = d // h
        n, k = len(self._ids), len(tokens)
        _check_cells(n, k)
        newest = self._newest_pos if n else None
        block_ids = set()
        positions = []
        x = np.empty((k, d))
        for i, tok in enumerate(tokens):
            self._check(tok, newest, block_ids)
            block_ids.add(tok.id)
            newest = tok.entry_position
            positions.append(newest)
            x[i] = tok.embedding

        self._grow(n + k)
        n_ctx = n + k
        proj = x @ self._w_in
        self._kv[:, :, :, n:n_ctx] = (proj[:, d:].reshape(k, 2, self.layers, h, dh)
                                      .transpose(1, 2, 3, 0, 4))
        self._pos[n:n_ctx] = positions
        # one (k, n_ctx) gather of 1 + delta from each query to each slot: the
        # clip sends deltas past REL_BIAS_CLIP to its slot, and the negative
        # deltas to later block tokens to the -inf slot 0
        bias = self._bias.take(self._pos[n:n_ctx, None] + 1 - self._pos[:n_ctx],
                               axis=2, mode="clip")
        x, logits = self._attend(x, proj, bias)
        self.flop_counter += block_flop_cost(n, k, d, self.layers, self.vocab_size)
        for slot, tok in enumerate(tokens, n):
            self._slot[tok.id] = slot
            self._ids.append(tok.id)
        self._newest_id, self._newest_pos = tokens[-1].id, newest
        return x, logits

    def _check(self, tok: Token, newest: Optional[int], block_ids=()) -> None:
        """Refuse ``tok`` if its id is live or in ``block_ids``, its entry
        position is missing, not an int or not beyond ``newest`` (None: any),
        or its embedding is not a ``(d,)`` vector."""
        if tok.id in self._slot or tok.id in block_ids:
            raise ValueError(f"token {tok.id} already in attention store")
        pos = tok.entry_position
        if pos is None:
            raise ValueError(f"token {tok.id} has no entry position")
        if not isinstance(pos, (int, np.integer)):
            raise ValueError(f"token {tok.id} entry position {pos!r} is not an int")
        if newest is not None and pos <= newest:
            raise ValueError(f"token {tok.id} position {pos} not beyond stored positions")
        if np.shape(tok.embedding) != (self.d,):
            raise ValueError(f"embedding shape {np.shape(tok.embedding)} != ({self.d},)")

    def _grow(self, size: int) -> None:
        """Double the slab until it holds ``size`` slots; np.zeros leaves the
        free slots unpaged until written."""
        cap = self._pos.shape[0]
        if size <= cap:
            return
        while size > cap:
            cap *= 2
        n = len(self._ids)
        kv_old, p_old = self._kv, self._pos
        self._kv = np.zeros(kv_old.shape[:3] + (cap, kv_old.shape[4]))
        self._pos = np.zeros(cap, dtype=np.int64)
        self._kv[:, :, :, :n] = kv_old[:, :, :, :n]
        self._pos[:n] = p_old[:n]

    def _attend(self, x: np.ndarray, proj: np.ndarray,
                bias: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The layer body both appends share: the (k, d) queries ``x``, whose
        keys and values fill the last k of the ``n_ctx`` live slots, attend
        through every layer; ``proj`` holds ``x @ _w_in`` and ``bias`` the
        (layers, heads, k, n_ctx) gathered bias. Returns the outputs, updated
        in place, and their logits."""
        k, d, h = x.shape[0], self.d, self.heads
        n_ctx = bias.shape[3]
        keys_t = self._kv[0, :, :, :n_ctx].swapaxes(2, 3)  # (layers, h, dh, n_ctx)
        values = self._kv[1, :, :, :n_ctx]
        q = proj[:, :d]
        for layer in range(self.layers):
            if layer:
                q = x @ self._w_q[layer]
            scores = np.matmul(q.reshape(k, h, d // h).transpose(1, 0, 2),
                               keys_t[layer])  # (h, k, n_ctx)
            scores += bias[layer]
            scores -= np.maximum.reduce(scores, axis=2, keepdims=True)
            probs = np.exp(scores, out=scores)
            # normalise after mixing: divides (heads, k, d/heads) values, not (heads, k, n)
            mixed = np.matmul(probs, values[layer])
            mixed /= np.add.reduce(probs, axis=2, keepdims=True)
            x += mixed.transpose(1, 0, 2).reshape(k, d) @ self._w_o[layer]
        return x, x @ self.weights.w_lm

    def evict(self, token_ids: Sequence[int]) -> None:
        """Drop the given tokens' key/value rows: the token in the last live
        slot moves into each hole. Positions are untouched and no flops are
        charged. An unknown id raises ``KeyError`` and a repeated one
        ``ValueError``, before any state changes."""
        ids = list(token_ids)
        unknown = [tid for tid in ids if tid not in self._slot]
        if unknown:
            raise KeyError(f"unknown token ids: {unknown}")
        unique = ids if len(ids) == 1 else set(ids)  # one id, the common case, needs no set
        if len(unique) < len(ids):
            repeated = sorted({tid for tid in ids if ids.count(tid) > 1})
            raise ValueError(f"repeated token ids: {repeated}")
        for tid in unique:
            hole, last = self._slot.pop(tid), len(self._ids) - 1
            moved = self._ids.pop()
            if hole != last:
                self._kv[:, :, :, hole] = self._kv[:, :, :, last]
                self._pos[hole] = self._pos[last]
                self._ids[hole] = moved
                self._slot[moved] = hole
        if self._ids and self._newest_id not in self._slot:
            newest = int(self._pos[:len(self._ids)].argmax())
            self._newest_id, self._newest_pos = self._ids[newest], int(self._pos[newest])


def _check_cells(n: int, k: int) -> None:
    """Refuse a block of ``k`` tokens over ``n`` live ones whose attention
    cells exceed ``MAX_BLOCK_CELLS``."""
    if k * (n + k) > MAX_BLOCK_CELLS:
        raise ValueError(f"a block of {k} tokens over {n} live tokens spans "
                         f"{k * (n + k)} attention cells, above MAX_BLOCK_CELLS = "
                         f"{MAX_BLOCK_CELLS}")


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
