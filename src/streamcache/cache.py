"""Interleaved FIFO token cache with one entry point and two typed exits.

Visual frame tokens and verbalized text tokens live in one map from token id
to token, in entry order. ``exit_short`` trims the oldest visual tokens down
to the visual capacity, taking them from a FIFO of live visual tokens kept
beside the map, so it never scans past the prompt and the text groups to find
them; ``exit_long`` trims whole verbalized groups (marker plus its step's text
tokens) down to the long-term capacity. Prompt tokens are pinned and never
evicted. Exits are explicit calls, not side effects of entry, so a run's op
sequence is auditable.

Each cache owns its entry-position clock and its event log. Single-writer:
all mutations come from one logical stream thread. Snapshots returned by
``live_tokens`` are immutable tuples, safe to hand elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from .types import PositionClock, Token, TokenKind


class CacheStructureError(RuntimeError):
    """The cache contents violate the marker/text group structure."""


@dataclass
class CacheEvent:
    """One audit-log row: an entry or an exit with the token ids it touched."""

    t: float
    op: str  # entry | exit_short | exit_long
    token_ids: List[int]
    kind: str

    def to_dict(self) -> dict:
        return {"t": self.t, "op": self.op, "token_ids": self.token_ids, "kind": self.kind}


class InterleavedCache:
    """FIFO cache of interleaved visual/text tokens with per-kind capacities.

    ``n_s`` caps VISUAL_FRAME tokens, ``n_l`` caps LONG_TERM_MARKER entries
    (each marker's text tokens leave with it). Live tokens are one id-to-token
    map in entry order, beside a FIFO of the live visual tokens.
    """

    def __init__(self, n_s: int, n_l: int) -> None:
        if n_s < 1:
            raise ValueError(f"n_s must be >= 1, got {n_s}")
        if n_l < 0:
            raise ValueError(f"n_l must be >= 0, got {n_l}")
        self.n_s = n_s
        self.n_l = n_l
        self._live: Dict[int, Token] = {}
        self._visual: Deque[Token] = deque()
        self.long_count = 0
        self._clock = PositionClock()
        self.events: List[CacheEvent] = []

    def __len__(self) -> int:
        return len(self._live)

    @property
    def visual_count(self) -> int:
        return len(self._visual)

    def live_tokens(self) -> tuple:
        """Snapshot of live tokens in entry order."""
        return tuple(self._live.values())

    def live_ids(self) -> tuple:
        return tuple(self._live)

    def entry(self, token: Token, t: float = 0.0) -> None:
        """Append ``token`` at the tail with a fresh entry position.

        No eviction happens here; overflow is resolved by the exit calls.
        """
        if token.id in self._live:
            raise ValueError(f"duplicate token id {token.id}")
        if token.entry_position is not None:
            raise ValueError(f"token {token.id} already entered a cache")
        token.entry_position = self._clock.next()
        self._live[token.id] = token
        if token.kind is TokenKind.VISUAL_FRAME:
            self._visual.append(token)
        elif token.kind is TokenKind.LONG_TERM_MARKER:
            self.long_count += 1
        self.events.append(CacheEvent(t, "entry", [token.id], token.kind.value))

    def exit_short(self, t: float = 0.0) -> List[Token]:
        """Evict oldest visual tokens until the visual count fits ``n_s``."""
        evicted: List[Token] = []
        while len(self._visual) > self.n_s:
            tok = self._visual.popleft()
            del self._live[tok.id]
            evicted.append(tok)
        self.events.append(CacheEvent(t, "exit_short", [tok.id for tok in evicted],
                                      TokenKind.VISUAL_FRAME.value))
        return evicted

    def exit_long(self, t: float = 0.0) -> List[List[Token]]:
        """Evict oldest verbalized groups until the marker count fits ``n_l``.

        A group is a marker plus the contiguous run of live TEXT tokens right
        after it that share its step_id. The groups are collected in one walk
        from the front, and a bare marker raises before anything is removed.
        """
        groups: List[List[Token]] = []
        group: List[Token] = []  # the newest group while its text run lasts
        for tok in self._live.values():
            if group and tok.kind is TokenKind.TEXT and tok.step_id == group[0].step_id:
                group.append(tok)
            elif len(groups) >= self.long_count - self.n_l:
                break
            elif tok.kind is TokenKind.LONG_TERM_MARKER:
                group = [tok]
                groups.append(group)
            else:
                group = []
        for marker, *text in groups:
            if not text:
                raise CacheStructureError(f"bare marker {marker.id} (step {marker.step_id})")
        flat = [tok.id for grp in groups for tok in grp]
        for tok_id in flat:
            del self._live[tok_id]
        self.long_count -= len(groups)
        self.events.append(CacheEvent(t, "exit_long", flat,
                                      TokenKind.LONG_TERM_MARKER.value))
        return groups
