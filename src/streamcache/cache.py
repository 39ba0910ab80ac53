"""Interleaved FIFO token cache with one entry point and two typed exits.

Visual frame tokens and verbalized text tokens live in one map from token id
to token, in entry order. ``exit_short`` trims the oldest visual tokens down
to the visual capacity, taking them from a FIFO of live visual tokens kept
beside the map, so it never scans past the prompt and the text groups to find
them; ``exit_long`` trims whole verbalized groups (marker plus its step's text
tokens) down to the long-term capacity. Prompt tokens are pinned and never
evicted. Exits are explicit calls, not side effects of entry, so a run's op
sequence is auditable.

Each cache owns its entry-position counter and its event log. The log is kept
as columns (each event's time and type code, and every event's token ids end
to end with per-event end offsets), about 17 bytes per event plus 8 per token
id, and ``events`` reads it as a sequence of ``CacheEvent``s built only when
indexed. Single-writer: all mutations come from one logical stream thread.
Snapshots returned by ``live_ids`` are immutable tuples, safe to hand
elsewhere.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Deque, Dict, Iterable, List

from .types import RecordView, Token, TokenKind


class CacheStructureError(RuntimeError):
    """The cache contents violate the marker/text group structure."""


@dataclass(slots=True)
class CacheEvent:
    """One audit-log row: an entry or an exit with the token ids it touched."""

    t: float
    op: str  # entry | exit_short | exit_long
    token_ids: List[int]
    kind: str


# each event type's (op, kind), by its code in the log: an entry per token kind, then the exits
EVENT_TYPES = (tuple(("entry", kind.value) for kind in TokenKind)
               + (("exit_short", TokenKind.VISUAL_FRAME.value),
                  ("exit_long", TokenKind.LONG_TERM_MARKER.value)))
_ENTRY = {kind: code for code, kind in enumerate(TokenKind)}
_EXIT_SHORT, _EXIT_LONG = len(TokenKind), len(TokenKind) + 1


class EventLog(RecordView):
    """A cache's event log as columns, read as a sequence of ``CacheEvent``s.

    Event ``i`` happened at ``times[i]``, is of type ``EVENT_TYPES[codes[i]]``
    and touched ``token_ids[ends[i - 1]:ends[i]]`` (from 0 for the first
    event). Only the cache that owns the log appends to it.
    """

    __slots__ = ("times", "codes", "ends", "token_ids")

    def __init__(self) -> None:
        self.times = array("d")
        self.codes = array("B")
        self.ends = array("q")
        self.token_ids = array("q")

    def __len__(self) -> int:
        return len(self.times)

    def _record(self, i: int) -> CacheEvent:
        op, kind = EVENT_TYPES[self.codes[i]]
        start = self.ends[i - 1] if i else 0
        return CacheEvent(self.times[i], op, self.token_ids[start:self.ends[i]].tolist(), kind)

    def _add(self, t: float, code: int, token_ids: Iterable[int]) -> None:
        self.times.append(t)
        self.codes.append(code)
        self.token_ids.extend(token_ids)
        self.ends.append(len(self.token_ids))


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
        self._positions = count()
        self.events = EventLog()

    def __len__(self) -> int:
        return len(self._live)

    @property
    def visual_count(self) -> int:
        return len(self._visual)

    def live_ids(self) -> tuple:
        """Snapshot of live token ids in entry order."""
        return tuple(self._live)

    def entry(self, token: Token, t: float = 0.0) -> None:
        """Append ``token`` at the tail with a fresh entry position.

        No eviction happens here; overflow is resolved by the exit calls.
        """
        if token.id in self._live:
            raise ValueError(f"duplicate token id {token.id}")
        if token.entry_position is not None:
            raise ValueError(f"token {token.id} already entered a cache")
        token.entry_position = next(self._positions)
        self._live[token.id] = token
        if token.kind is TokenKind.VISUAL_FRAME:
            self._visual.append(token)
        elif token.kind is TokenKind.LONG_TERM_MARKER:
            self.long_count += 1
        self.events._add(t, _ENTRY[token.kind], (token.id,))

    def exit_short(self, t: float = 0.0) -> List[Token]:
        """Evict oldest visual tokens until the visual count fits ``n_s``."""
        evicted: List[Token] = []
        while len(self._visual) > self.n_s:
            tok = self._visual.popleft()
            del self._live[tok.id]
            evicted.append(tok)
        self.events._add(t, _EXIT_SHORT, [tok.id for tok in evicted])
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
        self.events._add(t, _EXIT_LONG, flat)
        return groups
