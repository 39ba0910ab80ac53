"""Shared domain vocabulary: tokens, boxes, and the lazy record view.

Everything here but ``RecordView`` is a plain value type. Instances are safe
to share across threads; the single sanctioned mutation is the one-time
assignment of a token's ``entry_position`` when it enters a cache.
``harness.TraceRows`` and ``cache.EventLog`` are the record views; a stream
has none, and its frames are read through ``SyntheticStream.walk``.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Optional

import numpy as np


class RecordView(Sequence):
    """Read-only sequence over records kept as columns: ``len`` builds
    nothing, and an index, a slice or an iteration builds only the records it
    reads. A subclass gives ``__len__`` and ``_record(i)`` for an int ``i`` in
    ``[0, len)``; there is no item assignment."""

    __slots__ = ()

    @abstractmethod
    def _record(self, i: int):
        """The record at position ``i``, an int in ``[0, len)``."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        return self._record(range(len(self))[index])  # IndexError or TypeError out of it

    def __iter__(self):
        return map(self._record, range(len(self)))


class TokenKind(Enum):
    VISUAL_FRAME = "visual_frame"
    TEXT = "text"
    LONG_TERM_MARKER = "long_term_marker"
    PROMPT = "prompt"


@dataclass(eq=False, slots=True)
class Token:
    """One cache entry: a visual frame token, a text token, a group marker
    delimiting a verbalized step, or a pinned prompt token.

    ``entry_position`` is assigned exactly once, at cache entry, and is never
    reassigned afterwards: cached attention keys/values are keyed on it, so it
    must survive eviction of other tokens.
    """

    id: int
    kind: TokenKind
    embedding: np.ndarray
    frame_index: Optional[int] = None
    step_id: Optional[int] = None
    entry_position: Optional[int] = None

    def validate(self) -> "Token":
        if self.kind is TokenKind.VISUAL_FRAME and self.frame_index is None:
            raise ValueError(f"token {self.id}: visual frame token requires frame_index")
        if self.kind in (TokenKind.TEXT, TokenKind.LONG_TERM_MARKER) and self.step_id is None:
            raise ValueError(f"token {self.id}: {self.kind.value} token requires step_id")
        if self.embedding.ndim != 1:
            raise ValueError(f"token {self.id}: embedding must be a 1-d vector")
        return self


class TokenFactory:
    """Mints tokens with strictly increasing ids.

    One factory per logical stream; ids are unique across all token kinds so
    cache and attention stores can key on them.
    """

    def __init__(self) -> None:
        self._ids = count()

    def visual(self, frame_index: int, embedding: np.ndarray) -> Token:
        return Token(next(self._ids), TokenKind.VISUAL_FRAME, embedding,
                     frame_index=frame_index).validate()

    def text(self, step_id: int, embedding: np.ndarray) -> Token:
        return Token(next(self._ids), TokenKind.TEXT, embedding, step_id=step_id).validate()

    def marker(self, step_id: int, embedding: np.ndarray) -> Token:
        return Token(next(self._ids), TokenKind.LONG_TERM_MARKER, embedding,
                     step_id=step_id).validate()

    def prompt(self, embedding: np.ndarray) -> Token:
        return Token(next(self._ids), TokenKind.PROMPT, embedding).validate()


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in normalized center format (cx, cy, w, h)."""

    cx: float
    cy: float
    w: float
    h: float

    def validate(self) -> "BBox":
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h)):
            raise ValueError(f"non-finite box: {self}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"degenerate box: w={self.w}, h={self.h}")
        return self

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)
