"""Online verbalization: turn step predictions into compact text tokens.

A predicted step becomes one marker token plus a handful of text tokens,
unless the same step id was already verbalized within the last ``tau``
predictions. ``budget_report`` does the token-count arithmetic comparing an
all-visual context against the verbalized one.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from .config import SimConfig
from .types import Token, TokenFactory

# Average text tokens per verbalized step; measured step descriptions run
# just under six tokens, so the default budget math uses 5.7.
DEFAULT_TOKENS_PER_STEP = 5.7


class PredictionLog:
    """Ring buffer of the last ``tau`` predicted step ids."""

    def __init__(self, tau: int) -> None:
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        self._recent: deque = deque(maxlen=tau)  # maxlen 0 keeps nothing

    def __contains__(self, step_id: int) -> bool:
        return step_id in self._recent

    def add(self, step_id: int) -> None:
        self._recent.append(step_id)


def should_verbalize(log: PredictionLog, step_id: int) -> bool:
    """True iff ``step_id`` is absent from the last ``tau`` predictions."""
    return step_id not in log


class EmbeddingTable:
    """Seeded vectors for text vocab ids, the group marker, and prompts.

    The marker embedding is a single fixed vector; markers carry no payload
    beyond it.
    """

    def __init__(self, vocab_size: int, d: int, seed: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE]))
        self.vocab = rng.standard_normal((vocab_size, d))
        self.marker = rng.standard_normal(d)
        self._prompt_rng_seed = seed
        self.d = d
        self.vocab_size = vocab_size

    def vocab_embedding(self, vocab_id: int) -> np.ndarray:
        return self.vocab[vocab_id % self.vocab_size]

    def prompt_embedding(self, index: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self._prompt_rng_seed, 0xB, index]))
        return rng.standard_normal(self.d)


def step_text_vocab_ids(step_id: int, count: int, vocab_size: int) -> List[int]:
    """Deterministic text vocab ids describing a step: same step id, same ids."""
    base = (step_id * 31 + 7) % vocab_size
    return [(base + 3 * j) % vocab_size for j in range(count)]


class Verbalizer:
    """Builds marker + text token groups for predicted steps."""

    def __init__(self, factory: TokenFactory, table: EmbeddingTable) -> None:
        self.factory = factory
        self.table = table

    def verbalize(self, step_id: int, n_text: int) -> List[Token]:
        """One marker token followed by ``n_text`` text tokens, all sharing
        ``step_id``. Payloads repeat across calls; ids are fresh."""
        if n_text < 1:
            raise ValueError(f"step {step_id}: nothing to verbalize")
        tokens = [self.factory.marker(step_id, self.table.marker.copy())]
        for vid in step_text_vocab_ids(step_id, n_text, self.table.vocab_size):
            tokens.append(self.factory.text(step_id, self.table.vocab_embedding(vid).copy()))
        return tokens


@dataclass
class TokenBudgetReport:
    """Token counts for one horizon: all-visual versus verbalized."""

    horizon_s: float
    visual_tokens: float
    verbalized_text_tokens: float
    marker_tokens: float
    verbalized_total: float
    reduction_ratio: float  # visual / verbalized text
    reduction_ratio_with_markers: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def budget_report(cfg: SimConfig, horizon_s: float,
                  tokens_per_step: float = DEFAULT_TOKENS_PER_STEP) -> TokenBudgetReport:
    """Expected token budgets over ``horizon_s`` seconds of stream.

    Marker tokens are counted separately from the text tokens; both ratios are
    reported. Raises ``ValueError`` when a total is zero text tokens or is
    not finite, so the report is always standard JSON.
    """
    if not 0 < horizon_s < math.inf:
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")
    if not 0 < tokens_per_step < math.inf:
        raise ValueError(f"tokens_per_step must be finite and > 0, got {tokens_per_step}")
    visual = cfg.fps * horizon_s * cfg.tokens_per_frame
    steps = horizon_s / cfg.mean_step_s
    text = steps * tokens_per_step
    if text == 0:  # underflowed: the horizon is too short for the step length
        raise ValueError(f"horizon_s {horizon_s:g} at mean_step_s {cfg.mean_step_s:g} "
                         "gives no text tokens")
    markers = steps
    report = TokenBudgetReport(
        horizon_s=float(horizon_s),
        visual_tokens=visual,
        verbalized_text_tokens=text,
        marker_tokens=markers,
        verbalized_total=text + markers,
        reduction_ratio=visual / text,
        reduction_ratio_with_markers=visual / (text + markers),
    )
    for name, value in report.to_dict().items():
        if not math.isfinite(value):  # overflowed, e.g. a tiny mean_step_s
            raise ValueError(f"horizon_s {horizon_s:g} at mean_step_s {cfg.mean_step_s:g}, "
                             f"fps {cfg.fps:g} and tokens_per_frame {cfg.tokens_per_frame} "
                             f"gives {name} = {value}, which is not finite")
    return report
