"""Synthetic procedural streams and the three caching strategies.

A stream is a sequence of labelled steps rendered to per-frame feature
vectors (class prototype plus Gaussian noise). The steps come from a loop of
seeded draws; the frames are array work: one ``searchsorted`` labels every
frame with its step, one draw gives every frame's noise, and each step's
prototype is added to its run of rows, so each frame's feature is a row of
one ``(frames, d)`` array. ``MAX_FRAMES`` bounds a stream, checked before
any of that runs.

Each strategy replays the stream through one interleaved cache and records a
per-frame trace of token counts and multiply-add costs. Every frame runs
entry, short exit, prediction, dedup-gated verbalization and long exit, in
that order; the strategies differ only in which steps run and how the
verbalized group's flops are booked:

- ``a1`` ProgressiveVisual: every frame token kept forever; no exit and no
  verbalization.
- ``a2`` VerbalizedSeparate: the interleaved cache charged as if its short
  part (prompt and visual tokens) and long part (verbalized groups) were kept
  apart. Every verbalization re-encodes the short part over the grown long
  prefix, and that cost plus the group's append is booked to the frame as
  conversion recompute. Its cache events and engine flops equal ``b``'s, so
  it runs no attention engine, and its ``FrameRecord.wall_ns`` is its own
  loop's frame time without any attention work.
- ``b``  Interleaved: retained text tokens are appended incrementally, so the
  only prediction-path cost is the frame append itself.

Each strategy enters a prompt, a frame's visual tokens or a verbalized group
into its cache token by token and charges the block ``block_flop_cost`` at the
cache's live size before it; ``a1`` and ``b`` also append the whole block to
their engine in one causal pass. Each engine's slab is allocated once, at
``live_token_bound`` slots, so it never grows or copies. A frame's ``wall_ns``
runs from before its visual tokens enter the cache until its ``FrameRecord``
is built. Strategies never share mutable state; each run builds its own
factory, cache, and engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .attention import AttentionEngine, block_flop_cost, recompute_flop_cost
from .cache import CacheEvent, InterleavedCache
from .config import SimConfig, validate_config
from .types import Token, TokenFactory
from .verbalize import EmbeddingTable, PredictionLog, Verbalizer, should_verbalize

ENGINE_HEADS = 4
ENGINE_LAYERS = 2
DEFAULT_PROMPT_TOKENS = 4
FEATURE_NOISE = 0.1  # standard deviation of a frame feature around its class prototype
MAX_DESCRIPTION_TOKENS = 6  # text tokens in the longest step description
# admission bounds, checked before any work or allocation: at d = 64 a stream
# of MAX_FRAMES frames holds 32 MiB of features, and an engine holding
# MAX_LIVE_TOKENS tokens holds 128 MiB of K/V (both scale with d)
MAX_FRAMES = 2 ** 16  # 4.5 hours at 4 fps
MAX_LIVE_TOKENS = 2 ** 16  # the most tokens a strategy can hold, or bench's sweep stop
# a block append builds a (layers, heads, block, context) float64 bias: at this
# many block x context cells it takes 256 MiB
MAX_BLOCK_CELLS = 2 ** 22


class StrategyKind(Enum):
    PROGRESSIVE_VISUAL = "a1"
    VERBALIZED_SEPARATE = "a2"
    INTERLEAVED = "b"


@dataclass(slots=True)
class StreamFrame:
    index: int
    time_s: float
    step_id: int
    feature: np.ndarray


@dataclass
class SyntheticStream:
    frames: List[StreamFrame]
    class_token_counts: np.ndarray  # text tokens describing each class id


def frame_count(cfg: SimConfig, duration_s: float) -> int:
    """Frames in a ``duration_s`` stream at ``cfg.fps``. Raises ``ValueError``
    for a duration that is not finite and positive, or for more than
    ``MAX_FRAMES`` frames."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    frames = duration_s * cfg.fps
    if round(min(frames, MAX_FRAMES + 1)) > MAX_FRAMES:  # min: round(inf) raises
        raise ValueError(f"duration_s {duration_s:g} at fps {cfg.fps:g} gives {frames:.6g} "
                         f"frames, above MAX_FRAMES = {MAX_FRAMES}")
    return int(round(frames))


def live_token_bound(kind: StrategyKind, cfg: SimConfig, n_frames: int,
                     prompt_tokens: int = DEFAULT_PROMPT_TOKENS) -> int:
    """The most tokens strategy ``kind`` can hold at once over ``n_frames``
    frames, and at least 1: a1 keeps every token; b and a2 hold up to
    ``N_S + 1`` frames and ``N_L + 1`` verbalized groups between an entry and
    its exit, on top of the prompt."""
    if kind is StrategyKind.PROGRESSIVE_VISUAL:
        live = prompt_tokens + n_frames * cfg.tokens_per_frame
    else:
        live = (prompt_tokens + min(n_frames, cfg.N_S + 1) * cfg.tokens_per_frame
                + min(n_frames, cfg.N_L + 1) * (1 + MAX_DESCRIPTION_TOKENS))
    return max(1, live)


def generate_stream(cfg: SimConfig, duration_s: float, n_classes: int = 20) -> SyntheticStream:
    """Deterministic stream: step durations are clamped normals around
    ``mean_step_s`` and adjacent steps always change class."""
    validate_config(cfg)
    n_frames = frame_count(cfg, duration_s)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57]))
    prototypes = rng.standard_normal((n_classes, cfg.d))
    # description lengths of 5 or 6 tokens, 70% long: mean 5.7 per class
    class_token_counts = (MAX_DESCRIPTION_TOKENS - 1
                          + (rng.random(n_classes) < 0.7).astype(np.int64))

    step_ids: List[int] = []  # each step's class id
    ends: List[float] = []  # and the time it ends
    t = 0.0
    min_dur = 1.0 / cfg.fps
    while t < duration_s:
        c = int(rng.integers(n_classes))
        if step_ids and c == step_ids[-1]:
            c = (c + 1) % n_classes
        dur = float(rng.normal(cfg.mean_step_s, cfg.step_s_jitter))
        t = min(t + max(dur, min_dur), duration_s)
        step_ids.append(c)
        ends.append(t)

    # a frame belongs to the first step that ends after it, else to the last
    times = np.arange(n_frames) / cfg.fps
    labels = np.minimum(np.searchsorted(ends, times, side="right"), len(ends) - 1)
    # one draw gives the same values as one draw of d per frame, in frame order
    features = rng.standard_normal((n_frames, cfg.d))
    features *= FEATURE_NOISE
    # labels never decrease, so each step's frames are one run of rows
    edges = np.searchsorted(labels, np.arange(len(ends) + 1))
    for c, lo, hi in zip(step_ids, edges[:-1], edges[1:]):
        features[lo:hi] += prototypes[c]
    frame_steps = np.array(step_ids)[labels].tolist()
    frames = list(map(StreamFrame, range(n_frames), times.tolist(), frame_steps, features))
    return SyntheticStream(frames, class_token_counts)


class OraclePredictor:
    """Seeded stand-in for the decoder's per-frame step prediction: the true
    step id with probability 1 - noise_p, else uniform over all class ids."""

    def __init__(self, stream: SyntheticStream, noise_p: float, seed: int) -> None:
        if not 0.0 <= noise_p <= 1.0:
            raise ValueError(f"noise_p must be in [0, 1], got {noise_p}")
        self.stream = stream
        self.noise_p = noise_p
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA1]))

    def predict(self, frame: StreamFrame) -> int:
        if self.noise_p > 0.0 and self.rng.random() < self.noise_p:
            return int(self.rng.integers(len(self.stream.class_token_counts)))
        return int(frame.step_id)


@dataclass(slots=True)
class FrameRecord:
    frame: int
    t_s: float
    live_token_count: int
    append_flops: int
    extra_recompute_flops: int
    text_entry_flops: int
    predicted_step_id: int
    correct: bool
    verbalization_event: bool
    wall_ns: int


@dataclass
class StrategyTrace:
    kind: StrategyKind
    cfg: SimConfig
    rows: List[FrameRecord] = field(default_factory=list)
    cache_events: List[CacheEvent] = field(default_factory=list)
    engine_total_flops: int = 0
    truncated_at: Optional[int] = None

    def live_series(self) -> np.ndarray:
        return np.array([r.live_token_count for r in self.rows], dtype=np.float64)

    def prediction_flops(self) -> np.ndarray:
        """Per-frame flops on the prediction path: the frame append plus any
        conversion recompute that must finish before the prediction."""
        return np.array([r.append_flops + r.extra_recompute_flops for r in self.rows],
                        dtype=np.float64)

    def accuracy(self) -> float:
        if not self.rows:
            return 0.0
        return float(np.mean([r.correct for r in self.rows]))


class StrategyAbort(RuntimeError):
    """Live token count exceeded the configured cap; carries the partial trace."""

    def __init__(self, message: str, trace: StrategyTrace) -> None:
        super().__init__(message)
        self.trace = trace


def spike_ratio(trace: StrategyTrace) -> float:
    """Max over median of the per-frame prediction-path flops."""
    flops = trace.prediction_flops()
    med = float(np.median(flops))
    if med <= 0:
        return 0.0 if flops.max() <= 0 else math.inf
    return float(flops.max() / med)


def run_strategy(kind: StrategyKind, stream: SyntheticStream, cfg: SimConfig, *,
                 noise_p: float = 0.0, prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
                 live_token_cap: Optional[int] = None,
                 with_engine: bool = True) -> StrategyTrace:
    """Replay ``stream`` under one caching strategy and trace every frame.

    The engines of ``a1`` and ``b`` must end with their counters equal to the
    charged total. ``a2`` builds none: it would replay ``b``'s appends
    exactly, and nothing reads its outputs. ``with_engine=False`` runs the
    cache mechanics only (all flop columns zero), which is enough for
    symbolic replay comparisons.
    """
    validate_config(cfg)
    factory = TokenFactory()
    table = EmbeddingTable(cfg.vocab_size, cfg.d, cfg.seed)
    verbalizer = Verbalizer(factory, table)
    predictor = OraclePredictor(stream, noise_p, cfg.seed)
    log = PredictionLog(cfg.tau)
    charge_recompute = kind is StrategyKind.VERBALIZED_SEPARATE
    engine = None
    if with_engine and not charge_recompute:
        # sized once: the slab never reallocates, and a1's ends exactly full
        engine = AttentionEngine(cfg.d, ENGINE_HEADS, ENGINE_LAYERS, cfg.vocab_size, cfg.seed,
                                 live_token_bound(kind, cfg, len(stream.frames), prompt_tokens))
    cache = InterleavedCache(cfg.N_S * cfg.tokens_per_frame, cfg.N_L)
    trace = StrategyTrace(kind=kind, cfg=cfg, cache_events=cache.events)
    bounded = kind is not StrategyKind.PROGRESSIVE_VISUAL  # a1 never exits or verbalizes

    def enter(tokens: Sequence[Token], t: float) -> int:
        """Enter one block into the cache token by token, then append it to
        the engine, if any, in one causal pass; returns its flop charge."""
        n_live = len(cache)
        for tok in tokens:
            cache.entry(tok, t)
        if not with_engine or not tokens:
            return 0
        if engine is not None:
            if len(tokens) == 1:
                # keeps single appends on append_token, the call perfbench's tracer spans
                engine.append_token(tokens[0])
            else:
                engine.append_tokens(tokens)
        flops = block_flop_cost(n_live, len(tokens), cfg.d, ENGINE_LAYERS, cfg.vocab_size)
        trace.engine_total_flops += flops
        return flops

    def evict(tokens: Sequence[Token]) -> None:
        if engine is not None and tokens:
            engine.evict([tok.id for tok in tokens])

    enter([factory.prompt(table.prompt_embedding(i)) for i in range(prompt_tokens)], 0.0)

    for frame in stream.frames:
        t0 = time.perf_counter_ns()
        recompute_flops = text_flops = 0
        append_flops = enter([factory.visual(frame.index, frame.feature)
                              for _ in range(cfg.tokens_per_frame)], frame.time_s)

        if bounded:
            evict(cache.exit_short(frame.time_s))

        pred = predictor.predict(frame)
        event = bounded and should_verbalize(log, pred)
        if event:
            group = verbalizer.verbalize(pred, int(stream.class_token_counts[pred]))
            group_flops = enter(group, frame.time_s)
            if charge_recompute and with_engine:
                # a2 books the cache as if its short part (prompt and visual
                # tokens) and long part (verbalized groups) were kept apart:
                # the grown long prefix forces a re-encode of the short part
                # before the next prediction
                n_short = prompt_tokens + cache.visual_count
                recompute_flops = group_flops + recompute_flop_cost(
                    n_queries=n_short, n_prefix=len(cache) - n_short, d=cfg.d,
                    layers=ENGINE_LAYERS)
            else:
                text_flops = group_flops
            evict([tok for grp in cache.exit_long(frame.time_s) for tok in grp])
        log.add(pred)

        live = len(cache)
        trace.rows.append(FrameRecord(
            frame=frame.index, t_s=frame.time_s, live_token_count=live,
            append_flops=append_flops, extra_recompute_flops=recompute_flops,
            text_entry_flops=text_flops, predicted_step_id=pred,
            correct=pred == frame.step_id, verbalization_event=event,
            wall_ns=time.perf_counter_ns() - t0))
        if live_token_cap is not None and live > live_token_cap:
            trace.truncated_at = frame.index
            raise StrategyAbort(
                f"{kind.value}: live tokens {live} exceed cap {live_token_cap} "
                f"at frame {frame.index}", trace)

    if engine is not None:
        if set(engine.live_ids()) != set(cache.live_ids()):
            raise RuntimeError("attention store diverged from cache contents")
        if engine.flop_counter != trace.engine_total_flops:
            raise RuntimeError(f"engine counted {engine.flop_counter} flops, its blocks "
                               f"were charged {trace.engine_total_flops}")
    return trace


def affine_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line through ``(x, y)``: slope, intercept and R².

    Closed form over centred sums, each an exactly rounded ``math.fsum``, so
    the fit does not depend on the BLAS kernel or on a summation order.
    """
    mean_x, mean_y = math.fsum(x.tolist()) / x.size, math.fsum(y.tolist()) / y.size
    dx, dy = x - mean_x, y - mean_y
    slope = math.fsum((dx * dy).tolist()) / math.fsum((dx * dx).tolist())
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum(((y - (slope * x + intercept)) ** 2).tolist())
    ss_tot = math.fsum((dy * dy).tolist())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


@dataclass
class GrowthFit:
    growth_class: str  # linear | sublinear | bounded
    exponent: float
    r2: float

    def to_dict(self) -> dict:
        return {"class": self.growth_class, "exponent": self.exponent, "r2": self.r2}


def fit_growth(trace_or_series) -> GrowthFit:
    """Classify how the live context size grows with the frame count.

    Log-log regression of live tokens against frame index over the last
    three quarters of the run (the first quarter is cache-warmup transient);
    a flat tail short-circuits to "bounded" (both caches capped means the
    derivative heads to zero regardless of the fill-up phase).
    """
    if isinstance(trace_or_series, StrategyTrace):
        series = trace_or_series.live_series()
    else:
        series = np.asarray(trace_or_series, dtype=np.float64)
    n = series.size
    if n < 100:
        raise ValueError(f"need at least 100 frames to fit growth, got {n}")
    start = n // 4
    # math.log: numpy picks its log loop per CPU, and the loops differ in last bits
    x = np.array(list(map(math.log, range(start + 1, n + 1))))
    y = np.array(list(map(math.log, np.maximum(series[start:], 1.0).tolist())))
    slope, _, r2 = affine_fit(x, y)

    tail = series[n // 2:]
    tail_range = float(tail.max() - tail.min())
    if tail_range <= max(0.08 * float(np.median(tail)), 8.0):
        return GrowthFit("bounded", float(slope), r2)
    if slope >= 0.95:
        return GrowthFit("linear", float(slope), r2)
    return GrowthFit("sublinear", float(slope), r2)
