"""Synthetic procedural streams and the three caching strategies.

A stream is a sequence of labelled steps rendered to per-frame feature
vectors (class prototype plus Gaussian noise). The steps come from a loop of
seeded draws, and one ``searchsorted`` labels every frame with its step. A
``SyntheticStream`` keeps the frames' times and step ids as lists, the class
prototypes, and the noise generator's state after the step draws, but no
feature: ``feature_blocks`` redraws the noise from that state in blocks of
``FEATURE_BLOCK_FRAMES`` frames, in frame order, so each ``walk`` of the
stream makes every feature afresh and holds only the blocks its reader keeps. One
draw of n frames gives the same values as n draws of one frame, so every
walk sees the same bytes. ``walk`` is the only way to read a frame's
feature, and it builds no per-frame record. ``MAX_FRAMES`` bounds a stream,
checked before any of that runs.

Each strategy replays the stream through one interleaved cache and records a
per-frame trace of token counts and multiply-add costs. The trace keeps its
rows as typed columns, 58 bytes a frame, and its ``cache_events`` is the
cache's own column log; ``rows`` and ``cache_events`` build a ``FrameRecord``
or a ``CacheEvent`` only for the index or slice read. Every frame runs
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
  it runs no attention engine and walks no feature, and its
  ``FrameRecord.wall_ns`` is its own loop's frame time without any attention
  work.
- ``b``  Interleaved: retained text tokens are appended incrementally, so the
  only prediction-path cost is the frame append itself.

Each strategy enters a prompt, a frame's visual tokens or a verbalized group
into its cache token by token and charges the block ``block_flop_cost`` at the
cache's live size before it; ``a1`` and ``b`` also hand the whole block to
their engine's ``append_tokens``, which runs a block of one (a frame, at one
token per frame) through the engine's one-token path and a longer block in
one causal pass. Each engine's slab is allocated once, at the bound ``admit``
returns, so it never grows or copies. A frame's ``wall_ns`` runs from before
its visual tokens enter the cache until its row is appended. Strategies never
share mutable state; each run builds its own factory, cache, and engine.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from .attention import MAX_BLOCK_CELLS, AttentionEngine, block_flop_cost, recompute_flop_cost
from .cache import EventLog, InterleavedCache
from .config import SimConfig, validate_config
from .types import RecordView, Token, TokenFactory
from .verbalize import (LONG_DESCRIPTION_SHARE, MAX_DESCRIPTION_TOKENS, EmbeddingTable,
                        Verbalizer, should_verbalize)

ENGINE_HEADS = 4
ENGINE_LAYERS = 2
DEFAULT_PROMPT_TOKENS = 4
FEATURE_NOISE = 0.1  # standard deviation of a frame feature around its class prototype
MIN_GROWTH_FRAMES = 100  # the shortest series fit_growth classifies
# admission bounds, checked before any work or allocation: a stream of
# MAX_FRAMES frames holds 2.5 MiB of per-frame times and step ids, and an
# engine holding MAX_LIVE_TOKENS tokens 128 MiB of K/V at d = 64 (it scales with d)
MAX_FRAMES = 2 ** 16  # 4.5 hours at 4 fps
FEATURE_BLOCK_FRAMES = 256  # frames per feature draw: 128 KiB of features at d = 64
# the most tokens a strategy can hold; bench's sweep stop too, which caps its
# points, as bench prints the closed form and builds no engine
MAX_LIVE_TOKENS = 2 ** 16


class StrategyKind(Enum):
    PROGRESSIVE_VISUAL = "a1"
    VERBALIZED_SEPARATE = "a2"
    INTERLEAVED = "b"


@dataclass
class SyntheticStream:
    """A replayable frame source: per-frame times and step ids, and what
    ``feature_blocks`` needs to redraw every frame's feature on each walk."""

    times: List[float]  # each frame's time in seconds
    step_ids: List[int]  # each frame's true step (class) id
    prototypes: np.ndarray  # (classes, d): each class's feature centre
    noise_state: dict  # the noise generator's state before frame 0's draw
    class_token_counts: np.ndarray  # text tokens describing each class id

    @property
    def frames(self) -> range:
        """The frame indices: ``perfbench/run.py`` reads ``len(stream.frames)``.
        Read a frame through ``walk``."""
        return range(len(self.times))

    def walk(self) -> Iterator[Tuple[float, int, np.ndarray]]:
        """Each frame's time, step id and feature, in frame order, from one
        walk of ``feature_blocks``: a block is drawn when the walk reaches it.
        The walk raises ``ValueError`` where ``times`` and ``step_ids`` differ
        in length."""
        return zip(self.times, self.step_ids, chain.from_iterable(self.feature_blocks()),
                   strict=True)

    def feature_blocks(self) -> Iterator[np.ndarray]:
        """Every frame's feature in frame order, one ``(FEATURE_BLOCK_FRAMES,
        d)`` array at a time (the last may be shorter), each drawn afresh from
        ``noise_state``: the prototype of the frame's step plus
        ``FEATURE_NOISE`` times a standard normal draw."""
        bits = np.random.PCG64()
        bits.state = self.noise_state
        rng = np.random.Generator(bits)
        for lo in range(0, len(self.step_ids), FEATURE_BLOCK_FRAMES):
            ids = self.step_ids[lo:lo + FEATURE_BLOCK_FRAMES]
            block = rng.standard_normal((len(ids), self.prototypes.shape[1]))
            block *= FEATURE_NOISE
            block += self.prototypes[ids]
            yield block


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


def admit(kind: StrategyKind, cfg: SimConfig, n_frames: int,
          prompt_tokens: int = DEFAULT_PROMPT_TOKENS) -> int:
    """The most tokens strategy ``kind`` can hold at once over ``n_frames``
    frames, and at least 1: a1 keeps every token; b and a2 hold up to
    ``N_S + 1`` frames and ``N_L + 1`` verbalized groups between an entry and
    its exit, on top of the prompt. Raises ``ValueError`` for a ``kind`` that
    is neither a ``StrategyKind`` nor one's value, a negative ``prompt_tokens``,
    above ``MAX_LIVE_TOKENS`` (a1: its visual tokens) or a largest block above
    ``MAX_BLOCK_CELLS`` cells."""
    kind = StrategyKind(kind)
    if prompt_tokens < 0:
        raise ValueError(f"prompt_tokens must be >= 0, got {prompt_tokens}")
    frames = f"tokens_per_frame {cfg.tokens_per_frame} over {n_frames} frames"
    if kind is StrategyKind.PROGRESSIVE_VISUAL:
        visual = n_frames * cfg.tokens_per_frame
        if visual > MAX_LIVE_TOKENS:
            raise ValueError(f"{frames} gives a1 {visual} live tokens, above "
                             f"MAX_LIVE_TOKENS = {MAX_LIVE_TOKENS}")
        live = max(1, prompt_tokens + visual)
        # the last frame appends the largest block, over every token before it
        block, largest = cfg.tokens_per_frame, f"{frames} gives a1 a last block of"
    else:
        live = max(1, prompt_tokens + min(n_frames, cfg.N_S + 1) * cfg.tokens_per_frame
                   + min(n_frames, cfg.N_L + 1) * (1 + MAX_DESCRIPTION_TOKENS))
        bounded = f"N_S {cfg.N_S}, N_L {cfg.N_L} and {frames} give b and a2"
        if live > MAX_LIVE_TOKENS:
            raise ValueError(f"{bounded} up to {live} live tokens, above "
                             f"MAX_LIVE_TOKENS = {MAX_LIVE_TOKENS}")
        # the largest block, a frame or a verbalized group, can come over all of those
        block = max(cfg.tokens_per_frame, 1 + MAX_DESCRIPTION_TOKENS)
        largest = f"{bounded} a block of up to"
    if block * live > MAX_BLOCK_CELLS:
        raise ValueError(f"{largest} {block * live} attention cells, above "
                         f"MAX_BLOCK_CELLS = {MAX_BLOCK_CELLS}")
    return live


def generate_stream(cfg: SimConfig, duration_s: float, n_classes: int = 20) -> SyntheticStream:
    """Deterministic stream: step durations are clamped normals around
    ``mean_step_s`` and adjacent steps always change class. Only the steps are
    drawn here; each walk of the stream draws its frames' noise."""
    validate_config(cfg)
    n_frames = frame_count(cfg, duration_s)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57]))
    prototypes = rng.standard_normal((n_classes, cfg.d))
    class_token_counts = (MAX_DESCRIPTION_TOKENS - 1
                          + (rng.random(n_classes) < LONG_DESCRIPTION_SHARE).astype(np.int64))

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
    # the frames' noise comes after the step draws: keep the state it starts from
    return SyntheticStream(times.tolist(), np.array(step_ids)[labels].tolist(), prototypes,
                           rng.bit_generator.state, class_token_counts)


class OraclePredictor:
    """Seeded stand-in for the decoder's per-frame step prediction: the true
    step id with probability 1 - noise_p, else uniform over all class ids."""

    def __init__(self, stream: SyntheticStream, noise_p: float, seed: int) -> None:
        if not 0.0 <= noise_p <= 1.0:
            raise ValueError(f"noise_p must be in [0, 1], got {noise_p}")
        self.stream = stream
        self.noise_p = noise_p
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA1]))

    def predict(self, step_id: int) -> int:
        """The predicted step id for a frame whose true step id is ``step_id``."""
        if self.noise_p > 0.0 and self.rng.random() < self.noise_p:
            return int(self.rng.integers(len(self.stream.class_token_counts)))
        return int(step_id)


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


class TraceRows(RecordView):
    """A trace's per-frame rows as columns, read as a sequence of
    ``FrameRecord``s built only when indexed.

    A row's ``frame`` is its position; each other ``FrameRecord`` field is
    the column of its name: ``t_s`` holds floats, ``correct`` and
    ``verbalization_event`` 0 or 1, and the rest 64-bit integers. Only
    ``run_strategy`` appends.
    """

    __slots__ = ("t_s", "live_token_count", "append_flops", "extra_recompute_flops",
                 "text_entry_flops", "predicted_step_id", "correct", "verbalization_event",
                 "wall_ns")

    def __init__(self) -> None:
        self.t_s = array("d")
        self.live_token_count = array("q")
        self.append_flops = array("q")
        self.extra_recompute_flops = array("q")
        self.text_entry_flops = array("q")
        self.predicted_step_id = array("q")
        self.correct = array("B")
        self.verbalization_event = array("B")
        self.wall_ns = array("q")

    def __len__(self) -> int:
        return len(self.t_s)

    def _record(self, i: int) -> FrameRecord:
        return FrameRecord(i, self.t_s[i], self.live_token_count[i], self.append_flops[i],
                           self.extra_recompute_flops[i], self.text_entry_flops[i],
                           self.predicted_step_id[i], bool(self.correct[i]),
                           bool(self.verbalization_event[i]), self.wall_ns[i])

    def _append(self, t_s: float, live_token_count: int, append_flops: int,
                extra_recompute_flops: int, text_entry_flops: int, predicted_step_id: int,
                correct: bool, verbalization_event: bool, wall_ns: int) -> None:
        self.t_s.append(t_s)
        self.live_token_count.append(live_token_count)
        self.append_flops.append(append_flops)
        self.extra_recompute_flops.append(extra_recompute_flops)
        self.text_entry_flops.append(text_entry_flops)
        self.predicted_step_id.append(predicted_step_id)
        self.correct.append(correct)
        self.verbalization_event.append(verbalization_event)
        self.wall_ns.append(wall_ns)


@dataclass
class StrategyTrace:
    kind: StrategyKind
    cfg: SimConfig
    rows: TraceRows = field(default_factory=TraceRows)
    cache_events: EventLog = field(default_factory=EventLog)
    engine_total_flops: int = 0
    truncated_at: Optional[int] = None

    def prediction_flops(self) -> np.ndarray:
        """Per-frame flops on the prediction path: the frame append plus any
        conversion recompute that must finish before the prediction."""
        # summed as integers, then rounded once, as each frame's exact total
        return np.add(self.rows.append_flops, self.rows.extra_recompute_flops,
                      dtype=np.int64).astype(np.float64)

    def accuracy(self) -> float:
        correct = self.rows.correct
        return sum(correct) / len(correct) if correct else 0.0


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
                 live_token_cap: Optional[int] = None) -> StrategyTrace:
    """Replay ``stream`` under one caching strategy and trace every frame.

    ``a1`` and ``b`` walk the stream's features into an attention engine,
    which must end with its counter equal to the charged total. ``a2`` builds
    none, as it would replay ``b``'s appends exactly and nothing reads its
    outputs, so it draws no feature: its visual tokens share one placeholder
    embedding. A stream ``admit`` refuses raises before anything is built, as
    do a ``kind`` that is neither a ``StrategyKind`` nor one's value and a
    ``live_token_cap`` below 1.
    """
    kind = StrategyKind(kind)
    if live_token_cap is not None and live_token_cap < 1:
        raise ValueError(f"live_token_cap must be >= 1, got {live_token_cap}")
    validate_config(cfg)
    capacity = admit(kind, cfg, len(stream.times), prompt_tokens)
    factory = TokenFactory()
    table = EmbeddingTable(cfg.vocab_size, cfg.d, cfg.seed)
    verbalizer = Verbalizer(factory, table)
    predictor = OraclePredictor(stream, noise_p, cfg.seed)
    log = deque(maxlen=cfg.tau)  # the last tau predictions
    if kind is StrategyKind.VERBALIZED_SEPARATE:
        engine = None
        placeholder = np.zeros(cfg.d)
        frames = ((t, step_id, placeholder)
                  for t, step_id in zip(stream.times, stream.step_ids, strict=True))
    else:
        # sized once: the slab never reallocates, and a1's ends exactly full
        engine = AttentionEngine(cfg.d, ENGINE_HEADS, ENGINE_LAYERS, cfg.vocab_size, cfg.seed,
                                 capacity)
        frames = stream.walk()
    cache = InterleavedCache(cfg.N_S * cfg.tokens_per_frame, cfg.N_L)
    trace = StrategyTrace(kind=kind, cfg=cfg, cache_events=cache.events)
    bounded = kind is not StrategyKind.PROGRESSIVE_VISUAL  # a1 never exits or verbalizes

    def enter(tokens: Sequence[Token], t: float) -> int:
        """Enter one block into the cache token by token, then append it to
        the engine, if any; returns its flop charge."""
        n_live = len(cache)
        for tok in tokens:
            cache.entry(tok, t)
        if engine is not None and tokens:
            engine.append_tokens(tokens)
        flops = block_flop_cost(n_live, len(tokens), cfg.d, ENGINE_LAYERS, cfg.vocab_size)
        trace.engine_total_flops += flops
        return flops

    def evict(tokens: Sequence[Token]) -> None:
        if engine is not None and tokens:
            engine.evict([tok.id for tok in tokens])

    enter([factory.prompt(table.prompt_embedding(i)) for i in range(prompt_tokens)], 0.0)

    add_row = trace.rows._append
    for index, (t, step_id, feature) in enumerate(frames):
        t0 = time.perf_counter_ns()
        recompute_flops = text_flops = 0
        append_flops = enter([factory.visual(index, feature)
                              for _ in range(cfg.tokens_per_frame)], t)

        if bounded:
            evict(cache.exit_short(t))

        pred = predictor.predict(step_id)
        event = bounded and should_verbalize(log, pred)
        if event:
            group = verbalizer.verbalize(pred, int(stream.class_token_counts[pred]))
            group_flops = enter(group, t)
            if engine is None:
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
            evict([tok for grp in cache.exit_long(t) for tok in grp])
        log.append(pred)

        live = len(cache)
        add_row(t, live, append_flops, recompute_flops, text_flops, pred, pred == step_id,
                event, time.perf_counter_ns() - t0)
        if live_token_cap is not None and live > live_token_cap:
            trace.truncated_at = index
            raise StrategyAbort(
                f"{kind.value}: live tokens {live} exceed cap {live_token_cap} "
                f"at frame {index}", trace)

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


def fit_growth(live_tokens) -> GrowthFit:
    """Classify how a trace's live-token series grows with the frame count.

    Log-log regression of live tokens against frame index over the last
    three quarters of the run (the first quarter is cache-warmup transient);
    a flat tail short-circuits to "bounded" (both caches capped means the
    derivative heads to zero regardless of the fill-up phase). Raises
    ``ValueError`` for fewer than ``MIN_GROWTH_FRAMES`` frames or a non-finite
    value.
    """
    series = np.asarray(live_tokens, dtype=np.float64)
    n = series.size
    if n < MIN_GROWTH_FRAMES:
        raise ValueError(f"need at least {MIN_GROWTH_FRAMES} frames to fit growth, got {n}")
    if not np.isfinite(series).all():
        raise ValueError("live-token series must be finite")
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
