"""Naive list-scan reference implementations used as test oracles.

These transliterate the cache mechanics in the most literal way possible:
counts by scanning, eviction by pop-at-index, the streaming loop as a flat
for-loop. They exist only to differential-test the package implementations.
``transcribe`` replays any strategy's loop and charges each entered token,
and each re-encoded query of a2, its own flops, where the package charges
whole blocks in closed form.
``lexicographic_match`` is the connector matcher's tie-break search in its
first form: one exact solve per tried column. ``generate_stream`` is the
stream generator in its first form: one noise draw, one add and one frame's
time, step id and feature row per loop turn, every feature made before the
first is read and kept in a ``NaiveStream``. ``last_rows`` is
``full_recompute`` cut to its last k queries, so it reaches the live sizes of
real runs in O(k·n) memory. ``grad_check`` is the finite-difference checker
in its first form: a list of every parameter coordinate, sampled by index.
``save_scene`` writes a scene in the file format that ``load_scene`` reads, so
tests can make scene files. ``train_toy`` is the toy trainer's loop in its
first form: each epoch's gradient sum starts from zero arrays and adds every
scene's in scene order. ``masked_sigmoid`` is the connector's sigmoid in its
first form: a boolean mask splits the input, and each side is written through
it. ``stage1_forward_full_block`` is the stage-1 forward in its first form:
it scores every (gt, query) pair in one block with the array box cost,
``_box_cost``, slices each group's block out of it and picks the
matched pairs' GIoU gradients by row and column from ``giou_and_grad``.
``giou_and_grad`` is the GIoU gradient in its array form: every pair's value
and gradient as elementwise arrays, against which the connector's scalar
``_giou_pair`` must agree bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from streamcache import (AttentionWeights, OraclePredictor, Scene, SimConfig, StrategyKind,
                         SyntheticStream, Token, append_flop_cost, giou_batch)
from streamcache.attention import REL_BIAS_CLIP
from streamcache.connector import (GRAD_CHECK_TOL, CaptionDecoder, TrainingDivergence, TrainResult,
                                   _caption_forward, _corner_pairs, _forward,
                                   _lm_parts, _match, _matched_loss, loss_total, stage1_losses,
                                   stage1_value_and_grads)
from streamcache.harness import ENGINE_LAYERS, FEATURE_NOISE

# each symbolic kind is the name that a cache event gives its token kind
VISUAL = "visual_frame"
TEXT = "text"
MARKER = "long_term_marker"
PROMPT = "prompt"


@dataclass
class Sym:
    """Symbolic token: kind, id, and step id for text/markers."""

    kind: str
    id: int
    step_id: Optional[int] = None


class NaiveCache:
    """Pop-by-index cache with counts recomputed by scanning every call."""

    def __init__(self, n_s: int, n_l: Optional[int]) -> None:
        self.n_s = n_s
        self.n_l = n_l
        self.tokens: List[Sym] = []

    def entry(self, tok: Sym) -> None:
        self.tokens.append(tok)

    def exit_short(self) -> List[Sym]:
        evicted = []
        while sum(1 for t in self.tokens if t.kind == VISUAL) > self.n_s:
            idx = [i for i, t in enumerate(self.tokens) if t.kind == VISUAL][0]
            evicted.append(self.tokens.pop(idx))
        return evicted

    def exit_long(self) -> List[List[Sym]]:
        groups = []
        while self.n_l is not None and \
                sum(1 for t in self.tokens if t.kind == MARKER) > self.n_l:
            idx = [i for i, t in enumerate(self.tokens) if t.kind == MARKER][0]
            marker = self.tokens.pop(idx)
            group = [marker]
            while idx < len(self.tokens) and self.tokens[idx].kind == TEXT \
                    and self.tokens[idx].step_id == marker.step_id:
                group.append(self.tokens.pop(idx))
            groups.append(group)
        return groups

    def ids(self) -> Tuple[int, ...]:
        return tuple(t.id for t in self.tokens)


@dataclass
class NaiveTrace:
    """A literal replay of one strategy: every cache event as ``(t, op,
    token ids, kind)``, each frame's row as ``(t_s, live tokens, append
    flops, recompute flops, text-entry flops, prediction, correct,
    verbalized)``, the flops of every entry, and the frame after which a
    live-token cap stopped the replay, if one did."""

    events: List[Tuple[float, str, Tuple[int, ...], str]]
    rows: List[Tuple[float, int, int, int, int, int, bool, bool]]
    engine_total_flops: int
    truncated_at: Optional[int] = None

    def ops(self) -> List[Tuple[str, Tuple[int, ...]]]:
        return [(op, ids) for _, op, ids, _ in self.events]


def transcribe(kind: StrategyKind, stream: SyntheticStream, cfg: SimConfig,
               noise_p: float = 0.0, prompt_tokens: int = 4,
               live_token_cap: Optional[int] = None) -> NaiveTrace:
    """Literal transcription of the streaming loop under strategy ``kind``.

    Mirrors the package's token id allocation order and prediction stream.
    Every entered token costs one append at the live size it makes; a2 books
    a verbalized group's appends plus a re-encode of its prompt and visual
    tokens, one query at a time, over the grown text prefix. a1 never exits
    or verbalizes. With ``live_token_cap``, the replay stops after the first
    frame whose row counts more live tokens than the cap.
    """
    a1, a2 = kind is StrategyKind.PROGRESSIVE_VISUAL, kind is StrategyKind.VERBALIZED_SEPARATE
    d, layers = cfg.d, ENGINE_LAYERS
    cache = NaiveCache(cfg.N_S * cfg.tokens_per_frame, cfg.N_L)
    predictor = OraclePredictor(stream, noise_p, cfg.seed)
    trace = NaiveTrace([], [], 0)
    next_id = 0

    def take_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def enter(tok: Sym, t: float) -> int:
        cache.entry(tok)
        trace.events.append((t, "entry", (tok.id,), tok.kind))
        flops = append_flop_cost(len(cache.tokens), d, layers, cfg.vocab_size)
        trace.engine_total_flops += flops
        return flops

    for _ in range(prompt_tokens):
        enter(Sym(PROMPT, take_id()), 0.0)

    out: List[int] = []
    for t, step_id in zip(stream.times, stream.step_ids, strict=True):
        append = sum(enter(Sym(VISUAL, take_id()), t) for _ in range(cfg.tokens_per_frame))
        if not a1:
            evicted = cache.exit_short()
            trace.events.append((t, "exit_short", tuple(s.id for s in evicted), VISUAL))
        pred = predictor.predict(step_id)
        # out[-tau:] with tau == 0 must mean an empty window, not the whole
        # history (beware python's out[-0:])
        window = out[-cfg.tau:] if cfg.tau > 0 else []
        verbalized = not a1 and pred not in window
        recompute = text = 0
        if verbalized:
            group = [Sym(MARKER, take_id(), pred)]
            group += [Sym(TEXT, take_id(), pred)
                      for _ in range(int(stream.class_token_counts[pred]))]
            group_flops = sum(enter(tok, t) for tok in group)
            if a2:
                n_short = sum(1 for s in cache.tokens if s.kind in (PROMPT, VISUAL))
                n_long = len(cache.tokens) - n_short
                # query i of the short part attends over the long prefix and
                # the short tokens up to itself; no output head
                recompute = group_flops + sum(layers * (4 * d * d + 2 * d * (n_long + i))
                                              for i in range(1, n_short + 1))
            else:
                text = group_flops
            dropped = cache.exit_long()
            trace.events.append((t, "exit_long", tuple(s.id for g in dropped for s in g),
                                 MARKER))
        out.append(pred)
        trace.rows.append((t, len(cache.tokens), append, recompute, text, pred,
                           pred == step_id, verbalized))
        if live_token_cap is not None and len(cache.tokens) > live_token_cap:
            trace.truncated_at = len(trace.rows) - 1
            break
    return trace


@dataclass
class StepRecord:
    """A procedural step: class id, temporal span, and verbal description length."""

    step_id: int
    start_s: float
    end_s: float
    text_token_count: int


@dataclass
class NaiveStream:
    """A stream as its first form held it: every frame's time, step id and
    feature row, all made before the first frame is read."""

    times: List[float]
    step_ids: List[int]
    features: np.ndarray  # (frames, d)
    class_token_counts: np.ndarray

    def walk(self):
        """Each frame's time, step id and feature row, in frame order."""
        return zip(self.times, self.step_ids, self.features, strict=True)


def generate_stream(cfg: SimConfig, duration_s: float, n_classes: int = 20) -> NaiveStream:
    """Deterministic stream: step durations are clamped normals around
    ``mean_step_s`` and adjacent steps always change class."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57]))
    prototypes = rng.standard_normal((n_classes, cfg.d))
    # description lengths of 5 or 6 tokens, 70% long: mean 5.7 per class
    class_token_counts = 5 + (rng.random(n_classes) < 0.7).astype(np.int64)

    steps: List[StepRecord] = []
    t = 0.0
    prev_class = -1
    min_dur = 1.0 / cfg.fps
    while t < duration_s:
        c = int(rng.integers(n_classes))
        if c == prev_class:
            c = (c + 1) % n_classes
        dur = float(rng.normal(cfg.mean_step_s, cfg.step_s_jitter))
        dur = max(dur, min_dur)
        end = min(t + dur, duration_s)
        steps.append(StepRecord(step_id=c, start_s=t, end_s=end,
                                text_token_count=int(class_token_counts[c])))
        prev_class = c
        t = end

    n_frames = int(round(duration_s * cfg.fps))
    times: List[float] = []
    step_ids: List[int] = []
    features = np.empty((n_frames, cfg.d))
    step_idx = 0
    for i in range(n_frames):
        ts = i / cfg.fps
        while step_idx + 1 < len(steps) and ts >= steps[step_idx].end_s:
            step_idx += 1
        c = steps[step_idx].step_id
        times.append(ts)
        step_ids.append(c)
        features[i] = prototypes[c] + FEATURE_NOISE * rng.standard_normal(cfg.d)
    return NaiveStream(times, step_ids, features, class_token_counts)


def last_rows(weights: AttentionWeights, tokens: List[Token], k: int) -> np.ndarray:
    """The last ``k`` rows of ``full_recompute(weights, tokens)``, in the same
    einsum formulation: each layer's keys and values read the raw embeddings,
    so only the last k queries go through the stack, over (k, n) scores.
    ``tokens`` must be ordered by strictly increasing entry position."""
    positions = np.array([t.entry_position for t in tokens], dtype=np.int64)
    assert 1 <= k <= len(tokens) and np.all(np.diff(positions) > 0)
    d, h, dh = weights.d, weights.heads, weights.d // weights.heads
    emb = np.stack([np.asarray(t.embedding, dtype=np.float64) for t in tokens])
    n = emb.shape[0]
    x = emb[n - k:]
    deltas = positions[n - k:, None] - positions[None, :]
    bias_idx = np.clip(deltas, -REL_BIAS_CLIP, REL_BIAS_CLIP)
    causal = deltas >= 0
    for layer in range(weights.layers):
        q = (x @ weights.w_q[layer]).reshape(k, h, dh)
        keys = (emb @ weights.w_k[layer]).reshape(n, h, dh)
        v = (emb @ weights.w_v[layer]).reshape(n, h, dh)
        scores = np.einsum("ihd,jhd->hij", q, keys) / np.sqrt(dh)
        scores += weights.rel_bias[layer][:, np.abs(bias_idx)]
        scores = np.where(causal[None, :, :], scores, -np.inf)
        scores -= scores.max(axis=2, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=2, keepdims=True)
        mixed = np.einsum("hij,jhd->ihd", probs, v).reshape(k, d)
        x = x + mixed @ weights.w_o[layer]
    return x


MATCH_TIE_TOL = 1e-9


def _optimal_cost(cost: np.ndarray) -> float:
    if cost.size == 0 or cost.shape[0] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def lexicographic_match(cost: np.ndarray) -> List[int]:
    """Lexicographically smallest row -> column assignment whose cost lies
    within ``MATCH_TIE_TOL`` of the optimum: for each row, the first unused
    column whose best completion still reaches the optimum."""
    n_gt, n_pred = cost.shape
    if n_gt == 0:
        return []
    best = _optimal_cost(cost)
    assignment: List[int] = []
    used = np.zeros(n_pred, dtype=bool)
    acc = 0.0
    for i in range(n_gt):
        for j in range(n_pred):
            if used[j]:
                continue
            remaining = [c for c in range(n_pred) if not used[c] and c != j]
            tail = _optimal_cost(cost[np.ix_(range(i + 1, n_gt), remaining)]) \
                if i + 1 < n_gt else 0.0
            if acc + cost[i, j] + tail <= best + MATCH_TIE_TOL:
                assignment.append(j)
                used[j] = True
                acc += cost[i, j]
                break
        else:
            raise RuntimeError("assignment search failed")  # unreachable
    return assignment


def grad_check(params: Dict[str, np.ndarray],
               value_and_grad_fn: Callable[[Dict[str, np.ndarray]], Tuple[float, Dict[str, np.ndarray]]],
               eps: float, max_coords: int = 400,
               rng: Optional[np.random.Generator] = None) -> float:
    """Max relative error between analytic and central-difference gradients,
    over every coordinate or a seeded sample of ``max_coords`` of them; a
    coordinate that errs by more than ``GRAD_CHECK_TOL`` also takes the
    second-order one-sided differences at +-eps and +-2 eps, and keeps the
    smallest of its errors."""
    value, grads = value_and_grad_fn(params)
    coords = [(name, idx) for name in sorted(params)
              for idx in np.ndindex(params[name].shape)]
    if len(coords) > max_coords:
        rng = rng if rng is not None else np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]
    worst = 0.0
    for name, idx in coords:
        original = params[name][idx]
        params[name][idx] = original + eps
        up = value_and_grad_fn(params)[0]
        params[name][idx] = original - eps
        down = value_and_grad_fn(params)[0]
        params[name][idx] = original
        numeric = (up - down) / (2 * eps)
        analytic = grads[name][idx]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        if rel > GRAD_CHECK_TOL:
            params[name][idx] = original + 2 * eps
            up2 = value_and_grad_fn(params)[0]
            params[name][idx] = original - 2 * eps
            down2 = value_and_grad_fn(params)[0]
            params[name][idx] = original
            errors = [rel]
            for one_sided in ((-3 * value + 4 * up - up2) / (2 * eps),
                              (3 * value - 4 * down + down2) / (2 * eps)):
                err = abs(one_sided - analytic) / max(abs(one_sided), abs(analytic), 1e-8)
                if not math.isnan(err):
                    errors.append(err)
            rel = min(errors)
        worst = max(worst, rel)
    return worst


def save_scene(scene: Scene, path: str) -> None:
    """Write ``scene`` as a scene file: base64 patches, boxes and caption."""
    boxes = [dict(vars(b), kind="hand") for b in scene.hands]
    boxes += [dict(vars(b), kind="object") for b in scene.objects]
    doc = {"patches": base64.b64encode(scene.patches.astype("<f8").tobytes()).decode(),
           "side": scene.side, "dim": scene.patches.shape[1], "gt_boxes": boxes,
           "caption": scene.caption}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def train_toy(params: Dict[str, np.ndarray], decoder: CaptionDecoder,
              scenes: Sequence[Scene], epochs: int, lr: float,
              lambda_1: float = 2.0) -> TrainResult:
    """Cosine-annealed gradient descent, the gradient sum started from zeros."""
    rows = []
    for epoch in range(epochs):
        sums = np.zeros(3)
        grad_acc = {name: np.zeros_like(arr) for name, arr in params.items()}
        for scene in scenes:
            losses, grads = stage1_value_and_grads(params, decoder, scene, lambda_1)
            if not np.isfinite(losses["total"]):
                raise TrainingDivergence(
                    f"non-finite loss at epoch {epoch}: {losses}")
            sums += (losses["total"], losses["lm"], losses["ho"])
            for name in grad_acc:
                grad_acc[name] += grads[name]
        rows.append(sums / len(scenes))
        step = lr * 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
        for name in params:
            params[name] = params[name] - (step / len(scenes)) * grad_acc[name]
    final = np.zeros(3)
    for scene in scenes:
        losses = stage1_losses(params, decoder, scene, lambda_1)
        final += (losses["total"], losses["lm"], losses["ho"])
    rows.append(final / len(scenes))
    return TrainResult(curve=np.array(rows))


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, each sign's side computed through a mask."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def giou_and_grad(pred_params: np.ndarray, gt_params: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """GIoU of broadcast (..., 4) center-format boxes of positive size, plus
    its gradient w.r.t. the predicted (cx, cy, w, h), as elementwise arrays.
    The connector's scalar ``_giou_pair`` evaluates each expression in the
    same order (a negation is its exact product with -1.0), so it gives the
    same bits."""
    a_lo, a_hi = _corner_pairs(np.asarray(pred_params, dtype=np.float64))
    b_lo, b_hi = _corner_pairs(np.asarray(gt_params, dtype=np.float64))
    size = a_hi - a_lo
    inter_wh = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    hull_wh = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    has_inter = (inter_wh > 0).all(-1, keepdims=True)
    inter = np.where(has_inter, inter_wh.prod(-1, keepdims=True), 0.0)
    union = size.prod(-1, keepdims=True) + (b_hi - b_lo).prod(-1, keepdims=True) - inter
    c_area = hull_wh.prod(-1, keepdims=True)
    value = (inter / union - (c_area - union) / c_area)[..., 0]

    # a corner coordinate moves each area by the other axis's extent; it moves
    # the overlap only inside the gt box's span and the hull only beyond it
    def d_corner(sign: float, beyond: np.ndarray) -> np.ndarray:
        d_area = sign * size[..., ::-1]
        d_inter = np.where(has_inter & ~beyond, sign * inter_wh[..., ::-1], 0.0)
        d_c = np.where(beyond, sign * hull_wh[..., ::-1], 0.0)
        d_union = d_area - d_inter
        d_iou = (d_inter * union - inter * d_union) / (union * union)
        return d_iou + (d_union * c_area - union * d_c) / (c_area * c_area)

    d_lo, d_hi = d_corner(-1.0, a_lo < b_lo), d_corner(1.0, a_hi > b_hi)
    # map corner grads back to center parametrization
    return value, np.concatenate([d_lo + d_hi, 0.5 * (d_hi - d_lo)], axis=-1)


def _box_cost(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """L1 + (1 - GIoU) pair costs of broadcast (..., 4) box arrays."""
    return np.abs(gt - pred).sum(-1) + (1.0 - giou_batch(pred, gt))


def stage1_forward_full_block(params, decoder, scene, lambda_1):
    """Stage 1's losses, forward intermediates and box terms, with every
    (gt, query) pair scored in one block: ``(losses, fwd, aux)`` as
    ``connector._stage1_forward`` returns them, with ``aux["g_giou"]`` added,
    each matched pair's GIoU gradient from the block's ``giou_and_grad``."""
    k = params["q_o"].shape[0]
    if len(scene.hands) > 2 or len(scene.objects) > k:
        raise ValueError("scene has more ground-truth boxes than queries")
    fwd = _forward(scene.patches, params)
    if not (np.all(np.isfinite(fwd["out"])) and np.all(np.isfinite(fwd["box_params"]))):
        raise TrainingDivergence("non-finite connector activations")
    targets = np.asarray(scene.caption, dtype=np.int64)
    cap = _caption_forward(decoder, fwd["tokens"], targets)
    lm, exp_rows, exp_sums = _lm_parts(cap["logits"], targets)
    gt = np.array([b.as_array() for b in scene.hands + scene.objects]).reshape(-1, 4)
    cost = _box_cost(gt[:, None], fwd["box_params"][None])
    g_giou = giou_and_grad(fwd["box_params"][None], gt[:, None])[1]
    n_h = len(scene.hands)
    cost_h, cost_o = cost[:n_h, :2].tolist(), cost[n_h:, 2:].tolist()
    sigma_h = _match(cost_h)
    sigma_o = _match(cost_o)
    ho = _matched_loss(cost_h, sigma_h, fwd["obj"][:2])
    ho += _matched_loss(cost_o, sigma_o, fwd["obj"][2:])
    losses = {"total": loss_total(lm, ho, lambda_1), "lm": lm, "ho": ho}
    matched = np.array(sigma_h + [2 + j for j in sigma_o], dtype=np.intp)
    return losses, fwd, {"cap": cap, "exp_rows": exp_rows, "exp_sums": exp_sums,
                         "targets": targets, "gt": gt, "matched": matched,
                         "g_giou": g_giou[np.arange(gt.shape[0]), matched]}
