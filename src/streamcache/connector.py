"""Cross-attention connector: compress a patch grid into a few tokens and
predict hand/object boxes from typed queries.

One cross-attention block: learnable queries attend over projected patch
features. The first ``m`` (visual) query outputs pass a d-projection and
become the compressed tokens; the two hand queries and ``k >= 1`` object
queries share a small MLP head emitting a box in center format plus an
objectness score. All trainable weights live in one params dict keyed by
``PARAM_KEYS``, built by ``init_connector``. Training pairs a
language-modeling loss (through a frozen caption readout) with a matched
GIoU + L1 box loss; gradients are written out by hand and checked against
central differences. Box assignments come from ``_match``: one
shortest-augmenting-path solve in plain Python (``_assign``), whose dual
potentials bound which tie-break candidates need a solve of their own.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .types import BBox

_MATCH_TIE_TOL = 1e-9
# cap on a scene file's side * side * dim: its float64 patches stay within 512 KiB
MAX_SCENE_FLOATS = 2 ** 16


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass
class PatchGrid:
    """Square grid of patch feature vectors, flattened row-major to (side^2, dim)."""

    patches: np.ndarray
    side: int = 16

    def validate(self) -> "PatchGrid":
        if self.patches.ndim != 2 or self.patches.shape[0] != self.side * self.side:
            raise ValueError(
                f"expected {self.side * self.side} patches, got shape {self.patches.shape}")
        if not np.all(np.isfinite(self.patches)):
            raise ValueError("patch features must be finite")
        return self

    @property
    def dim(self) -> int:
        return self.patches.shape[1]


PARAM_KEYS = ("q_v", "q_h", "q_o", "w_k", "w_v", "w_z", "w1", "b1", "w2", "b2")


def init_connector(feat_dim: int, d: int, m: int, k: int, d_mlp: int,
                   seed: int) -> Dict[str, np.ndarray]:
    """Seeded trainable parameter set for the connector."""
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    rng = np.random.default_rng(seed)

    def unif(fan_in, *shape):
        lim = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-lim, lim, size=shape)

    return {
        "q_v": unif(d, m, d),
        "q_h": unif(d, 2, d),
        "q_o": unif(d, k, d),
        "w_k": unif(feat_dim, feat_dim, d),
        "w_v": unif(feat_dim, feat_dim, d),
        "w_z": unif(d, d, d),
        "w1": unif(d, d, d_mlp),
        "b1": np.zeros(d_mlp),
        "w2": unif(d_mlp, d_mlp, 5),
        "b2": np.zeros(5),
    }


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward(patches: np.ndarray, params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Forward pass keeping every intermediate needed by the backward pass."""
    m = params["q_v"].shape[0]
    q_all = np.concatenate([params["q_v"], params["q_h"], params["q_o"]], axis=0)
    d = q_all.shape[1]
    if patches.shape[1] != params["w_k"].shape[0]:
        raise ValueError(
            f"patch dim {patches.shape[1]} != projection input {params['w_k'].shape[0]}")
    keys = patches @ params["w_k"]
    values = patches @ params["w_v"]
    scores = q_all @ keys.T / math.sqrt(d)
    attn = _softmax_rows(scores)
    ctx = attn @ values
    out = q_all + ctx
    tokens = out[:m] @ params["w_z"]
    box_in = out[m:]
    hidden = np.tanh(box_in @ params["w1"] + params["b1"])
    raw = hidden @ params["w2"] + params["b2"]
    # clamp off exact 0/1 so saturated heads still emit non-degenerate boxes
    box_params = np.clip(_sigmoid(raw[:, :4]), 1e-6, 1.0 - 1e-6)
    obj = _sigmoid(raw[:, 4])
    return {
        "q_all": q_all, "keys": keys, "values": values, "attn": attn,
        "out": out, "tokens": tokens, "box_in": box_in, "hidden": hidden,
        "box_params": box_params, "obj": obj, "m": m, "d": d,
    }


# ---------------------------------------------------------------------------
# generalized IoU
# ---------------------------------------------------------------------------

def _corner_pairs(params: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi) corners of center-format (..., 4) boxes, each (..., 2) as (x, y)."""
    center, half = params[..., :2], params[..., 2:] / 2
    return center - half, center + half


def giou_batch(a_params: np.ndarray, b_params: np.ndarray) -> np.ndarray:
    """Generalized IoU for paired (n, 4) center-format box arrays."""
    a_lo, a_hi = _corner_pairs(np.asarray(a_params, dtype=np.float64))
    b_lo, b_hi = _corner_pairs(np.asarray(b_params, dtype=np.float64))
    inter = np.clip(np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo), 0, None).prod(-1)
    union = (a_hi - a_lo).prod(-1) + (b_hi - b_lo).prod(-1) - inter
    c_area = (np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)).prod(-1)
    return inter / union - (c_area - union) / c_area


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU of two boxes, in (-1, 1]."""
    a.validate()
    b.validate()
    return float(giou_batch(a.as_array()[None, :], b.as_array()[None, :])[0])


def giou_and_grad(pred_params: np.ndarray, gt_params: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """GIoU of paired (..., 4) center-format boxes plus its gradient w.r.t.
    the predicted (cx, cy, w, h)."""
    a_lo, a_hi = _corner_pairs(pred_params)
    b_lo, b_hi = _corner_pairs(gt_params)
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


# ---------------------------------------------------------------------------
# matching and losses
# ---------------------------------------------------------------------------

def _box_array(boxes: Sequence[BBox]) -> np.ndarray:
    """Validated (n, 4) center-format array of ``boxes``."""
    return np.array([b.validate().as_array() for b in boxes]).reshape(-1, 4)


def _box_cost(gt: np.ndarray, pred: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """L1 + (1 - GIoU) pair costs of broadcast (..., 4) box arrays, and the
    GIoU gradient w.r.t. ``pred``."""
    value, grad = giou_and_grad(pred, gt)
    return np.abs(gt - pred).sum(-1) + (1.0 - value), grad


def _assign(cost: List[List[float]], m: int
            ) -> Tuple[List[int], List[float], List[float]]:
    """Minimum-cost assignment of each of the n <= ``m`` rows of ``cost`` to
    its own column, with the dual potentials that prove it optimal.

    Shortest augmenting paths over row potentials ``u`` and column potentials
    ``v`` (Jonker-Volgenant): each row in turn grows a Dijkstra tree over the
    reduced costs ``cost[i][j] - u[i] - v[j]`` until it reaches a free
    column, the potentials absorb the path lengths, and the path flips. At the
    end every reduced cost is >= 0 (up to rounding) and 0 on the assignment;
    ``v`` is <= 0, and 0 on every column left unassigned.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * m
    col_of, row_of = [-1] * n, [-1] * m
    for start in range(n):
        dist, pred, done = [math.inf] * m, [-1] * m, [False] * m
        cols = []
        i, base = start, 0.0
        while True:
            row, ui = cost[i], base - u[i]
            low, at = math.inf, -1
            for j in range(m):
                if done[j]:
                    continue
                d = ui + row[j] - v[j]
                if d < dist[j]:
                    dist[j], pred[j] = d, i
                else:
                    d = dist[j]
                if d < low or (d == low and row_of[j] < 0):  # a free column ends the path
                    low, at = d, j
            if low == math.inf:
                raise ValueError("no assignment of finite cost")
            base = low
            done[at] = True
            cols.append(at)
            i = row_of[at]
            if i < 0:
                break
        u[start] += base
        for j in cols:  # each column on the tree, and the row it held
            v[j] -= base - dist[j]
            if row_of[j] >= 0:
                u[row_of[j]] += base - dist[j]
        j = at
        while True:  # flip the path back to the starting row
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of, u, v


def _match(cost: np.ndarray) -> List[int]:
    """Lexicographically smallest row -> column assignment whose ``cost`` sum
    lies within ``_MATCH_TIE_TOL`` of the optimum.

    ``_assign`` solves once; the walk then goes row by row, trying each
    smaller unused column in turn. With ``r = cost - u - v`` the reduced
    costs of that solve's duals, any assignment costs the optimum plus at
    least its ``r`` sum (``r >= 0``, ``v <= 0`` and ``v == 0`` off the
    optimum). So the prefix's ``r`` sum, plus ``r[i, j]``, plus the remaining
    rows' minima of ``r`` over the remaining columns bounds a candidate's
    excess from below: one past the tolerance is skipped, and only the rest
    get an exact solve of their tail. ``r[i, j]`` alone rejects most
    candidates, so the minima are taken only when it does not. The
    acceptance test stays in raw costs, and a fit becomes the new reference.
    """
    rows = cost.tolist()
    if not math.isfinite(sum(map(sum, rows))):  # a NaN or an infinity survives the sum
        raise ValueError("assignment costs must be finite")
    m = cost.shape[1]
    ref, u, v = _assign(rows, m)
    acc, r = 0.0, None
    for i in range(len(ref)):
        used = ref[:i]
        for j in range(ref[i]):
            if j in used:
                continue
            if r is None:  # the first candidate: ref is still the solve, and the
                # rows with no smaller column to try never pay for these
                best = sum(rows[k][c] for k, c in enumerate(ref))
                r = [[c - ui - vj for c, vj in zip(row, v)] for row, ui in zip(rows, u)]
            low = sum(r[k][ref[k]] for k in range(i)) + r[i][j]
            if low > _MATCH_TIE_TOL:
                continue
            remaining = [c for c in range(m) if c != j and c not in used]
            if low + sum(min(r[k][c] for c in remaining) for k in range(i + 1, len(ref))) \
                    > _MATCH_TIE_TOL:
                continue
            tail_cost = [[rows[k][c] for c in remaining] for k in range(i + 1, len(ref))]
            tail_cols = _assign(tail_cost, len(remaining))[0]
            tail = sum(tail_cost[k][c] for k, c in enumerate(tail_cols))
            if acc + rows[i][j] + tail <= best + _MATCH_TIE_TOL:
                ref[i:] = [j] + [remaining[c] for c in tail_cols]
                break
        acc += rows[i][ref[i]]
    return ref


def _matched_loss(cost: np.ndarray, assignment: Sequence[int], scores: np.ndarray) -> float:
    """Assigned ``cost`` entries plus -log(1 - score) per unassigned column."""
    total = 0.0  # pair by pair: np.sum's pairwise order would move the last bits
    for i, j in enumerate(assignment):
        total += float(cost[i, j])
    for j in range(cost.shape[1]):
        if j not in assignment:
            total += -math.log(max(1.0 - scores[j], 1e-12))
    return total


def hungarian_match(pred: Sequence[BBox], gt: Sequence[BBox]) -> List[int]:
    """Injective gt -> pred assignment minimizing L1 + (1 - GIoU) pair costs.

    Among cost-minimizing assignments, returns the lexicographically smallest
    (sigma(0), sigma(1), ...).
    """
    n_gt, n_pred = len(gt), len(pred)
    if n_gt > n_pred:
        raise ValueError(f"more ground-truth boxes ({n_gt}) than predictions ({n_pred})")
    return _match(_box_cost(_box_array(gt)[:, None], _box_array(pred)[None])[0])


def loss_lm(logits: np.ndarray, targets: Sequence[int]) -> float:
    """Mean negative log-likelihood of the target ids under the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise ValueError("empty target sequence")
    if logits.ndim != 2 or logits.shape[0] != targets.shape[0]:
        raise ValueError(f"logit/target length mismatch: {logits.shape} vs {targets.shape}")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError("target id out of vocab range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(targets.size), targets]))


def loss_total(lm: float, ho: float, lambda_1: float) -> float:
    if lambda_1 < 0:
        raise ValueError(f"lambda_1 must be >= 0, got {lambda_1}")
    return lm + lambda_1 * ho


# ---------------------------------------------------------------------------
# frozen caption readout (toy stand-in for the language decoder)
# ---------------------------------------------------------------------------

BOS_ID = 0


@dataclass
class CaptionDecoder:
    """Frozen single-block cross-attention readout over the compressed tokens.

    Each caption position queries with the previous token's embedding and
    attends over the connector's output tokens; training never updates these
    arrays.
    """

    emb: np.ndarray   # (vocab, d)
    w_k2: np.ndarray  # (d, d)
    w_v2: np.ndarray  # (d, d)
    w_lm: np.ndarray  # (d, vocab)


def init_caption_decoder(d: int, vocab_size: int, seed: int) -> CaptionDecoder:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD]))
    lim = 1.0 / math.sqrt(d)
    return CaptionDecoder(
        emb=rng.uniform(-1, 1, size=(vocab_size, d)),
        w_k2=rng.uniform(-lim, lim, size=(d, d)),
        w_v2=rng.uniform(-lim, lim, size=(d, d)),
        w_lm=rng.uniform(-lim, lim, size=(d, vocab_size)),
    )


def _caption_forward(decoder: CaptionDecoder, tokens: np.ndarray,
                     targets: np.ndarray) -> Dict[str, np.ndarray]:
    d = decoder.emb.shape[1]
    prev = np.concatenate([[BOS_ID], targets[:-1]])
    q2 = decoder.emb[prev]
    if tokens.shape[0] > 0:
        k2 = tokens @ decoder.w_k2
        v2 = tokens @ decoder.w_v2
        s2 = q2 @ k2.T / math.sqrt(d)
        a2 = _softmax_rows(s2)
        ctx = a2 @ v2
    else:
        k2 = v2 = a2 = None
        ctx = np.zeros_like(q2)
    out = q2 + ctx
    logits = out @ decoder.w_lm
    return {"q2": q2, "k2": k2, "v2": v2, "a2": a2, "out": out, "logits": logits}


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    grid: PatchGrid
    hands: List[BBox]
    objects: List[BBox]
    caption: List[int]


def synth_patches(seed: int, side: int, dim: int, hands: Sequence[BBox],
                  objects: Sequence[BBox], noise: float = 0.05) -> np.ndarray:
    """Background noise plus an additive blob per ground-truth box.

    Two fixed channels ramp with patch x/y so attended features carry
    location; each box adds a seeded direction vector weighted by a Gaussian
    bump at its center.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C]))
    jj, ii = np.meshgrid(np.arange(side), np.arange(side))
    px = (jj.ravel() + 0.5) / side
    py = (ii.ravel() + 0.5) / side
    feats = noise * rng.standard_normal((side * side, dim))
    ramp_x = rng.standard_normal(dim) / math.sqrt(dim)
    ramp_y = rng.standard_normal(dim) / math.sqrt(dim)
    feats += np.outer(px, ramp_x) + np.outer(py, ramp_y)
    for slot, box in enumerate(list(hands) + list(objects)):
        direction = rng.standard_normal(dim) / math.sqrt(dim)
        radius = max(0.25 * (box.w + box.h), 1.0 / side)
        bump = np.exp(-((px - box.cx) ** 2 + (py - box.cy) ** 2) / (2 * radius * radius))
        feats += 2.0 * np.outer(bump, direction)
    return feats


def _random_box(rng: np.random.Generator) -> BBox:
    return BBox(
        cx=float(rng.uniform(0.25, 0.75)),
        cy=float(rng.uniform(0.25, 0.75)),
        w=float(rng.uniform(0.15, 0.35)),
        h=float(rng.uniform(0.15, 0.35)),
    )


def _derive_caption(hands: Sequence[BBox], objects: Sequence[BBox],
                    vocab_size: int, length: int = 5) -> List[int]:
    digest = 17
    for box in list(hands) + list(objects):
        for v in box.as_array():
            digest = (digest * 31 + int(round(v * 1000))) % (1 << 30)
    return [1 + (digest + 7 * i) % (vocab_size - 1) for i in range(length)]


def make_scene(seed: int, side: int = 16, dim: int = 48, n_hands: int = 2,
               n_objects: int = 2, noise: float = 0.05,
               vocab_size: int = 64) -> Scene:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E]))
    hands = [_random_box(rng) for _ in range(n_hands)]
    objects = [_random_box(rng) for _ in range(n_objects)]
    patches = synth_patches(seed, side, dim, hands, objects, noise)
    caption = [1 + int(x) for x in rng.integers(0, vocab_size - 1, size=5)]
    return Scene(PatchGrid(patches, side).validate(), hands, objects, caption)


def _scene_number(value, field: str, kind: type = float):
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"scene {field} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"scene {field} does not fit in a float") from None


def load_scene(path: str, vocab_size: int = 64) -> Scene:
    """Read a scene file; a malformed one raises ``ValueError`` (``KeyError``
    for a missing field). README's "Scene files" lists the rules."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a scene file must hold a JSON object")
    entries = doc["gt_boxes"]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("scene 'gt_boxes' must be a list of objects")
    side, dim = _scene_number(doc["side"], "'side'", int), _scene_number(doc["dim"], "'dim'", int)
    if side < 1 or dim < 1:
        raise ValueError(f"scene side and dim must be >= 1, got {side} and {dim}")
    if side * side * dim > MAX_SCENE_FLOATS:
        raise ValueError(f"scene side * side * dim is {side * side * dim}, above "
                         f"MAX_SCENE_FLOATS = {MAX_SCENE_FLOATS}")
    hands, objects = [], []
    for entry in entries:
        box = BBox(*(_scene_number(entry[f], f"box '{f}'") for f in ("cx", "cy", "w", "h")))
        box.validate()
        if not all(0.0 <= v <= 1.0 for v in (box.cx, box.cy, box.w, box.h)):
            raise ValueError(f"scene box fields are normalized to [0, 1], got {box}")
        (hands if entry.get("kind") == "hand" else objects).append(box)
    raw = doc["patches"]
    if isinstance(raw, str):
        buf = np.frombuffer(base64.b64decode(raw), dtype="<f8")
        patches = buf.reshape(side * side, dim).astype(np.float64)
    elif isinstance(raw, dict) and "seed" in raw:
        patches = synth_patches(_scene_number(raw["seed"], "patches 'seed'", int), side, dim,
                                hands, objects,
                                noise=_scene_number(raw.get("noise", 0.05), "patches 'noise'"))
    else:
        raise ValueError("scene 'patches' must be base64 data or {'seed': ...}")
    caption = doc.get("caption", [])
    if not isinstance(caption, list):
        raise ValueError(f"scene 'caption' must be a list of token ids, got {caption!r}")
    caption = [_scene_number(t, "caption id", int) for t in caption]
    if any(t < 0 or t >= vocab_size for t in caption):
        raise ValueError(f"scene caption ids must lie in [0, {vocab_size})")
    if not caption:
        caption = _derive_caption(hands, objects, vocab_size)
    return Scene(PatchGrid(patches, side).validate(), hands, objects, caption)


# ---------------------------------------------------------------------------
# joint loss with hand-written gradients
# ---------------------------------------------------------------------------

def stage1_losses(params: Dict[str, np.ndarray], decoder: CaptionDecoder,
                  scene: Scene, lambda_1: float) -> Dict[str, float]:
    value, _, _ = _stage1_forward(params, decoder, scene, lambda_1)
    return value


def _stage1_forward(params, decoder, scene, lambda_1):
    k = params["q_o"].shape[0]
    if len(scene.hands) > 2 or len(scene.objects) > k:
        raise ValueError("scene has more ground-truth boxes than queries")
    fwd = _forward(scene.grid.patches, params)
    if not (np.all(np.isfinite(fwd["out"])) and np.all(np.isfinite(fwd["box_params"]))):
        raise TrainingDivergence("non-finite connector activations")
    targets = np.asarray(scene.caption, dtype=np.int64)
    cap = _caption_forward(decoder, fwd["tokens"], targets)
    lm = loss_lm(cap["logits"], targets)

    # one (gt x prediction) block: hand rows match the first 2 columns, objects the rest
    gt = _box_array(scene.hands + scene.objects)
    cost, g_giou = _box_cost(gt[:, None], fwd["box_params"][None])
    n_h = len(scene.hands)
    sigma_h = _match(cost[:n_h, :2])
    sigma_o = _match(cost[n_h:, 2:])
    ho = _matched_loss(cost[:n_h, :2], sigma_h, fwd["obj"][:2])
    ho += _matched_loss(cost[n_h:, 2:], sigma_o, fwd["obj"][2:])
    total = loss_total(lm, ho, lambda_1)
    losses = {"total": total, "lm": lm, "ho": ho}
    matched = np.array(sigma_h + [2 + j for j in sigma_o], dtype=np.intp)
    return losses, fwd, {"cap": cap, "targets": targets, "gt": gt, "matched": matched,
                         "g_giou": g_giou[np.arange(gt.shape[0]), matched]}


def stage1_value_and_grads(params: Dict[str, np.ndarray], decoder: CaptionDecoder,
                           scene: Scene, lambda_1: float
                           ) -> Tuple[Dict[str, float], Dict[str, np.ndarray]]:
    """Joint loss and hand-derived gradients w.r.t. every connector parameter.

    The box assignment is recomputed here and treated as a constant of the
    differentiation, the usual set-prediction convention.
    """
    losses, fwd, aux = _stage1_forward(params, decoder, scene, lambda_1)
    m, d = fwd["m"], fwd["d"]
    cap, targets = aux["cap"], aux["targets"]
    n_t = targets.size
    patches = scene.grid.patches

    # language path: cross-entropy -> frozen readout -> compressed tokens
    probs = _softmax_rows(cap["logits"])
    dlogits = probs.copy()
    dlogits[np.arange(n_t), targets] -= 1.0
    dlogits /= n_t
    d_out_cap = dlogits @ decoder.w_lm.T
    if m > 0:
        d_ctx = d_out_cap
        d_a2 = d_ctx @ cap["v2"].T
        d_v2 = cap["a2"].T @ d_ctx
        d_s2 = cap["a2"] * (d_a2 - (d_a2 * cap["a2"]).sum(axis=1, keepdims=True))
        d_k2 = d_s2.T @ cap["q2"] / math.sqrt(d)
        d_tokens = d_k2 @ decoder.w_k2.T + d_v2 @ decoder.w_v2.T
    else:
        d_tokens = np.zeros((0, d))

    # box path: matched GIoU + L1, unmatched no-object penalty (scaled by lambda)
    box_params = fwd["box_params"]
    matched = aux["matched"]
    d_box = np.zeros_like(box_params)
    d_box[matched] += lambda_1 * (-aux["g_giou"] + np.sign(box_params[matched] - aux["gt"]))
    unmatched = np.ones(box_params.shape[0], dtype=bool)
    unmatched[matched] = False
    d_raw = np.zeros((box_params.shape[0], 5))
    d_raw[:, :4] = d_box * box_params * (1.0 - box_params)
    # d/d raw of -log(1 - sigmoid(raw)) is sigmoid(raw)
    d_raw[unmatched, 4] += lambda_1 * fwd["obj"][unmatched]
    d_hidden = d_raw @ params["w2"].T
    d_w2 = fwd["hidden"].T @ d_raw
    d_b2 = d_raw.sum(axis=0)
    d_pre = d_hidden * (1.0 - fwd["hidden"] ** 2)
    d_w1 = fwd["box_in"].T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    d_box_in = d_pre @ params["w1"].T

    # merge both paths into the cross-attention block
    # with m = 0 the (d, 0) @ (0, d) product is already the zero gradient
    d_w_z = fwd["out"][:m].T @ d_tokens
    d_out = np.zeros_like(fwd["out"])
    d_out[:m] = d_tokens @ params["w_z"].T
    d_out[m:] += d_box_in

    d_q_all = d_out.copy()
    d_attn = d_out @ fwd["values"].T
    d_values = fwd["attn"].T @ d_out
    d_scores = fwd["attn"] * (d_attn - (d_attn * fwd["attn"]).sum(axis=1, keepdims=True))
    d_q_all += d_scores @ fwd["keys"] / math.sqrt(d)
    d_keys = d_scores.T @ fwd["q_all"] / math.sqrt(d)
    grads = {
        "q_v": d_q_all[:m],
        "q_h": d_q_all[m:m + 2],
        "q_o": d_q_all[m + 2:],
        "w_k": patches.T @ d_keys,
        "w_v": patches.T @ d_values,
        "w_z": d_w_z,
        "w1": d_w1,
        "b1": d_b1,
        "w2": d_w2,
        "b2": d_b2,
    }
    return losses, grads


# ---------------------------------------------------------------------------
# gradient checking and the toy trainer
# ---------------------------------------------------------------------------

def grad_check(params: Dict[str, np.ndarray],
               value_and_grad_fn: Callable[[Dict[str, np.ndarray]], Tuple[float, Dict[str, np.ndarray]]],
               eps: float, max_coords: int = 400,
               rng: Optional[np.random.Generator] = None,
               value_fn: Optional[Callable[[Dict[str, np.ndarray]], float]] = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator. All
    coordinates are checked when the parameter count allows, otherwise a
    seeded sample of ``max_coords``. The perturbed evaluations call
    ``value_fn``, which must return the same value as ``value_and_grad_fn``
    without its gradients, when given.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if max_coords < 1:
        raise ValueError(f"max_coords must be >= 1, got {max_coords}")
    value, grads = value_and_grad_fn(params)
    if value_fn is None:
        def value_fn(p):
            return value_and_grad_fn(p)[0]
    if not np.isfinite(value):
        raise ValueError("loss is not finite at the evaluation point")
    # coordinates are numbered in sorted-name, row-major order and never listed
    names = sorted(params)
    sizes = [params[name].size for name in names]
    ends, total = np.cumsum(sizes), sum(sizes)
    if total > max_coords:
        rng = rng if rng is not None else np.random.default_rng(0)
        picks = rng.choice(total, size=max_coords, replace=False)
    else:
        picks = range(total)
    worst = 0.0
    for c in picks:
        k = int(np.searchsorted(ends, c, side="right"))
        name = names[k]
        idx = np.unravel_index(c - (ends[k] - sizes[k]), params[name].shape)
        original = params[name][idx]
        params[name][idx] = original + eps
        up = value_fn(params)
        params[name][idx] = original - eps
        down = value_fn(params)
        params[name][idx] = original
        numeric = (up - down) / (2 * eps)
        analytic = grads[name][idx]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)
    return worst


@dataclass
class TrainResult:
    """Per-epoch (total, lm, ho) losses; row 0 is the pre-training value."""

    curve: np.ndarray  # (epochs + 1, 3)

    @property
    def initial_ho(self) -> float:
        return float(self.curve[0, 2])

    @property
    def final_ho(self) -> float:
        return float(self.curve[-1, 2])


def train_toy(params: Dict[str, np.ndarray], decoder: CaptionDecoder,
              scenes: Sequence[Scene], epochs: int, lr: float,
              lambda_1: float = 2.0) -> TrainResult:
    """Plain gradient descent on the connector parameters only.

    The step size follows a cosine schedule annealed to zero, which settles
    the constant-magnitude L1 gradients near the optimum. The caption decoder
    stays frozen. Raises ``TrainingDivergence`` when the loss goes non-finite.
    """
    if not scenes:
        raise ValueError("need at least one scene")
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
