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
central differences, and one-sided ones where a GIoU kink defeats those. A
``Scene`` checks its patches when built and keeps, read-only, its box array
and its caption ids. A step scores only the pairs the matcher reads, the hand
boxes against the 2 hand queries and the object boxes against the object queries.
``_pair_block`` scores each such block, and ``hungarian_match``'s too, into
lists of each pair's cost, L1 + (1 - GIoU), from one scalar pass over Python
floats per pair (``_pair_cost``). The matcher reads those lists as they are.
Scoring computes values only: the backward takes the GIoU gradient
of each matched pair alone, from ``_giou_pair``, the one gradient body.
Box assignments come from ``_match``: one shortest-augmenting-path
solve in plain Python (``_assign``), whose dual potentials bound which
tie-break candidates need a solve of their own.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT_LAMBDA_1
from .types import BBox

_MATCH_TIE_TOL = 1e-9
# cap on a scene file's side * side * dim: its float64 patches stay within 512 KiB
MAX_SCENE_FLOATS = 2 ** 16
# caps on a scene file's boxes and caption ids: gradcheck's time grows about
# as the cube of the box count and linearly in the caption length
MAX_SCENE_BOXES = 32
MAX_SCENE_CAPTION = 256
# grad_check retries a coordinate whose relative error exceeds this, and
# gradcheck passes a check whose worst error is within it
GRAD_CHECK_TOL = 1e-4


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

PARAM_KEYS = ("q_v", "q_h", "q_o", "w_k", "w_v", "w_z", "w1", "b1", "w2", "b2")


def init_connector(feat_dim: int, d: int, m: int, k: int, d_mlp: int,
                   seed: int) -> Dict[str, np.ndarray]:
    """Seeded trainable parameter set for the connector; ``ValueError`` for a
    ``feat_dim``, ``d`` or ``d_mlp`` below 1, a negative ``m`` or no object query."""
    if min(feat_dim, d, d_mlp) < 1:
        raise ValueError(f"need feat_dim, d and d_mlp >= 1, got {feat_dim}, {d} and {d_mlp}")
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
    # exp(-|x|) never overflows, and it is exp(-x) where x >= 0 and exp(x)
    # elsewhere; minimum returns its first NaN, so a NaN keeps its sign bit
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    heads = _sigmoid(raw)
    # clamp off exact 0/1 so saturated heads still emit non-degenerate boxes
    box_params = np.minimum(np.maximum(heads[:, :4], 1e-6), 1.0 - 1e-6)
    obj = heads[:, 4]
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
    """Generalized IoU of broadcast (..., 4) center-format box arrays, in
    (-1, 1]; ``ValueError`` for a row with a non-finite value or a
    non-positive ``w`` or ``h``, as ``giou`` raises."""
    a, b = np.asarray(a_params, dtype=np.float64), np.asarray(b_params, dtype=np.float64)
    for boxes in (a, b):
        if not np.isfinite(boxes).all():
            raise ValueError("non-finite box in giou_batch")
        if not (boxes[..., 2:] > 0).all():
            raise ValueError("degenerate box in giou_batch: every w and h must be > 0")
    a_lo, a_hi = _corner_pairs(a)
    b_lo, b_hi = _corner_pairs(b)
    inter_wh = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
    hull_wh = np.maximum(a_hi, b_hi) - np.minimum(a_lo, b_lo)
    inter = np.where((inter_wh > 0).all(-1), inter_wh.prod(-1), 0.0)
    union = (a_hi - a_lo).prod(-1) + (b_hi - b_lo).prod(-1) - inter
    c_area = hull_wh.prod(-1)
    return inter / union - (c_area - union) / c_area


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU of two boxes, in (-1, 1]."""
    return float(_giou_pair((a.cx, a.cy, a.w, a.h), (b.cx, b.cy, b.w, b.h)))


def _axis_grad(lo_beyond: bool, hi_beyond: bool, size: float, overlap: float, hull: float,
               has_inter: bool, inter: float, union: float, c_area: float
               ) -> Tuple[float, float]:
    """GIoU's slope in one axis's center and extent, from the predicted box's
    lo and hi corners on that axis; ``size``, ``overlap`` and ``hull`` are
    the other axis's extents, by which a corner moves each area. A corner
    moves the overlap only inside the gt box's span and the hull only beyond it."""
    uu, cc = union * union, c_area * c_area
    d_inter = -overlap if has_inter and not lo_beyond else 0.0
    d_c = -hull if lo_beyond else 0.0
    d_union = -size - d_inter
    d_lo = (d_inter * union - inter * d_union) / uu + (d_union * c_area - union * d_c) / cc
    d_inter = overlap if has_inter and not hi_beyond else 0.0
    d_c = hull if hi_beyond else 0.0
    d_union = size - d_inter
    d_hi = (d_inter * union - inter * d_union) / uu + (d_union * c_area - union * d_c) / cc
    return d_lo + d_hi, 0.5 * (d_hi - d_lo)


def _giou_pair(a: Sequence[float], b: Sequence[float],
               grad: bool = False) -> Union[float, List[float]]:
    """GIoU of one center-format pair over Python floats, with the same bits
    as ``giou_batch``; with ``grad``, [value, d_cx, d_cy, d_w, d_h], its
    gradient w.r.t. ``a`` appended."""
    (acx, acy, aw, ah), (bcx, bcy, bw, bh) = a, b
    ahw, ahh, bhw, bhh = aw / 2, ah / 2, bw / 2, bh / 2
    alx, aly, aux, auy = acx - ahw, acy - ahh, acx + ahw, acy + ahh
    blx, bly, bux, buy = bcx - bhw, bcy - bhh, bcx + bhw, bcy + bhh
    sx, sy = aux - alx, auy - aly
    ix = (aux if aux < bux else bux) - (alx if alx > blx else blx)
    iy = (auy if auy < buy else buy) - (aly if aly > bly else bly)
    hx = (aux if aux > bux else bux) - (alx if alx < blx else blx)
    hy = (auy if auy > buy else buy) - (aly if aly < bly else bly)
    has_inter = ix > 0 and iy > 0
    inter = ix * iy if has_inter else 0.0
    union = sx * sy + (bux - blx) * (buy - bly) - inter
    c_area = hx * hy
    value = inter / union - (c_area - union) / c_area
    if not grad:
        return value
    d_cx, d_w = _axis_grad(alx < blx, aux > bux, sy, iy, hy, has_inter, inter, union, c_area)
    d_cy, d_h = _axis_grad(aly < bly, auy > buy, sx, ix, hx, has_inter, inter, union, c_area)
    return [value, d_cx, d_cy, d_w, d_h]


def _pair_cost(g: Sequence[float], p: Sequence[float]) -> float:
    """One gt/prediction pair's L1 + (1 - GIoU) over Python floats. L1 adds
    left to right, the order of numpy's sum over a 4-wide row, so it has the
    bits of the same cost over ``giou_batch``'s arrays."""
    return (((abs(g[0] - p[0]) + abs(g[1] - p[1])) + abs(g[2] - p[2]))
            + abs(g[3] - p[3])) + (1.0 - _giou_pair(p, g))


# ---------------------------------------------------------------------------
# matching and losses
# ---------------------------------------------------------------------------

def _box_array(boxes: Sequence[BBox]) -> np.ndarray:
    """(n, 4) center-format array of ``boxes``, valid as every ``BBox`` is."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _pair_block(gt: np.ndarray, pred: np.ndarray) -> List[List[float]]:
    """Each (n, 4) ``gt`` box's L1 + (1 - GIoU) cost against each (m, 4)
    ``pred`` box as Python floats: n lists of m."""
    preds = pred.tolist()
    return [[_pair_cost(g, p) for p in preds] for g in gt.tolist()]


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


def _match(rows: List[List[float]]) -> List[int]:
    """Lexicographically smallest row -> column assignment whose cost sum, over
    the cost ``rows``, lies within ``_MATCH_TIE_TOL`` of the optimum.

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
    if not math.isfinite(sum(map(sum, rows))):  # a NaN or an infinity survives the sum
        raise ValueError("assignment costs must be finite")
    m = len(rows[0]) if rows else 0
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


def _matched_loss(rows: List[List[float]], assignment: Sequence[int],
                  scores: np.ndarray) -> float:
    """Assigned entries of the cost ``rows`` plus -log(1 - score) per
    unassigned column, one column per score."""
    total = 0.0  # pair by pair: np.sum's pairwise order would move the last bits
    for i, j in enumerate(assignment):
        total += rows[i][j]
    for j in range(len(scores)):
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
    return _match(_pair_block(_box_array(gt), _box_array(pred)))


def loss_lm(logits: np.ndarray, targets: Sequence[int]) -> float:
    """Mean negative log-likelihood of the target ids under the logits."""
    return _lm_parts(logits, targets)[0]


def _lm_parts(logits: np.ndarray, targets: Sequence[int]
              ) -> Tuple[float, np.ndarray, np.ndarray]:
    """``loss_lm`` with the shifted exponentials and their row sums, from which
    the backward takes the softmax rows."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise ValueError("empty target sequence")
    if logits.ndim != 2 or logits.shape[0] != targets.shape[0]:
        raise ValueError(f"logit/target length mismatch: {logits.shape} vs {targets.shape}")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError("target id out of vocab range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1)
    lm = float((np.log(z) - shifted[np.arange(targets.size), targets]).sum() / targets.size)
    return lm, e, z


def _check_lambda_1(lambda_1: float) -> None:
    if not (math.isfinite(lambda_1) and lambda_1 >= 0):
        raise ValueError(f"lambda_1 must be finite and >= 0, got {lambda_1}")


def loss_total(lm: float, ho: float, lambda_1: float) -> float:
    _check_lambda_1(lambda_1)
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

@dataclass(frozen=True)
class Scene:
    """A square grid of patch features, ``(side * side, dim)`` row-major,
    with its ground-truth hand and object boxes and caption.

    Building a scene raises ``ValueError`` for patches of another shape or
    with a non-finite value. It stores read-only what every training step
    reads of its boxes, valid as every ``BBox`` is: ``boxes``, the
    (hands + objects, 4) center-format array, hands first, and
    ``caption_ids``, the caption as int64. ``hands``, ``objects`` and
    ``caption`` are kept as tuples, and ``dataclasses.replace`` builds all
    three anew.
    """

    patches: np.ndarray
    side: int
    hands: Tuple[BBox, ...]
    objects: Tuple[BBox, ...]
    caption: Tuple[int, ...]
    boxes: np.ndarray = field(init=False, repr=False, compare=False)
    caption_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.patches.ndim != 2 or self.patches.shape[0] != self.side * self.side:
            raise ValueError(
                f"expected {self.side * self.side} patches, got shape {self.patches.shape}")
        if not np.all(np.isfinite(self.patches)):
            raise ValueError("patch features must be finite")
        hands, objects, caption = tuple(self.hands), tuple(self.objects), tuple(self.caption)
        boxes = _box_array(hands + objects)
        caption_ids = np.array(caption, dtype=np.int64)
        boxes.flags.writeable = caption_ids.flags.writeable = False
        for name, value in (("hands", hands), ("objects", objects), ("caption", caption),
                            ("boxes", boxes), ("caption_ids", caption_ids)):
            object.__setattr__(self, name, value)  # a frozen dataclass sets fields this way


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
    """A seeded synthetic scene; ``ValueError`` for ``n_hands`` outside 0-2, a
    negative ``n_objects``, a ``side`` or ``dim`` below 1 or a ``vocab_size``
    below 2, before anything is drawn."""
    if not 0 <= n_hands <= 2 or n_objects < 0:
        raise ValueError(f"need 0 <= n_hands <= 2 and n_objects >= 0, "
                         f"got {n_hands} and {n_objects}")
    if side < 1 or dim < 1 or vocab_size < 2:
        raise ValueError(f"need side and dim >= 1 and vocab_size >= 2, "
                         f"got {side}, {dim} and {vocab_size}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E]))
    hands = [_random_box(rng) for _ in range(n_hands)]
    objects = [_random_box(rng) for _ in range(n_objects)]
    patches = synth_patches(seed, side, dim, hands, objects, noise)
    caption = [1 + int(x) for x in rng.integers(0, vocab_size - 1, size=5)]
    return Scene(patches, side, hands, objects, caption)


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
    if len(entries) > MAX_SCENE_BOXES:
        raise ValueError(f"scene has {len(entries)} gt_boxes, above "
                         f"MAX_SCENE_BOXES = {MAX_SCENE_BOXES}")
    side, dim = _scene_number(doc["side"], "'side'", int), _scene_number(doc["dim"], "'dim'", int)
    if side < 1 or dim < 1:
        raise ValueError(f"scene side and dim must be >= 1, got {side} and {dim}")
    if side * side * dim > MAX_SCENE_FLOATS:
        raise ValueError(f"scene side * side * dim is {side * side * dim}, above "
                         f"MAX_SCENE_FLOATS = {MAX_SCENE_FLOATS}")
    hands, objects = [], []
    for entry in entries:
        box = BBox(*(_scene_number(entry[f], f"box '{f}'") for f in ("cx", "cy", "w", "h")))
        if not all(0.0 <= v <= 1.0 for v in (box.cx, box.cy, box.w, box.h)):
            raise ValueError(f"scene box fields are normalized to [0, 1], got {box}")
        (hands if entry.get("kind") == "hand" else objects).append(box)
    if len(hands) > 2:
        raise ValueError(f"scene has {len(hands)} hand boxes; the connector has 2 hand queries")
    caption = doc.get("caption", [])
    if not isinstance(caption, list):
        raise ValueError(f"scene 'caption' must be a list of token ids, got {caption!r}")
    if len(caption) > MAX_SCENE_CAPTION:
        raise ValueError(f"scene caption has {len(caption)} ids, above "
                         f"MAX_SCENE_CAPTION = {MAX_SCENE_CAPTION}")
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
    caption = [_scene_number(t, "caption id", int) for t in caption]
    if any(t < 0 or t >= vocab_size for t in caption):
        raise ValueError(f"scene caption ids must lie in [0, {vocab_size})")
    if not caption:
        caption = _derive_caption(hands, objects, vocab_size)
    return Scene(patches, side, hands, objects, caption)


# ---------------------------------------------------------------------------
# joint loss with hand-written gradients
# ---------------------------------------------------------------------------

def stage1_losses(params: Dict[str, np.ndarray], decoder: CaptionDecoder,
                  scene: Scene, lambda_1: float) -> Dict[str, float]:
    value, _, _ = _stage1_forward(params, decoder, scene, lambda_1)
    return value


def _stage1_forward(params, decoder, scene, lambda_1):
    k = params["q_o"].shape[0]
    n_h, n_o = len(scene.hands), len(scene.objects)
    if n_h > 2 or n_o > k:
        raise ValueError("scene has more ground-truth boxes than queries")
    fwd = _forward(scene.patches, params)
    if not (np.isfinite(fwd["out"]).all() and np.isfinite(fwd["tokens"]).all()
            and np.isfinite(fwd["box_params"]).all()):
        raise TrainingDivergence("non-finite connector activations")
    targets = scene.caption_ids
    cap = _caption_forward(decoder, fwd["tokens"], targets)
    lm, exp_rows, exp_sums = _lm_parts(cap["logits"], targets)

    # only the pairs the matcher reads: the hand boxes against the 2 hand
    # queries, then the object boxes against the k object queries
    ho, matched = 0.0, []
    for gt, lo, hi in ((scene.boxes[:n_h], 0, 2), (scene.boxes[n_h:], 2, 2 + k)):
        rows = _pair_block(gt, fwd["box_params"][lo:hi])
        sigma = _match(rows)
        ho += _matched_loss(rows, sigma, fwd["obj"][lo:hi])
        matched += [lo + j for j in sigma]
    losses = {"total": loss_total(lm, ho, lambda_1), "lm": lm, "ho": ho}
    return losses, fwd, {"cap": cap, "exp_rows": exp_rows, "exp_sums": exp_sums,
                         "targets": targets, "gt": scene.boxes,
                         "matched": np.array(matched, dtype=np.intp)}


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
    patches = scene.patches

    # language path: cross-entropy -> frozen readout -> compressed tokens
    dlogits = aux["exp_rows"] / aux["exp_sums"][:, None]  # the softmax rows
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
    box_params, matched, gt = fwd["box_params"], aux["matched"], aux["gt"]
    pred = box_params[matched]
    g_giou = np.array([_giou_pair(p, g, grad=True)[1:]
                       for p, g in zip(pred.tolist(), gt.tolist())]).reshape(-1, 4)
    d_box = np.zeros_like(box_params)
    d_box[matched] += lambda_1 * (-g_giou + np.sign(pred - gt))
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
    """Max relative error between analytic and finite-difference gradients.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator. All
    coordinates are checked when the parameter count allows, otherwise a
    seeded sample of ``max_coords``. A coordinate whose central difference
    errs by more than ``GRAD_CHECK_TOL`` is retried one-sided, at +-2 eps
    too, with the second-order stencils (-3 f(0) + 4 f(h) - f(2h)) / 2h and
    (3 f(0) - 4 f(-h) + f(-2h)) / 2h, and keeps the smallest of its three
    errors: a kink, as GIoU has where two box edges meet, within eps on one
    side leaves the other side's stencil smooth. The perturbed evaluations
    call ``value_fn``, which must return the same value as
    ``value_and_grad_fn`` without its gradients, when given. A NaN error, as
    from a NaN gradient, ends the check and is returned."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
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

    def value_at(name, idx, original, step):
        params[name][idx] = original + step
        out = value_fn(params)
        params[name][idx] = original
        return out

    def rel_error(numeric, analytic):
        return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)

    worst = 0.0
    for c in picks:
        k = int(np.searchsorted(ends, c, side="right"))
        name = names[k]
        idx = np.unravel_index(c - (ends[k] - sizes[k]), params[name].shape)
        original, analytic = params[name][idx], grads[name][idx]
        up, down = value_at(name, idx, original, eps), value_at(name, idx, original, -eps)
        rel = rel_error((up - down) / (2 * eps), analytic)
        if math.isnan(rel):  # max() would drop it
            return rel
        if rel > GRAD_CHECK_TOL:
            up2 = value_at(name, idx, original, 2 * eps)
            down2 = value_at(name, idx, original, -2 * eps)
            # min() keeps rel over a NaN one-sided error
            rel = min(rel, rel_error((-3 * value + 4 * up - up2) / (2 * eps), analytic),
                      rel_error((3 * value - 4 * down + down2) / (2 * eps), analytic))
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
              lambda_1: float = DEFAULT_LAMBDA_1) -> TrainResult:
    """Plain gradient descent on the connector parameters only.

    The step size follows a cosine schedule annealed to zero, which settles
    the constant-magnitude L1 gradients near the optimum. The caption decoder
    stays frozen. Raises ``ValueError`` for no scenes, ``epochs < 0``, a
    non-finite ``lr`` or a negative or non-finite ``lambda_1`` before any
    step, and ``TrainingDivergence`` when the loss goes non-finite.
    """
    if not scenes:
        raise ValueError("need at least one scene")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not math.isfinite(lr):
        raise ValueError(f"lr must be finite, got {lr}")
    _check_lambda_1(lambda_1)
    rows = []
    for epoch in range(epochs):
        sums = np.zeros(3)
        grad_acc = None
        for scene in scenes:
            losses, grads = stage1_value_and_grads(params, decoder, scene, lambda_1)
            if not np.isfinite(losses["total"]):
                raise TrainingDivergence(
                    f"non-finite loss at epoch {epoch}: {losses}")
            sums += (losses["total"], losses["lm"], losses["ho"])
            grad_acc = grads if grad_acc is None else {
                name: grad_acc[name] + grads[name] for name in grad_acc}
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
