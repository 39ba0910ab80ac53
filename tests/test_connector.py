import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import streamcache.connector as connector
from streamcache import (BBox, PatchGrid, Scene, TrainingDivergence, giou, giou_batch, grad_check,
                         hungarian_match, init_caption_decoder, init_connector, load_scene,
                         loss_lm, loss_total, make_scene, stage1_losses,
                         stage1_value_and_grads, train_toy)
from streamcache.connector import _assign, _forward, _giou_pair, _match

import naive_reference
from naive_reference import _box_cost, giou_and_grad, lexicographic_match, save_scene

FEAT_DIM, QDIM, MLP = 24, 16, 24


def small_setup(m=4, k=2, seed=5):
    return init_connector(feat_dim=FEAT_DIM, d=QDIM, m=m, k=k, d_mlp=MLP, seed=seed)


def random_box(rng):
    return BBox(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)),
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)))


def brute_force_match(pred, gt):
    """Exhaustive search over injective assignments, lexicographic order."""
    best_cost, best = math.inf, None
    for perm in itertools.permutations(range(len(pred)), len(gt)):
        cost = sum(np.abs(g.as_array() - pred[j].as_array()).sum() + (1 - giou(g, pred[j]))
                   for g, j in zip(gt, perm))
        if cost < best_cost:
            best_cost, best = cost, list(perm)
    return best, best_cost


# -- forward ----------------------------------------------------------------

def test_forward_shapes_12_tokens_4_boxes(rng):
    params = small_setup(m=12, k=2)
    fwd = _forward(rng.standard_normal((256, FEAT_DIM)), params)
    assert fwd["tokens"].shape == (12, QDIM)
    assert fwd["box_params"].shape == (4, 4)
    assert fwd["obj"].shape == (4,)
    assert np.all((fwd["obj"] >= 0) & (fwd["obj"] <= 1))
    assert fwd["attn"].shape == (16, 256)


def test_forward_zero_visual_queries(rng):
    params = small_setup(m=0, k=2)
    fwd = _forward(rng.standard_normal((256, FEAT_DIM)), params)
    assert fwd["tokens"].shape == (0, QDIM)
    assert fwd["box_params"].shape == (4, 4)


def test_forward_uniform_grid_symmetry():
    params = small_setup(m=4, k=2)
    params["q_h"][1] = params["q_h"][0]  # identical hand query inits
    fwd = _forward(np.ones((64, FEAT_DIM)), params)
    np.testing.assert_allclose(fwd["attn"], 1.0 / 64, atol=1e-12)
    np.testing.assert_array_equal(fwd["box_params"][0], fwd["box_params"][1])
    assert fwd["obj"][0] == fwd["obj"][1]


def test_forward_attention_rows_sum_to_one(rng):
    params = small_setup()
    fwd = _forward(rng.standard_normal((64, FEAT_DIM)), params)
    np.testing.assert_allclose(fwd["attn"].sum(axis=1), 1.0, atol=1e-12)
    assert np.all(fwd["attn"] >= 0)


def test_forward_dim_mismatch():
    scene = make_scene(seed=1, side=4, dim=FEAT_DIM + 1)
    with pytest.raises(ValueError, match="dim"):
        stage1_losses(small_setup(), init_caption_decoder(QDIM, 64, seed=9), scene, 2.0)


def test_sigmoid_is_the_masked_form_bit_for_bit():
    edges = np.array([0.0, math.inf, math.nan, 1e-300, 36.0, 709.0, 745.0, 1e4])
    rng = np.random.default_rng(24)
    normals = rng.standard_normal(10_000)
    raw = rng.standard_normal((4, 5)) * 8  # a box head's output: 4 box columns, 1 score
    cases = [np.concatenate([edges, -edges]), normals, normals * 40, raw[:, :4], raw[:, 4]]
    assert not raw[:, :4].flags.c_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in cases:
            got, want = connector._sigmoid(x), naive_reference.masked_sigmoid(x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_grid_validation(rng):
    with pytest.raises(ValueError):
        PatchGrid(rng.standard_normal((100, 8)), 16).validate()
    bad = rng.standard_normal((256, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        PatchGrid(bad, 16).validate()


# -- giou -------------------------------------------------------------------

def test_giou_identity_is_exactly_one():
    box = BBox(0.4, 0.6, 0.2, 0.3)
    assert giou(box, box) == 1.0


def test_giou_corner_touching_boxes():
    a = BBox(0.25, 0.25, 0.5, 0.5)
    b = BBox(0.75, 0.75, 0.5, 0.5)
    assert giou(a, b) == pytest.approx(-0.5)


def test_giou_separation_limit_monotone():
    a = BBox(0.1, 0.5, 0.1, 0.1)
    values = []
    for gap in (0.2, 0.4, 0.8, 1.6, 3.2, 12.8):
        values.append(giou(a, BBox(0.1 + gap, 0.5, 0.1, 0.1)))
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] > -1.0
    assert values[-1] == pytest.approx(-1.0, abs=0.02)


def test_giou_rejects_degenerate():
    with pytest.raises(ValueError):
        giou(BBox(0.5, 0.5, 0.0, 0.1), BBox(0.5, 0.5, 0.1, 0.1))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_giou_properties(data):
    def box(label):
        return BBox(data.draw(st.floats(0.05, 0.95), label + "cx"),
                    data.draw(st.floats(0.05, 0.95), label + "cy"),
                    data.draw(st.floats(0.01, 0.9), label + "w"),
                    data.draw(st.floats(0.01, 0.9), label + "h"))
    a, b = box("a"), box("b")
    ab = giou(a, b)
    assert ab == giou(b, a)
    assert -1.0 < ab <= 1.0


def test_giou_batch_matches_scalar(rng):
    a = np.column_stack([rng.uniform(0.2, 0.8, 50), rng.uniform(0.2, 0.8, 50),
                         rng.uniform(0.05, 0.5, 50), rng.uniform(0.05, 0.5, 50)])
    b = np.column_stack([rng.uniform(0.2, 0.8, 50), rng.uniform(0.2, 0.8, 50),
                         rng.uniform(0.05, 0.5, 50), rng.uniform(0.05, 0.5, 50)])
    batch = giou_batch(a, b)
    for i in range(50):
        assert batch[i] == pytest.approx(giou(BBox(*a[i]), BBox(*b[i])))


# (pred, gt) pairs: nested and disjoint pairs are smooth points of GIoU
SMOOTH_PAIRS = [((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.6, 0.4)),
                ((0.5, 0.5, 0.6, 0.4), (0.45, 0.55, 0.2, 0.2)),
                ((0.2, 0.2, 0.1, 0.1), (0.7, 0.8, 0.2, 0.1))]
# a shared edge is a kink, where central differences average two slopes; the
# second to last pair is two identical boxes
SHARED_PAIRS = [((0.375, 0.5, 0.25, 0.25), (0.5, 0.5, 0.5, 0.25)),
                ((0.5, 0.375, 0.25, 0.25), (0.5, 0.5, 0.25, 0.5)),
                ((0.3, 0.3, 0.2, 0.2), (0.3, 0.3, 0.2, 0.2)),
                ((0.25, 0.5, 0.25, 0.25), (0.5, 0.5, 0.25, 0.25))]


def test_giou_and_grad_is_the_array_form_bit_for_bit(rng):
    def check(pred, gt):
        value, grad = giou_and_grad(pred, gt)
        shape = np.broadcast(pred, gt).shape
        assert value.shape == shape[:-1] and grad.shape == shape
        pred_rows = np.broadcast_to(pred, shape).reshape(-1, 4).tolist()
        gt_rows = np.broadcast_to(gt, shape).reshape(-1, 4).tolist()
        # the connector's one GIoU gradient, _giou_pair, against the reference
        # arrays; its value-only return, the whole cost from _pair_cost and
        # the array value of giou_batch and the reference's _box_cost against
        # the same arrays
        out = np.array([_giou_pair(p, g, grad=True) for p, g in zip(pred_rows, gt_rows)])
        out = out.reshape(shape[:-1] + (5,))
        # array_equal takes -0.0 for 0.0; the bytes do not
        assert out[..., 0].tobytes() == value.tobytes()
        assert out[..., 1:].tobytes() == grad.tobytes()
        scalar = np.array([_giou_pair(p, g) for p, g in zip(pred_rows, gt_rows)])
        assert scalar.reshape(shape[:-1]).tobytes() == value.tobytes()
        assert giou_batch(pred, gt).tobytes() == value.tobytes()
        cost = np.array([connector._pair_cost(g, p) for g, p in zip(gt_rows, pred_rows)])
        assert cost.reshape(shape[:-1]).tobytes() == _box_cost(gt, pred).tobytes()

    def boxes(n):
        return np.column_stack([rng.uniform(0, 1, (n, 2)), rng.uniform(1e-6, 1, (n, 2))])

    for n in range(1, 65):  # every block size up to 64 pairs
        check(boxes(n), boxes(n))
    # stage-1 blocks, (n_gt, 1, 4) x (1, n_pred, 4); a third repeat a gt box
    for trial in range(600):
        n_gt, n_pred = int(rng.integers(0, 5)), int(rng.integers(1, 6))
        gt, pred = boxes(n_gt), boxes(n_pred)
        if trial % 3 == 0 and n_gt:
            pred[rng.integers(n_pred)] = gt[rng.integers(n_gt)]
        check(pred[None], gt[:, None])
    # a scene file's largest block, MAX_SCENE_BOXES objects against as many
    # object queries and the 2 hand queries
    n_gt = connector.MAX_SCENE_BOXES
    check(boxes(n_gt + 2)[None], boxes(n_gt)[:, None])
    pred, gt = boxes(200), boxes(200)
    check(pred, gt)
    check(pred[0], gt[0])
    pairs = np.array(SMOOTH_PAIRS + SHARED_PAIRS)
    check(pairs[:, 0], pairs[:, 1])
    # corners at exactly 0, 0.5 and 1, and boxes whose edges touch at 0.5 with
    # unequal spans on the other axis, where the overlap is exactly 0
    edges = np.array([(0.25, 0.5, 0.5, 0.2), (0.75, 0.5, 0.5, 0.4), (0.5, 0.25, 0.2, 0.5),
                      (0.5, 0.75, 0.6, 0.5), (0.5, 0.5, 1.0, 1.0), (0.125, 0.875, 0.25, 0.25),
                      (0.5, 0.5, 0.25, 0.25), (0.75, 0.25, 0.5, 0.5)])
    assert {0.0, 0.5, 1.0} <= set((edges[:, :2] - edges[:, 2:] / 2).ravel()) \
        | set((edges[:, :2] + edges[:, 2:] / 2).ravel())
    check(edges[None], edges[:, None])


def test_giou_grad_matches_finite_differences(rng):
    # the random pairs are smooth points too
    pairs = [(random_box(rng).as_array(), random_box(rng).as_array()) for _ in range(50)]
    pairs += SMOOTH_PAIRS + SHARED_PAIRS
    pred = np.array([p for p, _ in pairs])
    gt = np.array([g for _, g in pairs])
    # the connector's one gradient body, pair by pair
    out = np.array([_giou_pair(p, g, grad=True) for p, g in zip(pred.tolist(), gt.tolist())])
    values, grads = out[:, 0], out[:, 1:]
    np.testing.assert_array_equal(values, giou_batch(pred, gt))
    # identical boxes: no pull on the center, and the shrinking slope in w and h
    np.testing.assert_allclose(grads[len(pairs) - 2], [0.0, 0.0, 1 / 0.2, 1 / 0.2])
    eps = 1e-6
    for i in range(len(pairs) - len(SHARED_PAIRS)):
        for c in range(4):
            plus, minus = pred[i].copy(), pred[i].copy()
            plus[c] += eps
            minus[c] -= eps
            fd = (giou_batch(plus[None], gt[i][None])[0]
                  - giou_batch(minus[None], gt[i][None])[0]) / (2 * eps)
            assert grads[i, c] == pytest.approx(fd, abs=1e-6)


# -- matching ---------------------------------------------------------------

def test_match_single_pair():
    pred = [BBox(0.5, 0.5, 0.2, 0.2)]
    gt = [BBox(0.4, 0.4, 0.2, 0.2)]
    assert hungarian_match(pred, gt) == [0]


def test_match_requires_enough_predictions():
    with pytest.raises(ValueError):
        hungarian_match([BBox(0.5, 0.5, 0.2, 0.2)],
                        [BBox(0.4, 0.4, 0.2, 0.2), BBox(0.6, 0.6, 0.2, 0.2)])


def test_match_empty_gt():
    assert hungarian_match([BBox(0.5, 0.5, 0.2, 0.2)], []) == []


def test_match_identical_boxes_lexicographic_tie_break():
    box = BBox(0.5, 0.5, 0.2, 0.2)
    assert hungarian_match([box, box], [box, box]) == [0, 1]


def test_match_equals_brute_force_on_random_instances(rng):
    for _ in range(300):
        n_pred = int(rng.integers(1, 5))
        n_gt = int(rng.integers(0, n_pred + 1))
        pred = [random_box(rng) for _ in range(n_pred)]
        gt = [random_box(rng) for _ in range(n_gt)]
        got = hungarian_match(pred, gt)
        want, want_cost = brute_force_match(pred, gt)
        assert got == want, (got, want, want_cost)


def _lexicographic_min(cost):
    """Exhaustive search on a cost matrix, summed as ``brute_force_match`` sums.

    Returns the lexicographically first minimal assignment, and whether every
    assignment within the matcher's tolerance of it costs exactly the same, so
    that exact comparison and the tolerance pick the same assignment."""
    totals = {perm: sum(float(cost[i, j]) for i, j in enumerate(perm))
              for perm in itertools.permutations(range(cost.shape[1]), cost.shape[0])}
    best = min(totals, key=totals.get)
    low = totals[best]
    return list(best), all(t == low or t > low + 1e-9 for t in totals.values())


def test_match_equals_tie_oracles_on_planted_ties():
    rng = np.random.default_rng(2024)
    off_first_solve = {0: 0, 1: 0}  # instances whose answer leaves the first solve at row 0 / later
    brute_checked = 0

    def check(cost, boxes=None):
        nonlocal brute_checked
        got = _match(cost.tolist())
        assert got == lexicographic_match(cost), cost
        want, exact_ties = _lexicographic_min(cost)
        if exact_ties:
            assert got == want, cost
            if boxes is not None:
                assert hungarian_match(*boxes) == brute_force_match(*boxes)[0]
            brute_checked += 1
        first = _assign(cost.tolist(), cost.shape[1])[0]
        moved = [i for i in range(len(got)) if got[i] != first[i]]
        if moved:
            off_first_solve[min(moved[0], 1)] += 1

    for _ in range(1500):  # integer-half costs: many exact ties
        n_pred = int(rng.integers(1, 6))
        n_gt = int(rng.integers(0, min(n_pred, 4) + 1))
        check(0.5 * rng.integers(0, 3, size=(n_gt, n_pred)))
    for _ in range(600):  # duplicate prediction boxes and duplicate gt boxes
        pool = [random_box(rng) for _ in range(int(rng.integers(1, 4)))]

        def draw(n):
            return [pool[int(rng.integers(len(pool)))] if rng.random() < 0.7
                    else random_box(rng) for _ in range(n)]
        n_pred = int(rng.integers(1, 6))
        pred, gt = draw(n_pred), draw(int(rng.integers(0, min(n_pred, 4) + 1)))
        check(_box_cost(connector._box_array(gt)[:, None],
                        connector._box_array(pred)[None]), (pred, gt))
    assert off_first_solve[0] > 0 and off_first_solve[1] > 0, off_first_solve
    assert brute_checked > 1500, brute_checked


def test_match_near_duplicate_columns_24x24():
    # 24 predictions in 4 clusters of boxes about 1e-10 apart: some swaps of
    # two rows' columns stay within the tie tolerance of the optimum, and
    # others miss it by less than 1e-8
    rng = np.random.default_rng(24)
    pool = np.array([random_box(rng).as_array() for _ in range(4)])
    pred = pool[rng.integers(0, 4, size=24)] + rng.uniform(-1e-10, 1e-10, size=(24, 4))
    gt = np.array([random_box(rng).as_array() for _ in range(24)])
    cost = _box_cost(gt[:, None], pred[None])
    got = _match(cost.tolist())
    assert got == lexicographic_match(cost)
    assert got != _assign(cost.tolist(), 24)[0]  # the walk moved off the first solve
    rows = np.arange(24)
    excess = []
    for a, b in itertools.combinations(range(24), 2):
        swapped = list(got)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        excess.append(cost[rows, swapped].sum() - cost[rows, got].sum())
    excess = np.array(excess)
    assert (np.abs(excess) <= 1e-9).any() and ((excess > 1e-9) & (excess < 1e-8)).any()


def test_match_refuses_non_finite_costs():
    # box costs of finite boxes are finite, so a NaN or an infinite cost is
    # refused rather than skipped (scipy's solver also took a feasible inf)
    for cost in ([[math.nan, 1.0], [1.0, 2.0]], [[math.inf, 1.0], [1.0, 2.0]], [[math.inf]]):
        with pytest.raises(ValueError, match="must be finite"):
            _match(cost)
    for cost, m in (([[math.inf, math.inf]], 2), ([[1.0], [2.0]], 1)):
        with pytest.raises(ValueError, match="no assignment of finite cost"):
            _assign(cost, m)


def _solver_cases():
    rng = np.random.default_rng(31)
    for trial in range(600):
        n = int(rng.integers(0, 11))
        m = int(rng.integers(max(n, 1), 11))
        if trial % 3:  # half-integer costs: many tied optima
            yield 0.5 * rng.integers(0, 4, size=(n, m))
        else:
            yield rng.uniform(-2.0, 3.0, size=(n, m))
    for _ in range(5):
        yield rng.random((40, 60))
    yield np.zeros((0, 3))


def test_assign_matches_scipy_with_feasible_duals():
    for cost in _solver_cases():
        n, m = cost.shape
        cols, u, v = _assign(cost.tolist(), m)
        rows, want = linear_sum_assignment(cost)
        assert len(cols) == n and len(set(cols)) == n and all(0 <= j < m for j in cols)
        assert abs(cost[np.arange(n), cols].sum() - cost[rows, want].sum()) <= 1e-9, cost
        u, v = np.array(u), np.array(v)
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.size == 0 or reduced.min() >= -1e-12, cost
        assert np.all(np.abs(reduced[np.arange(n), cols]) <= 1e-12), cost
        assert np.all(v <= 0) and np.all(v[np.setdiff1d(np.arange(m), cols)] == 0), cost


# -- losses -----------------------------------------------------------------

def predicted_boxes(params, scene):
    """The 2 + k boxes (hands first) and objectness scores that stage 1 scores."""
    fwd = _forward(scene.grid.patches, params)
    return [BBox(*map(float, row)) for row in fwd["box_params"]], fwd["obj"]


def scalar_ho(params, scene):
    """The box loss written out pair by pair: (1 - GIoU) + L1 per brute-force
    matched pair, -log(1 - score) per unmatched prediction, hands then objects."""
    boxes, scores = predicted_boxes(params, scene)
    total = 0.0
    for pred, gt, group_scores in ((boxes[:2], scene.hands, scores[:2]),
                                   (boxes[2:], scene.objects, scores[2:])):
        sigma = brute_force_match(pred, gt)[0]
        for g, j in zip(gt, sigma):
            total += (1 - giou(g, pred[j])) + sum(
                abs(a - b) for a, b in zip(g.as_array(), pred[j].as_array()))
        total += sum(-math.log(1 - group_scores[j]) for j in range(len(pred))
                     if j not in sigma)
    return total


def test_loss_ho_perfect_predictions_zero():
    scene = make_scene(seed=0, side=4, dim=FEAT_DIM)
    params = small_setup(k=2)
    boxes, _ = predicted_boxes(params, scene)
    scene = dataclasses.replace(scene, hands=boxes[:2], objects=boxes[2:])
    assert stage1_losses(params, init_caption_decoder(QDIM, 64, seed=9), scene, 2.0)["ho"] == 0.0


def test_loss_ho_single_pair_definition():
    scene = make_scene(seed=0, side=4, dim=FEAT_DIM)
    params = small_setup(k=2)
    gt = BBox(0.42, 0.47, 0.25, 0.18)
    boxes, scores = predicted_boxes(params, scene)
    pair = [(1 - giou(gt, p)) + float(np.abs(gt.as_array() - p.as_array()).sum())
            for p in boxes[:2]]
    j = int(np.argmin(pair))  # the one hand box is matched, the rest pay for objectness
    expected = pair[j] + sum(-math.log(1 - scores[i]) for i in range(4) if i != j)
    scene = dataclasses.replace(scene, hands=[gt], objects=[])
    got = stage1_losses(params, init_caption_decoder(QDIM, 64, seed=9), scene, 2.0)["ho"]
    assert got == pytest.approx(expected, rel=1e-12)


def test_loss_ho_three_box_instance_matches_scalar_script():
    rng = np.random.default_rng(77)
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    scenes = [(make_scene(seed=50, side=4, dim=FEAT_DIM, n_hands=0, n_objects=3), 3)]
    for trial in range(50):
        k = int(rng.integers(2, 5))
        scenes.append((make_scene(seed=trial, side=4, dim=FEAT_DIM,
                                  n_hands=int(rng.integers(0, 3)),
                                  n_objects=int(rng.integers(0, k + 1))), k))
    for trial, (scene, k) in enumerate(scenes):
        params = small_setup(k=k, seed=trial)
        got = stage1_losses(params, decoder, scene, lambda_1=2.0)["ho"]
        assert got == pytest.approx(scalar_ho(params, scene), rel=1e-12), trial


def test_stage1_box_loss_equals_public_wrappers():
    # stage 1's box loss, bit for bit, against the public `hungarian_match`
    # and the matched-loss helper applied group by group
    rng = np.random.default_rng(77)
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    for trial in range(50):
        k = int(rng.integers(2, 5))
        scene = make_scene(seed=trial, side=4, dim=FEAT_DIM, n_hands=int(rng.integers(0, 3)),
                           n_objects=int(rng.integers(0, k + 1)))
        params = small_setup(k=k, seed=trial)
        boxes, scores = predicted_boxes(params, scene)
        want = 0.0
        for pred, gt, group_scores in ((boxes[:2], scene.hands, scores[:2]),
                                       (boxes[2:], scene.objects, scores[2:])):
            cost = _box_cost(connector._box_array(gt)[:, None],
                             connector._box_array(pred)[None])
            want += connector._matched_loss(cost.tolist(), hungarian_match(pred, gt),
                                            group_scores)
        got = stage1_losses(params, decoder, scene, lambda_1=2.0)["ho"]
        assert got.hex() == want.hex(), (trial, got, want)


def _stage1_scenes():
    """(label, params, decoder, scene) for the stage-1 full-block comparison."""
    for seed in range(8):  # the connector-train workload's scenes and weights
        yield (f"connector-train-{seed}",
               init_connector(feat_dim=48, d=32, m=8, k=2, d_mlp=48, seed=seed + 1),
               init_caption_decoder(32, 64, seed=seed + 2), make_scene(seed, side=16, dim=48))
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    shapes = [("no-gt", 0, 0, 2), ("hands-only", 2, 0, 2),
              ("objects-only", 0, 5, 5),  # 25 pairs; the reference's full block has 35
              ("three-objects", 2, 3, 3),
              ("max-scene-boxes", 2, connector.MAX_SCENE_BOXES - 2,
               connector.MAX_SCENE_BOXES - 2)]
    for label, n_hands, n_objects, k in shapes:
        scene = make_scene(seed=7, side=4, dim=FEAT_DIM, n_hands=n_hands, n_objects=n_objects)
        yield label, small_setup(k=k, seed=7), decoder, scene
    scene = make_scene(seed=3, side=4, dim=FEAT_DIM)
    yield ("identical-objects", small_setup(k=2, seed=3), decoder,
           dataclasses.replace(scene, objects=[scene.objects[0], scene.objects[0]]))


@pytest.mark.parametrize("label, params, decoder, scene",
                         [pytest.param(*case, id=case[0]) for case in _stage1_scenes()])
def test_stage1_matches_the_full_block_bit_for_bit(monkeypatch, label, params, decoder, scene):
    # stage 1 scores only each group's block; the reference scores every
    # (gt, query) pair and slices the blocks out, and the same backward runs
    # on both forwards
    solves = []

    def counting(cost, m):
        solves.append(len(cost))
        return _assign(cost, m)

    monkeypatch.setattr(connector, "_assign", counting)
    losses, grads = stage1_value_and_grads(params, decoder, scene, 2.0)
    value = stage1_losses(params, decoder, scene, 2.0)
    _, fwd, aux = connector._stage1_forward(params, decoder, scene, 2.0)
    if label == "identical-objects":  # the tie-break walk re-solves a tail in each call
        assert solves == [2, 2, 1] * 3
    ref = naive_reference.stage1_forward_full_block
    ref_losses, _, ref_aux = ref(params, decoder, scene, 2.0)
    monkeypatch.setattr(connector, "_stage1_forward", ref)
    ref_grads = stage1_value_and_grads(params, decoder, scene, 2.0)[1]
    for key in ("total", "lm", "ho"):
        assert losses[key].hex() == ref_losses[key].hex() == value[key].hex(), key
    assert aux["matched"].tobytes() == ref_aux["matched"].tobytes()
    # the backward's GIoU gradient of each matched pair, from _giou_pair,
    # against the full block's array gradients picked by row and column
    pred = fwd["box_params"][aux["matched"]].tolist()
    g_giou = np.array([_giou_pair(p, g, grad=True)[1:]
                       for p, g in zip(pred, scene.boxes.tolist())]).reshape(-1, 4)
    assert g_giou.shape == ref_aux["g_giou"].shape
    assert g_giou.tobytes() == ref_aux["g_giou"].tobytes()
    assert grads.keys() == ref_grads.keys() == set(connector.PARAM_KEYS)
    for name in grads:
        assert grads[name].shape == ref_grads[name].shape, name
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def test_loss_ho_unmatched_score_penalty():
    scene = make_scene(seed=0, side=4, dim=FEAT_DIM)
    params = small_setup(k=2)
    boxes, scores = predicted_boxes(params, scene)
    scene = dataclasses.replace(scene, hands=boxes[:2], objects=boxes[2:3])
    losses, grads = stage1_value_and_grads(params, init_caption_decoder(QDIM, 64, seed=9),
                                           scene, lambda_1=2.0)
    # only the second object query is unmatched: the loss is its penalty alone,
    # and the objectness bias gets lambda_1 * score from it and nothing else
    assert losses["ho"] == pytest.approx(-math.log(1 - scores[3]), rel=1e-12)
    assert grads["b2"][4] == pytest.approx(2.0 * scores[3], rel=1e-12)


def test_loss_ho_validates_assignment():
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    scene = make_scene(seed=0, side=4, dim=FEAT_DIM, n_hands=2, n_objects=3)
    # make_scene refuses a third hand, so one of the objects becomes one
    three_hands = dataclasses.replace(scene, hands=scene.hands + scene.objects[:1],
                                      objects=scene.objects[1:])
    for scene in (three_hands, scene):
        with pytest.raises(ValueError, match="more ground-truth boxes than queries"):
            stage1_value_and_grads(small_setup(k=2), decoder, scene, 2.0)


def test_stage1_solves_one_assignment_per_group(monkeypatch):
    scene = make_scene(seed=0, side=4, dim=FEAT_DIM)
    params = small_setup(k=2)
    boxes, _ = predicted_boxes(params, scene)
    for pred, gt in ((boxes[:2], scene.hands), (boxes[2:], scene.objects)):
        cost = _box_cost(connector._box_array(gt)[:, None], connector._box_array(pred)[None])
        totals = sorted(sum(cost[i, j] for i, j in enumerate(perm))
                        for perm in itertools.permutations(range(len(pred)), len(gt)))
        assert totals[1] - totals[0] > 1e-6  # the optimum is unique
    calls = []

    def counting(cost, m):
        calls.append((len(cost), m))
        return _assign(cost, m)

    monkeypatch.setattr(connector, "_assign", counting)
    stage1_value_and_grads(params, init_caption_decoder(QDIM, 64, seed=9), scene, 2.0)
    assert calls == [(2, 2), (2, 2)]


def test_loss_lm_uniform_logits_is_log_vocab():
    logits = np.zeros((10, 128))
    assert loss_lm(logits, list(range(10))) == pytest.approx(math.log(128))


def test_loss_lm_confident_correct_goes_to_zero():
    logits = np.full((4, 16), -50.0)
    targets = [3, 1, 0, 15]
    for i, t in enumerate(targets):
        logits[i, t] = 50.0
    assert loss_lm(logits, targets) < 1e-6


def test_loss_lm_validation():
    with pytest.raises(ValueError):
        loss_lm(np.zeros((0, 8)), [])
    with pytest.raises(ValueError):
        loss_lm(np.zeros((2, 8)), [0])
    with pytest.raises(ValueError):
        loss_lm(np.zeros((2, 8)), [0, 9])


def test_loss_total_definition_and_affinity():
    assert loss_total(2.0, 0.5, 1.0) == 2.5
    assert loss_total(2.0, 0.5, 0.0) == 2.0
    ho = 0.7321
    vals = [loss_total(1.5, ho, lam) for lam in (0.5, 1.25, 3.0)]
    slopes = [(vals[1] - vals[0]) / 0.75, (vals[2] - vals[1]) / 1.75]
    assert slopes[0] == pytest.approx(ho, abs=1e-12)
    assert slopes[1] == pytest.approx(ho, abs=1e-12)
    with pytest.raises(ValueError):
        loss_total(1.0, 1.0, -0.1)
    for lambda_1 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lambda_1 must be finite"):
            loss_total(1.0, 2.0, lambda_1)


# -- gradient checking ------------------------------------------------------

def test_grad_check_quadratic_probe():
    probe = {"x": np.linspace(-2, 3, 12).reshape(3, 4)}

    def quad(p):
        return float((p["x"] ** 2).sum()), {"x": 2 * p["x"]}

    assert grad_check(probe, quad, eps=1e-5) <= 1e-7


def test_grad_check_value_fn_serves_the_perturbed_calls():
    # with value_fn, gradients are computed once, at the evaluation point,
    # and the error is the same as when every call computes them
    probe = {"x": np.linspace(-2, 3, 12).reshape(3, 4)}
    calls = []

    def quad(p):
        calls.append("value_and_grad")
        return float((p["x"] ** 3).sum()), {"x": 3 * p["x"] ** 2}

    def value(p):
        calls.append("value")
        return float((p["x"] ** 3).sum())

    plain = grad_check(probe, quad, eps=1e-5)
    calls.clear()
    assert grad_check(probe, quad, eps=1e-5, value_fn=value) == plain
    assert calls == ["value_and_grad"] + ["value"] * 24


def test_grad_check_rejects_bad_eps_and_nonfinite():
    probe = {"x": np.ones(3)}

    def quad(p):
        return float((p["x"] ** 2).sum()), {"x": 2 * p["x"]}

    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            grad_check(probe, quad, eps=eps)

    def bad(p):
        return float("nan"), {"x": np.zeros(3)}

    with pytest.raises(ValueError):
        grad_check(probe, bad, eps=1e-5)

    # a NaN gradient on one coordinate makes the whole error NaN, whichever
    # coordinate it is and whatever the others read
    for c in range(3):
        def nan_grad(p):
            grad = 2 * p["x"]
            grad[c] = math.nan
            return float((p["x"] ** 2).sum()), {"x": grad}

        assert math.isnan(grad_check(probe, nan_grad, eps=1e-5))


def test_grad_check_rejects_max_coords_below_one():
    probe = {"x": np.ones(3)}

    def quad(p):
        return float((p["x"] ** 2).sum()), {"x": 2 * p["x"]}

    for max_coords in (0, -1):
        with pytest.raises(ValueError, match="max_coords must be >= 1"):
            grad_check(probe, quad, eps=1e-5, max_coords=max_coords)


def _checked_coords(check, params, **kwargs):
    """(name, flat index) of every coordinate ``check`` perturbs, in order,
    those of them it retried one-sided, and the error it returns. The
    analytic gradient is off by a factor that grows with the flat index, so
    the error depends on which coordinates are checked, and every coordinate
    but a flat index 0 fails its central difference and is retried."""
    base = {name: x.copy() for name, x in params.items()}
    seen = []

    def cubic(p):
        for name in sorted(p):
            seen.extend((name, int(i), round(float((p[name] - base[name]).flat[i]) / 1e-4))
                        for i in np.flatnonzero(p[name] != base[name]))
        grads = {name: 3 * x ** 2 * (1 + 0.01 * np.arange(x.size).reshape(x.shape))
                 for name, x in p.items()}
        return float(sum((x ** 3).sum() for x in p.values())), grads

    err = check(params, cubic, eps=1e-4, **kwargs)
    coords, retried = [], []
    for coord, moves in itertools.groupby(seen, key=lambda move: move[:2]):
        steps = [step for _, _, step in moves]
        # each coordinate moves up, then down, by eps; a retried one then by 2 eps
        assert steps in ([1, -1], [1, -1, 2, -2]), (coord, steps)
        coords.append(coord)
        if len(steps) == 4:
            retried.append(coord)
    return coords, retried, err


@pytest.mark.parametrize("shapes", [
    {"w": (3, 4), "b": (4,)},
    {"q": (2, 3, 2), "s": (), "a": (5,), "z": (0, 3)},
    {"only": (7, 6)},
])
@pytest.mark.parametrize("max_coords", [1, 17, 400])
@pytest.mark.parametrize("seed", [None, 3])
def test_grad_check_matches_list_reference(shapes, max_coords, seed):
    def params():
        rng = np.random.default_rng(len(shapes))
        return {name: rng.uniform(0.5, 2.0, shape) for name, shape in shapes.items()}

    def rng():
        return None if seed is None else np.random.default_rng(seed)

    got = _checked_coords(grad_check, params(), max_coords=max_coords, rng=rng())
    want = _checked_coords(naive_reference.grad_check, params(), max_coords=max_coords,
                           rng=rng())
    assert got == want
    total = sum(math.prod(shape) for shape in shapes.values())
    assert len(got[0]) == min(total, max_coords)
    assert got[1] == [(name, i) for name, i in got[0] if i > 0]
    if total <= max_coords:  # every coordinate, in sorted-name row-major order
        assert got[0] == [(name, i) for name in sorted(shapes)
                          for i in range(math.prod(shapes[name]))]


def test_grad_check_samples_without_listing_coordinates():
    params = {"w": np.zeros((500, 1000)), "b": np.zeros(1000)}
    grads = {name: np.zeros_like(x) for name, x in params.items()}

    def flat(p):
        return 0.0, grads

    grad_check({"b": params["b"]}, flat, eps=1e-4, max_coords=4)  # lazy imports load here
    tracemalloc.start()
    try:
        assert grad_check(params, flat, eps=1e-4, max_coords=4) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # a list of the 501,000 coordinates alone takes tens of MB


def test_full_pipeline_grad_check_mini_grid():
    scene = make_scene(seed=11, side=4, dim=FEAT_DIM)
    params = small_setup()
    decoder = init_caption_decoder(QDIM, 64, seed=9)

    def vag(p):
        losses, grads = stage1_value_and_grads(p, decoder, scene, lambda_1=2.0)
        return losses["total"], grads

    err = grad_check(params, vag, eps=1e-4, max_coords=600,
                     rng=np.random.default_rng(3))
    assert err <= 1e-4


def test_grad_check_zero_visual_queries():
    scene = make_scene(seed=4, side=4, dim=FEAT_DIM)
    params = small_setup(m=0)
    decoder = init_caption_decoder(QDIM, 64, seed=9)

    def vag(p):
        losses, grads = stage1_value_and_grads(p, decoder, scene, lambda_1=2.0)
        return losses["total"], grads

    assert grad_check(params, vag, eps=1e-4, max_coords=400,
                      rng=np.random.default_rng(3)) <= 1e-4


def _kink_check(seed=5):
    """``cmd_gradcheck``'s connector and losses at ``seed`` on its seeded
    4 x 4 x 24 scene's patches, with the first object's gt box moved so that
    its left edge lies 1e-6 right of the first object query's predicted left
    edge: GIoU has a kink there, within eps of the evaluation point. Its
    ``w``, ``h`` and ``cy`` differ from the prediction's, so no L1 term sits
    at a kink, and the second object lies 0.05 away in x and y."""
    scene = make_scene(seed, side=4, dim=24)
    params = init_connector(feat_dim=24, d=16, m=4, k=2, d_mlp=24, seed=seed)
    decoder = init_caption_decoder(16, 64, seed)
    cx, cy, w, h = _forward(scene.grid.patches, params)["box_params"][2].tolist()
    kink = BBox(cx - w / 2 + 1e-6 + 0.4 * w, cy + 0.03, 0.8 * w, 1.2 * h)
    other = BBox(kink.cx + 0.05, kink.cy + 0.05, kink.w, kink.h)
    scene = dataclasses.replace(scene, objects=[kink, other])

    def vag(p):
        losses, grads = stage1_value_and_grads(p, decoder, scene, lambda_1=2.0)
        return losses["total"], grads

    def value(p):
        return stage1_losses(p, decoder, scene, lambda_1=2.0)["total"]

    return params, vag, value


def _retried(params, vag, value):
    """``grad_check``'s error on the kink check, and the (name, index) of
    each coordinate that it retried one-sided."""
    base = {name: x.copy() for name, x in params.items()}
    moves = []

    def recording(p):
        moves.extend((name, tuple(int(k) for k in idx)) for name in sorted(p)
                     for idx in np.argwhere(p[name] != base[name]))
        return value(p)

    err = grad_check(params, vag, eps=1e-4, rng=np.random.default_rng(5), value_fn=recording)
    return err, sorted({c for c in moves if moves.count(c) == 4})


def test_grad_check_retries_a_kink_one_sided():
    params, vag, value = _kink_check()
    err, retried = _retried(params, vag, value)
    assert err <= connector.GRAD_CHECK_TOL and retried
    # the central difference alone straddles the kink at some retried coordinate
    _, grads = vag(params)
    central = []
    for name, idx in retried:
        original = params[name][idx]
        params[name][idx] = original + 1e-4
        up = value(params)
        params[name][idx] = original - 1e-4
        down = value(params)
        params[name][idx] = original
        numeric, analytic = (up - down) / 2e-4, grads[name][idx]
        central.append(abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8))
    assert max(central) > 0.5


def test_grad_check_retry_still_fails_a_wrong_gradient():
    params, vag, value = _kink_check()
    _, grads = vag(params)
    # the retried coordinate with the largest gradient, its gradient 1% off or NaN
    name, idx = max(_retried(params, vag, value)[1], key=lambda c: abs(grads[c[0]][c[1]]))
    for factor in (1.01, math.nan):
        def planted(p):
            total, wrong = vag(p)
            wrong[name][idx] *= factor
            return total, wrong

        err = grad_check(params, planted, eps=1e-4, rng=np.random.default_rng(5),
                         value_fn=value)
        assert math.isnan(err) if math.isnan(factor) else err > connector.GRAD_CHECK_TOL


# -- scenes and training ----------------------------------------------------

def test_scene_round_trip(tmp_path):
    scene = make_scene(seed=3, side=8, dim=FEAT_DIM)
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    back = load_scene(str(path))
    np.testing.assert_array_equal(back.grid.patches, scene.grid.patches)
    assert back.hands == scene.hands
    assert back.objects == scene.objects
    assert back.caption == scene.caption


def test_scene_seed_form_regenerates(tmp_path):
    import json
    scene = make_scene(seed=3, side=8, dim=FEAT_DIM)
    doc = {
        "patches": {"seed": 3},
        "side": 8,
        "dim": FEAT_DIM,
        "gt_boxes": [{"cx": b.cx, "cy": b.cy, "w": b.w, "h": b.h, "kind": "hand"}
                     for b in scene.hands]
                    + [{"cx": b.cx, "cy": b.cy, "w": b.w, "h": b.h, "kind": "object"}
                       for b in scene.objects],
    }
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(doc))
    back = load_scene(str(path))
    np.testing.assert_allclose(back.grid.patches, scene.grid.patches)
    assert len(back.caption) > 0  # derived deterministically when absent


def test_scene_stores_its_box_and_caption_arrays_read_only():
    scene = make_scene(seed=3, side=4, dim=FEAT_DIM, n_hands=1, n_objects=2)
    want = np.array([b.as_array() for b in scene.hands + scene.objects])
    assert scene.boxes.shape == (3, 4) and scene.boxes.tobytes() == want.tobytes()
    assert scene.caption_ids.dtype == np.int64
    assert scene.caption_ids.tolist() == list(scene.caption)
    for arr in (scene.boxes, scene.caption_ids):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scene.hands = ()
    box = BBox(0.3, 0.6, 0.2, 0.1)
    moved = dataclasses.replace(scene, hands=[box], objects=[scene.objects[1]], caption=[5, 6])
    assert moved.hands == (box,) and moved.caption == (5, 6)
    assert moved.boxes.tobytes() == np.array([box.as_array(),
                                              scene.objects[1].as_array()]).tobytes()
    assert moved.caption_ids.tolist() == [5, 6] and not moved.boxes.flags.writeable
    assert scene.boxes.tobytes() == want.tobytes()  # the source scene keeps its own
    empty = dataclasses.replace(scene, hands=[], objects=[])
    assert empty.boxes.shape == (0, 4)


@pytest.mark.parametrize("bad", [BBox(0.5, 0.5, 0.0, 0.1), BBox(0.5, 0.5, 0.1, -0.2),
                                 BBox(math.nan, 0.5, 0.1, 0.1), BBox(0.5, 0.5, math.inf, 0.1)])
def test_scene_refuses_a_bad_box_when_built(bad):
    scene = make_scene(seed=3, side=4, dim=FEAT_DIM)
    with pytest.raises(ValueError, match="degenerate box|non-finite box"):
        Scene(scene.grid, [bad], [], [1, 2])
    with pytest.raises(ValueError, match="degenerate box|non-finite box"):
        dataclasses.replace(scene, objects=[scene.objects[0], bad])


def test_train_toy_overfits_single_scene():
    scene = make_scene(seed=11, side=16, dim=48)
    params = init_connector(feat_dim=48, d=32, m=8, k=2, d_mlp=48, seed=5)
    decoder = init_caption_decoder(32, 64, seed=9)
    before = {k: v.copy() for k, v in
              {"emb": decoder.emb, "w_k2": decoder.w_k2,
               "w_v2": decoder.w_v2, "w_lm": decoder.w_lm}.items()}
    result = train_toy(params, decoder, [scene], epochs=200, lr=0.1, lambda_1=2.0)
    assert result.final_ho <= 0.1 * result.initial_ho
    # frozen decoder bitwise unchanged
    assert decoder.emb.tobytes() == before["emb"].tobytes()
    assert decoder.w_k2.tobytes() == before["w_k2"].tobytes()
    assert decoder.w_v2.tobytes() == before["w_v2"].tobytes()
    assert decoder.w_lm.tobytes() == before["w_lm"].tobytes()


def test_train_toy_zero_lr_flat_curve():
    scene = make_scene(seed=2, side=4, dim=FEAT_DIM)
    params = small_setup()
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    result = train_toy(params, decoder, [scene], epochs=5, lr=0.0)
    assert np.ptp(result.curve[:, 0]) == 0.0


def test_train_toy_divergence_detected():
    scene = make_scene(seed=2, side=4, dim=FEAT_DIM)
    params = small_setup()
    params["w_k"] *= 1e6  # absurd init to force non-finite loss quickly
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    with pytest.raises(TrainingDivergence):
        with np.errstate(all="ignore"):
            train_toy(params, decoder, [scene], epochs=50, lr=1e4)
    # a NaN box head with finite attention outputs is divergence too, not a bad box
    params = small_setup()
    params["w2"][:] = np.nan
    with pytest.raises(TrainingDivergence):
        train_toy(params, decoder, [scene], epochs=1, lr=0.1)


@pytest.mark.parametrize("fn", [stage1_losses, stage1_value_and_grads])
def test_non_finite_language_path_is_divergence(fn):
    # an infinite w_z entry leaves the attention outputs and boxes finite but
    # the compressed tokens not: the caption loss would be NaN, not an error
    params = init_connector(FEAT_DIM, QDIM, 4, 2, MLP, seed=7)
    params["w_z"][0, 0] = np.inf
    scene = make_scene(7, side=4, dim=FEAT_DIM)
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    with np.errstate(all="ignore"):
        fwd = _forward(scene.grid.patches, params)
    assert np.isfinite(fwd["out"]).all() and np.isfinite(fwd["box_params"]).all()
    assert not np.isfinite(fwd["tokens"]).all()
    with pytest.raises(TrainingDivergence, match="non-finite connector activations"):
        with np.errstate(all="ignore"):
            fn(params, decoder, scene, 2.0)


def test_train_toy_requires_scenes():
    params = small_setup()
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    with pytest.raises(ValueError):
        train_toy(params, decoder, [], epochs=1, lr=0.1)


@pytest.mark.parametrize("epochs, lr", [(-3, 0.1), (2, math.nan), (2, math.inf),
                                        (2, -math.inf)])
def test_train_toy_refuses_bad_arguments_before_any_step(monkeypatch, epochs, lr):
    scene = make_scene(seed=2, side=4, dim=FEAT_DIM)
    params = small_setup()
    before = {name: arr.copy() for name, arr in params.items()}
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    calls = []
    monkeypatch.setattr(connector, "stage1_value_and_grads",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="epochs|lr"):
        train_toy(params, decoder, [scene], epochs=epochs, lr=lr)
    assert calls == []
    assert all(params[name].tobytes() == before[name].tobytes() for name in params)


@pytest.mark.parametrize("lambda_1", [math.nan, math.inf, -math.inf])
def test_train_toy_refuses_non_finite_lambda_before_any_step(monkeypatch, lambda_1):
    scene = make_scene(seed=2, side=4, dim=FEAT_DIM)
    params = small_setup()
    before = {name: arr.copy() for name, arr in params.items()}
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    calls = []
    monkeypatch.setattr(connector, "stage1_value_and_grads",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(connector, "stage1_losses", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="lambda_1 must be finite"):
        train_toy(params, decoder, [scene], epochs=2, lr=0.1, lambda_1=lambda_1)
    assert calls == []
    assert all(params[name].tobytes() == before[name].tobytes() for name in params)


def test_train_toy_sums_scene_gradients_as_the_zero_started_loop():
    scenes = [make_scene(seed=2, side=4, dim=FEAT_DIM),
              make_scene(seed=3, side=4, dim=FEAT_DIM, n_hands=1, n_objects=1)]
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    params, ref_params = small_setup(), small_setup()
    result = train_toy(params, decoder, scenes, epochs=6, lr=0.2)
    ref = naive_reference.train_toy(ref_params, decoder, scenes, epochs=6, lr=0.2)
    assert result.curve.shape == (7, 3)
    assert result.curve.tobytes() == ref.curve.tobytes()
    assert params.keys() == ref_params.keys()
    for name in params:
        assert params[name].tobytes() == ref_params[name].tobytes(), name
