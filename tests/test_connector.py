import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import streamcache.connector as connector
from streamcache import (BBox, PatchGrid, TrainingDivergence, giou, giou_batch, grad_check,
                         hungarian_match, init_caption_decoder, init_connector, load_scene,
                         loss_lm, loss_total, make_scene, stage1_losses,
                         stage1_value_and_grads, train_toy)
from streamcache.connector import _assign, _box_cost, _forward, _match, giou_and_grad

import naive_reference
from naive_reference import lexicographic_match, save_scene

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


def test_giou_grad_matches_finite_differences(rng):
    # the random pairs plus nested and disjoint pairs are smooth points of GIoU
    smooth = [((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.6, 0.4)),
              ((0.5, 0.5, 0.6, 0.4), (0.45, 0.55, 0.2, 0.2)),
              ((0.2, 0.2, 0.1, 0.1), (0.7, 0.8, 0.2, 0.1))]
    # a shared edge is a kink, where central differences average two slopes
    shared = [((0.375, 0.5, 0.25, 0.25), (0.5, 0.5, 0.5, 0.25)),
              ((0.5, 0.375, 0.25, 0.25), (0.5, 0.5, 0.25, 0.5)),
              ((0.3, 0.3, 0.2, 0.2), (0.3, 0.3, 0.2, 0.2)),
              ((0.25, 0.5, 0.25, 0.25), (0.5, 0.5, 0.25, 0.25))]
    pairs = [(random_box(rng).as_array(), random_box(rng).as_array()) for _ in range(50)]
    pairs += smooth + shared
    pred = np.array([p for p, _ in pairs])
    gt = np.array([g for _, g in pairs])
    values, grads = giou_and_grad(pred, gt)
    assert values.shape == (len(pairs),) and grads.shape == (len(pairs), 4)
    np.testing.assert_array_equal(values, giou_batch(pred, gt))
    # identical boxes: no pull on the center, and the shrinking slope in w and h
    np.testing.assert_allclose(grads[len(pairs) - 2], [0.0, 0.0, 1 / 0.2, 1 / 0.2])
    eps = 1e-6
    for i in range(len(pairs)):
        value, grad = giou_and_grad(pred[i], gt[i])
        assert value.tobytes() == values[i].tobytes()
        assert grad.tobytes() == grads[i].tobytes()
        if i >= len(pairs) - len(shared):
            continue
        for c in range(4):
            plus, minus = pred[i].copy(), pred[i].copy()
            plus[c] += eps
            minus[c] -= eps
            fd = (giou_batch(plus[None], gt[i][None])[0]
                  - giou_batch(minus[None], gt[i][None])[0]) / (2 * eps)
            assert grad[c] == pytest.approx(fd, abs=1e-6)


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
        got = _match(cost)
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
                        connector._box_array(pred)[None])[0], (pred, gt))
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
    cost = _box_cost(gt[:, None], pred[None])[0]
    got = _match(cost)
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
            _match(np.array(cost))
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
                             connector._box_array(pred)[None])[0]
            want += connector._matched_loss(cost, hungarian_match(pred, gt), group_scores)
        got = stage1_losses(params, decoder, scene, lambda_1=2.0)["ho"]
        assert got.hex() == want.hex(), (trial, got, want)


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
    for n_hands, n_objects in ((3, 2), (2, 3)):
        scene = make_scene(seed=0, side=4, dim=FEAT_DIM, n_hands=n_hands, n_objects=n_objects)
        with pytest.raises(ValueError, match="more ground-truth boxes than queries"):
            stage1_value_and_grads(small_setup(k=2), decoder, scene, 2.0)


def test_stage1_solves_one_assignment_per_group(monkeypatch):
    scene = make_scene(seed=0, side=4, dim=FEAT_DIM)
    params = small_setup(k=2)
    boxes, _ = predicted_boxes(params, scene)
    for pred, gt in ((boxes[:2], scene.hands), (boxes[2:], scene.objects)):
        cost = _box_cost(connector._box_array(gt)[:, None], connector._box_array(pred)[None])[0]
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

    with pytest.raises(ValueError):
        grad_check(probe, quad, eps=0.0)

    def bad(p):
        return float("nan"), {"x": np.zeros(3)}

    with pytest.raises(ValueError):
        grad_check(probe, bad, eps=1e-5)


def test_grad_check_rejects_max_coords_below_one():
    probe = {"x": np.ones(3)}

    def quad(p):
        return float((p["x"] ** 2).sum()), {"x": 2 * p["x"]}

    for max_coords in (0, -1):
        with pytest.raises(ValueError, match="max_coords must be >= 1"):
            grad_check(probe, quad, eps=1e-5, max_coords=max_coords)


def _checked_coords(check, params, **kwargs):
    """(name, flat index) of every coordinate ``check`` perturbs, in order,
    and the error it returns. The analytic gradient is off by a factor that
    grows with the flat index, so the error depends on which coordinates are
    checked."""
    base = {name: x.copy() for name, x in params.items()}
    seen = []

    def cubic(p):
        for name in sorted(p):
            seen.extend((name, int(i)) for i in np.flatnonzero(p[name] != base[name]))
        grads = {name: 3 * x ** 2 * (1 + 0.01 * np.arange(x.size).reshape(x.shape))
                 for name, x in p.items()}
        return float(sum((x ** 3).sum() for x in p.values())), grads

    err = check(params, cubic, eps=1e-4, **kwargs)
    assert seen[::2] == seen[1::2]  # each coordinate moves up, then down
    return seen[::2], err


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


def test_train_toy_requires_scenes():
    params = small_setup()
    decoder = init_caption_decoder(QDIM, 64, seed=9)
    with pytest.raises(ValueError):
        train_toy(params, decoder, [], epochs=1, lr=0.1)
