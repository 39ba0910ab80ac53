import base64
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamcache
import streamcache.connector
from streamcache import Scene, SimConfig, load_scene, make_scene
from streamcache.cli import main
from streamcache.connector import MAX_SCENE_BOXES, MAX_SCENE_CAPTION, MAX_SCENE_FLOATS

from naive_reference import save_scene


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    cfg = SimConfig(N_S=8, N_L=2, tau=4, mean_step_s=8.0, step_s_jitter=2.0,
                    d=16, vocab_size=32, seed=3)
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return str(path)


def test_simulate_writes_all_artifacts(tmp_path, cfg_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["simulate", cfg_path, "--duration-s", "60",
                 "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("trace_a1.csv", "trace_a2.csv", "trace_b.csv",
                 "events_a1.jsonl", "events_b.jsonl", "summary.json",
                 "manifest.json"):
        assert (out_dir / name).exists(), name
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for artifact in manifest["artifacts"]:
        assert os.path.exists(artifact)
    assert json.loads(capsys.readouterr().out)["truncated"] is False


def test_simulate_single_strategy(tmp_path, cfg_path):
    out_dir = tmp_path / "run"
    assert main(["simulate", cfg_path, "--strategy", "b", "--duration-s", "30",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "trace_b.csv").exists()
    assert not (out_dir / "trace_a1.csv").exists()


def test_simulate_single_a2_writes_the_bytes_of_all(tmp_path, cfg_path):
    # a2 run alone writes the bytes it writes beside a1 and b
    runs = {}
    for strategy in ("a2", "all"):
        runs[strategy] = tmp_path / strategy
        assert main(["simulate", cfg_path, "--strategy", strategy, "--duration-s", "120",
                     "--noise-p", "0.25", "--out-dir", str(runs[strategy])]) == 0
    for name in ("trace_a2.csv", "events_a2.jsonl"):
        assert (runs["a2"] / name).read_bytes() == (runs["all"] / name).read_bytes(), name


def test_simulate_admits_only_the_requested_strategies(tmp_path, capsys):
    # 1,028 frames of 64 tokens are past a1's live bound, but b and a2 hold
    # at most 174 tokens; "all" still reports a1's bound first
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tokens_per_frame": 64, "N_S": 1}))
    runs = {strategy: main(["simulate", str(path), "--strategy", strategy, "--duration-s",
                            "257", "--out-dir", str(tmp_path / strategy)])
            for strategy in ("a2", "all")}
    assert runs == {"a2": 0, "all": 2}
    captured = capsys.readouterr()
    assert captured.err == ("error: tokens_per_frame 64 over 1028 frames gives a1 65792 live "
                            "tokens, above MAX_LIVE_TOKENS = 65536\n")
    assert json.loads(captured.out)["strategies"] == ["a2"]
    assert (tmp_path / "a2" / "trace_a2.csv").exists() and not (tmp_path / "all").exists()


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N_S": 0}))
    code = main(["simulate", str(bad), "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert "N_S" in capsys.readouterr().err


def test_simulate_memory_cap_exits_3(tmp_path, cfg_path, capsys):
    out_dir = tmp_path / "run"
    cfg = SimConfig(N_S=8, N_L=2, tau=4, mean_step_s=8.0, step_s_jitter=2.0,
                    d=16, vocab_size=32, seed=3)
    cap_tokens = 100
    code = main(["simulate", cfg_path, "--strategy", "a1", "--duration-s", "120",
                 "--out-dir", str(out_dir),
                 "--mem-cap-bytes", str(cap_tokens * cfg.d * 8)])
    assert code == 3
    summary = json.loads((out_dir / "summary.json").read_text())
    # truncation frame from cap arithmetic: prompt(4) + frame + 1 > cap
    assert summary["strategies"]["a1"]["truncated_at"] == cap_tokens - 4
    assert (out_dir / "trace_a1.csv").exists()


@pytest.mark.parametrize("blocked", ["trace_a1.csv", "events_a1.jsonl", "summary.json",
                                     "manifest.json"])
@pytest.mark.parametrize("cap", [None, "800"], ids=["complete", "mem-capped"])
def test_simulate_unwritable_artifact_exits_2(tmp_path, cfg_path, capsys, blocked, cap):
    # a directory where an artifact goes: the run that would exit 0, or 3 at
    # its memory cap, exits 2 with an error line naming the path
    out_dir = tmp_path / "run"
    (out_dir / blocked).mkdir(parents=True)
    argv = ["simulate", cfg_path, "--strategy", "a1", "--duration-s", "10",
            "--out-dir", str(out_dir)]
    code = main(argv + (["--mem-cap-bytes", cap] if cap else []))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.splitlines()[-1].startswith(
        f"error: cannot write {out_dir / blocked}: ")
    assert ("aborted: a1: live tokens" in captured.err) == bool(cap)


@pytest.mark.parametrize("cap", ["0", "-64"])
def test_simulate_non_positive_memory_cap_exits_2(tmp_path, cfg_path, capsys, cap):
    out_dir = tmp_path / "run"
    code = main(["simulate", cfg_path, "--duration-s", "10", "--out-dir", str(out_dir),
                 "--mem-cap-bytes", cap])
    assert code == 2
    assert "--mem-cap-bytes" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_affine_fit(tmp_path, cfg_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", cfg_path, "--sweep", "8:64:8", "--out", str(out_csv)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["fit"]["r2"] >= 0.999
    assert len(result["points"]) == 8
    assert out_csv.read_text().startswith("live_tokens,append_flops")


_BENCH_SMALL = {"d": 16, "vocab_size": 32}


# bench's stdout and --out CSV, recorded when each point was counted by
# filling an attention engine one append at a time; a long output is held by
# its sha256
@pytest.mark.parametrize("doc, sweep, stdout, csv", [
    ({}, "8:512:8",
     "sha256:1f8aac37c22ef99bb4a4c0d841613a9d49ea39349de33941fd2afac4d62b8bc1",
     "sha256:91f09ac675995635a042a637c617e6f44e8bf06fe6f3c7223ba3dce03208b155"),
    (_BENCH_SMALL, "1:8:1",
     '{"fit": {"intercept": 2560.0, "r2": 1.0, "slope": 64.0}, "points": ['
     + ", ".join(f'{{"append_flops": {f}, "live_tokens": {n}}}'
                 for n, f in [(1, 2624), (2, 2688), (3, 2752), (4, 2816),
                              (5, 2880), (6, 2944), (7, 3008), (8, 3072)]) + "]}\n",
     "live_tokens,append_flops\n1,2624\n2,2688\n3,2752\n4,2816\n5,2880\n6,2944\n"
     "7,3008\n8,3072\n"),
    (_BENCH_SMALL, "16:16:1",
     '{"fit": null, "points": [{"append_flops": 3584, "live_tokens": 16}]}\n',
     "live_tokens,append_flops\n16,3584\n"),
    ({}, "1:8192:1024",
     "sha256:b4a16102a74d1e407b34dd81e15029b86a0b841c8c8570f072888e7ec48bad00",
     "live_tokens,append_flops\n1,41216\n1025,303360\n2049,565504\n3073,827648\n"
     "4097,1089792\n5121,1351936\n6145,1614080\n7169,1876224\n"),
], ids=["default-8:512:8", "d16-1:8:1", "d16-16:16:1", "default-1:8192:1024"])
def test_bench_output_bytes_are_pinned(tmp_path, capsys, doc, sweep, stdout, csv):
    def check(text, expected):
        if expected.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(text.encode()).hexdigest() == expected
        else:
            assert text == expected

    path, out_csv = tmp_path / "config.json", tmp_path / "bench.csv"
    path.write_text(json.dumps(doc))
    assert main(["bench", str(path), "--sweep", sweep, "--out", str(out_csv)]) == 0
    check(capsys.readouterr().out, stdout)
    check(out_csv.read_text(), csv)


def test_bench_single_point_refuses_fit(cfg_path, capsys):
    assert main(["bench", cfg_path, "--sweep", "16:16:1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["fit"] is None
    assert len(result["points"]) == 1


def test_bench_reversed_range_exits_2(cfg_path, capsys):
    assert main(["bench", cfg_path, "--sweep", "64:8:8"]) == 2
    assert "sweep" in capsys.readouterr().err


def test_bench_out_in_missing_dir_exits_2(tmp_path, cfg_path, capsys):
    out_csv = tmp_path / "missing" / "x.csv"
    assert main(["bench", cfg_path, "--sweep", "1:4:1", "--out", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--out" in captured.err
    assert not out_csv.parent.exists()


def test_gradcheck_synthetic_passes(capsys):
    code = main(["gradcheck", "--eps", "1e-4", "--seed", "11"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] and result["max_rel_error"] <= 1e-4


@pytest.mark.parametrize("seed, line", [
    (0, '{"eps": 0.0001, "max_rel_error": 2.2628471283088985e-05, "pass": true}'),
    (3, '{"eps": 0.0001, "max_rel_error": 1.620524320533759e-06, "pass": true}')])
def test_gradcheck_default_scene_stdout_is_pinned(capsys, seed, line):
    # the error is a ratio of central differences to the hand-written
    # gradients, so a moved bit in the forward, the box costs, the matcher or
    # the backward moves this line
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_gradcheck_scene_file(tmp_path, capsys):
    scene = make_scene(seed=11, side=4, dim=24)
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    assert main(["gradcheck", "--scene", str(path), "--eps", "1e-4"]) == 0


def test_gradcheck_scene_with_three_hands_exits_2(tmp_path, capsys):
    # make_scene refuses a third hand, so one of its objects becomes one
    scene = make_scene(seed=11, side=4, dim=24, n_hands=2, n_objects=3)
    scene = Scene(scene.grid, scene.hands + scene.objects[:1], scene.objects[1:], scene.caption)
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    assert main(["gradcheck", "--scene", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "3 hand boxes" in captured.err


def _scene_boxes(n):
    """``n`` distinct valid boxes on a grid, the first two of them hands."""
    return [dict({"cx": 0.2 + 0.1 * (i % 7), "cy": 0.2 + 0.1 * (i // 7), "w": 0.2, "h": 0.15},
                 **({"kind": "hand"} if i < 2 else {}))
            for i in range(n)]


def _seeded_scene_doc():
    return {"patches": {"seed": 3}, "side": 4, "dim": 24, "caption": [5, 12, 9],
            "gt_boxes": [{"cx": 0.4, "cy": 0.5, "w": 0.2, "h": 0.3, "kind": "hand"},
                         {"cx": 0.6, "cy": 0.4, "w": 0.3, "h": 0.2}]}


@pytest.mark.parametrize("seed, line", [
    (0, '{"eps": 0.0001, "max_rel_error": 1.57910533858752e-06, "pass": true}'),
    (3, '{"eps": 0.0001, "max_rel_error": 1.0638495799020282e-05, "pass": true}')])
def test_gradcheck_large_object_block_stdout_is_pinned(tmp_path, capsys, seed, line):
    # 2 hands and 6 objects at k = 6: a 36-pair object block
    doc = dict(_seeded_scene_doc(), gt_boxes=_scene_boxes(8))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    assert main(["gradcheck", "--scene", str(path), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_gradcheck_scene_with_infinite_box_exits_2(tmp_path, capsys):
    doc = _seeded_scene_doc()
    doc["gt_boxes"][1]["w"] = float("inf")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))  # written as the JSON extension Infinity
    assert "Infinity" in path.read_text()
    assert main(["gradcheck", "--scene", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "non-finite box" in captured.err


# each edit breaks one rule of a valid scene document; top-level-list replaces it
_SCENE_BREAKS = {
    "top-level-list": lambda doc: [doc],
    "box-entry-number": lambda doc: doc["gt_boxes"].append(0.5),
    "side-zero": lambda doc: doc.update(side=0),
    "dim-zero": lambda doc: doc.update(dim=0),
    "caption-id-high": lambda doc: doc.update(caption=[5, 64, 9]),
    "caption-id-negative": lambda doc: doc.update(caption=[-1, 12, 9]),
    "side-null": lambda doc: doc.update(side=None),
    "side-array": lambda doc: doc.update(side=[4]),
    "side-fraction": lambda doc: doc.update(side=4.5),
    "side-bool": lambda doc: doc.update(side=True),
    "box-cx-null": lambda doc: doc["gt_boxes"][0].update(cx=None),
    "caption-number": lambda doc: doc.update(caption=5),
    "patches-seed-null": lambda doc: doc["patches"].update(seed=None),
    # the scene fuzzer's finds: float() overflowed, and a far box overflowed
    # synth_patches' Gaussian bump and GIoU's hull area
    "box-cx-past-float": lambda doc: doc["gt_boxes"][0].update(cx=10 ** 400),
    "box-cx-far-outside": lambda doc: doc["gt_boxes"][0].update(cx=1e308),
    "box-w-past-frame": lambda doc: doc["gt_boxes"][1].update(w=1.5),
    # one float of base64 patches: without the bound, the reshape fails first
    "side-dim-over-cap": lambda doc: doc.update(side=1, dim=MAX_SCENE_FLOATS + 1,
                                                patches="AAAAAAAAAAA="),
    "side-squared-over-cap": lambda doc: doc.update(side=100000, dim=1,
                                                    patches="AAAAAAAAAAA="),
    "boxes-over-cap": lambda doc: doc.update(gt_boxes=_scene_boxes(MAX_SCENE_BOXES + 1)),
    "caption-over-cap": lambda doc: doc.update(caption=[5] * (MAX_SCENE_CAPTION + 1)),
}


@pytest.mark.parametrize("case,reason", [
    ("top-level-list", "JSON object"), ("box-entry-number", "list of objects"),
    ("side-zero", ">= 1"), ("dim-zero", ">= 1"), ("caption-id-high", "caption ids"),
    ("caption-id-negative", "caption ids"),
    ("side-null", "'side' must be an integer, got None"),
    ("side-array", "'side' must be an integer, got [4]"),
    ("side-fraction", "'side' must be an integer, got 4.5"),
    ("side-bool", "'side' must be an integer, got True"),
    ("box-cx-null", "box 'cx' must be a number, got None"),
    ("caption-number", "'caption' must be a list of token ids, got 5"),
    ("patches-seed-null", "patches 'seed' must be an integer, got None"),
    ("box-cx-past-float", "box 'cx' does not fit in a float"),
    ("box-cx-far-outside", "box fields are normalized to [0, 1], got BBox(cx=1e+308"),
    ("box-w-past-frame", "box fields are normalized to [0, 1], got BBox(cx=0.6, cy=0.4, w=1.5"),
    ("side-dim-over-cap", f"side * side * dim is {MAX_SCENE_FLOATS + 1}, above "
                          "MAX_SCENE_FLOATS"),
    ("side-squared-over-cap", "side * side * dim is 10000000000, above MAX_SCENE_FLOATS"),
    ("boxes-over-cap", f"{MAX_SCENE_BOXES + 1} gt_boxes, above MAX_SCENE_BOXES = "
                       f"{MAX_SCENE_BOXES}"),
    ("caption-over-cap", f"caption has {MAX_SCENE_CAPTION + 1} ids, above MAX_SCENE_CAPTION = "
                         f"{MAX_SCENE_CAPTION}"),
])
def test_gradcheck_malformed_scene_exits_2(tmp_path, capsys, case, reason):
    doc = _seeded_scene_doc()
    doc = _SCENE_BREAKS[case](doc) or doc
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    assert main(["gradcheck", "--scene", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load scene") and reason in captured.err


def test_scene_at_the_size_bound_loads(tmp_path):
    doc = _seeded_scene_doc()
    doc.update(side=256, dim=MAX_SCENE_FLOATS // 256 ** 2)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    assert load_scene(str(path)).grid.patches.size == MAX_SCENE_FLOATS


@pytest.mark.parametrize("case", ["boxes-over-cap", "caption-over-cap"])
def test_oversized_scene_is_refused_before_any_patch_is_drawn(tmp_path, capsys, monkeypatch,
                                                              case):
    def draw(*args, **kwargs):
        raise AssertionError("patches drawn for a scene above a bound")

    monkeypatch.setattr(streamcache.connector, "synth_patches", draw)
    path = tmp_path / "scene.json"
    doc = _seeded_scene_doc()
    _SCENE_BREAKS[case](doc)
    path.write_text(json.dumps(doc))
    assert main(["gradcheck", "--scene", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "above MAX_SCENE_" in captured.err


def test_scene_with_three_hands_is_refused_before_any_patch_is_drawn(tmp_path, monkeypatch):
    # the connector has 2 hand queries: load_scene refuses a third hand box
    # as make_scene refuses n_hands = 3
    def draw(*args, **kwargs):
        raise AssertionError("patches drawn for a scene with 3 hand boxes")

    monkeypatch.setattr(streamcache.connector, "synth_patches", draw)
    doc = dict(_seeded_scene_doc(), gt_boxes=[dict(b, kind="hand") for b in _scene_boxes(3)])
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="scene has 3 hand boxes; the connector has 2 hand"):
        load_scene(str(path))


def test_scene_at_the_box_and_caption_bounds_loads(tmp_path, capsys):
    doc = dict(_seeded_scene_doc(), gt_boxes=_scene_boxes(MAX_SCENE_BOXES),
               caption=[1 + i % 63 for i in range(MAX_SCENE_CAPTION)])
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(str(path))
    assert len(scene.hands) + len(scene.objects) == MAX_SCENE_BOXES
    assert len(scene.caption) == MAX_SCENE_CAPTION
    # gradcheck's cost grows with the box count; the caption bound alone is cheap to run
    path.write_text(json.dumps(dict(doc, gt_boxes=_scene_boxes(2))))
    assert main(["gradcheck", "--scene", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_gradcheck_nan_gradient_exits_4(monkeypatch, capsys):
    value_and_grads = streamcache.cli.stage1_value_and_grads

    def nan_w1(*args, **kwargs):  # w1 holds about a fifth of the sampled coordinates
        losses, grads = value_and_grads(*args, **kwargs)
        grads["w1"] = np.full_like(grads["w1"], np.nan)
        return losses, grads

    monkeypatch.setattr(streamcache.cli, "stage1_value_and_grads", nan_w1)
    assert main(["gradcheck", "--seed", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gradient check gave a non-finite error: nan")


@pytest.mark.parametrize("case", ["eps-1.7e308", "eps-1e308", "patches-1.5e308"])
def test_gradcheck_non_finite_loss_exits_4(tmp_path, capsys, case):
    # the perturbed or the evaluation point's activations overflow; at 1e308
    # the +-eps points stay finite, and the one-sided retry's 2 eps does not
    if case.startswith("eps"):
        argv = ["gradcheck", "--eps", case[4:]]
    else:
        doc = dict(_seeded_scene_doc(), patches=base64.b64encode(
            np.full(4 * 4 * 24, 1.5e308).astype("<f8").tobytes()).decode())
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        argv = ["gradcheck", "--scene", str(path)]
    assert main(argv) == 4  # and, under the suite's warnings-as-errors, no warning
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: gradient check diverged, TrainingDivergence: "
                            "non-finite connector activations\n")


def test_gradcheck_zero_eps_usage_error(capsys):
    assert main(["gradcheck", "--eps", "0"]) == 2


def test_gradcheck_corrupt_scene_exits_2(tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_text("{broken")
    assert main(["gradcheck", "--scene", str(bad)]) == 2


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_negative_config_seed_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    argv = [command, str(path)]
    argv += (["--out-dir", str(out)] if command == "simulate"
             else ["--sweep", "1:4:1", "--out", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert not out.exists()


def test_gradcheck_negative_seed_exits_2(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--seed" in captured.err


def test_report_budget_uses_config_rates(cfg_path, capsys):
    code = main(["report", "--budget", "--config", cfg_path,
                 "--horizon-s", "3600", "--tokens-per-step", "5.7"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # ratio uses the configured fps/mean_step_s (8 s steps here)
    assert report["reduction_ratio"] == pytest.approx(4 * 8 / 5.7)


def test_report_budget_default_ratio(capsys):
    code = main(["report", "--budget"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 20 <= report["reduction_ratio"] <= 25


def test_report_budget_default_stdout_bytes(capsys):
    # the exact line, so a change of key order, separators or float repr shows
    assert main(["report", "--budget"]) == 0
    assert capsys.readouterr().out == (
        '{"horizon_s": 3600.0, "marker_tokens": 112.5, "reduction_ratio": 22.45614035087719, '
        '"reduction_ratio_with_markers": 19.104477611940297, "verbalized_text_tokens": 641.25, '
        '"verbalized_total": 753.75, "visual_tokens": 14400.0}\n')


def test_report_scaling_on_a1_trace(tmp_path, cfg_path, capsys):
    out_dir = tmp_path / "run"
    main(["simulate", cfg_path, "--strategy", "a1", "--duration-s", "60",
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    code = main(["report", "--scaling", str(out_dir / "trace_a1.csv")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["a1"]["class"] == "linear"


def test_report_scaling_missing_file_exits_2(tmp_path, capsys):
    assert main(["report", "--scaling", str(tmp_path / "nope.csv")]) == 2


@pytest.mark.parametrize("edit,message", [
    (lambda fields: fields[:3] + ["inf"], "line 6, column live_tokens"),
    (lambda fields: fields[:3], "line 6, column live_tokens"),
    (lambda fields: fields + ["999", "junk"], "line 6: 2 extra field(s)"),
    (lambda fields: fields[:2] + ["b" * 131_073] + fields[3:], "line 6: field larger"),
], ids=["inf", "short row", "extra fields", "oversized field"])
def test_report_scaling_bad_row_exits_2(tmp_path, cfg_path, capsys, edit, message):
    out_dir = tmp_path / "run"
    main(["simulate", cfg_path, "--strategy", "a1", "--duration-s", "60",
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    path = out_dir / "trace_a1.csv"
    lines = path.read_text().splitlines()
    lines[5] = ",".join(edit(lines[5].split(",")))
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--scaling", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read trace")
    assert message in captured.err


def _reversed_rows(lines):
    return lines[:1] + lines[:0:-1]


def _empty_strategy(lines):
    fields = lines[5].split(",")
    return lines[:5] + [",".join(fields[:2] + [""] + fields[3:])] + lines[6:]


def _fractional_frame(lines):
    return lines[:2] + ["1.5" + lines[2][1:]] + lines[3:]


@pytest.mark.parametrize("edit,message", [
    # each of these used to exit 0: reversed rows fit as "sublinear" with
    # exponent -1.82, and an empty strategy was reported under the key ""
    (_reversed_rows, "line 2, column frame: '239' is not 0, the next frame of strategy a1"),
    (_empty_strategy, "line 6, column strategy: '' is not one of a1, a2, b"),
    (_fractional_frame, "line 3, column frame: '1.5' is not 1"),
], ids=["reversed rows", "empty strategy", "fractional frame"])
def test_report_scaling_invalid_trace_exits_2(tmp_path, cfg_path, capsys, edit, message):
    out_dir = tmp_path / "run"
    main(["simulate", cfg_path, "--strategy", "a1", "--duration-s", "60",
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    path = out_dir / "trace_a1.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main(["report", "--scaling", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read trace")
    assert message in captured.err


@pytest.mark.parametrize("live_tokens", ["1.5", "-7"])
def test_report_scaling_non_integer_count_exits_2(tmp_path, cfg_path, capsys, live_tokens):
    # both used to exit 0 with a growth fit of b's trace
    out_dir = tmp_path / "run"
    main(["simulate", cfg_path, "--strategy", "b", "--duration-s", "60",
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    path = out_dir / "trace_b.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    lines[5] = ",".join(fields[:3] + [live_tokens] + fields[4:])
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--scaling", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"line 6, column live_tokens: {live_tokens!r} is not a non-negative integer"
            in captured.err)


@pytest.mark.parametrize("line,t_s,message", [
    (6, "-99.000", "'-99.000' is not a non-negative number with three decimals"),
    (10, "1e300", "'1e300' is not a non-negative number with three decimals"),
    (10, "0.5", "'0.5' is not a non-negative number with three decimals"),
    (10, "0.500", "'0.500' is below 1.750, the previous time of strategy b"),
], ids=["negative", "exponent", "one decimal", "decreasing"])
def test_report_scaling_bad_time_exits_2(tmp_path, cfg_path, capsys, line, t_s, message):
    # the first three used to exit 0 with a growth fit of b's trace
    out_dir = tmp_path / "run"
    main(["simulate", cfg_path, "--strategy", "b", "--duration-s", "60",
          "--out-dir", str(out_dir)])
    capsys.readouterr()
    path = out_dir / "trace_b.csv"
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    lines[line - 1] = ",".join(fields[:1] + [t_s] + fields[2:])
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--scaling", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot read trace: {path} line {line}, column t_s: {message}\n" == captured.err


def test_usage_error_exits_2():
    assert main(["simulate"]) == 2
    assert main(["report"]) == 2


@pytest.mark.parametrize("text", ['{"fps": NaN}', '{"mean_step_s": Infinity}'])
def test_simulate_non_finite_config_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["simulate", str(bad), "--duration-s", "30", "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "bench", "report"])
def test_config_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": 3, "note": "\xff"}')
    out_dir, out_csv = tmp_path / "run", tmp_path / "bench.csv"
    argv = {"simulate": ["simulate", str(path), "--out-dir", str(out_dir)],
            "bench": ["bench", str(path), "--sweep", "1:4:1", "--out", str(out_csv)],
            "report": ["report", "--budget", "--config", str(path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read config")
    assert not out_dir.exists() and not out_csv.exists()


@pytest.mark.parametrize("doc,field", [
    ({"vocab_size": 10000000000000000000}, "vocab_size"),
    ({"d": 2 ** 40}, "d"),
], ids=["huge-vocab", "huge-d"])
@pytest.mark.parametrize("command", ["simulate", "bench", "report"])
def test_oversized_tables_exit_2(tmp_path, capsys, command, doc, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out_dir, out_csv = tmp_path / "run", tmp_path / "bench.csv"
    argv = {"simulate": ["simulate", str(path), "--out-dir", str(out_dir)],
            "bench": ["bench", str(path), "--sweep", "1:4:1", "--out", str(out_csv)],
            "report": ["report", "--budget", "--config", str(path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be")
    assert not out_dir.exists() and not out_csv.exists()


def test_report_budget_non_finite_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mean_step_s": Infinity}')
    assert main(["report", "--budget", "--config", str(bad)]) == 2
    assert "mean_step_s" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--duration-s", "nan"), ("--duration-s", "inf"), ("--noise-p", "nan"),
    ("--noise-p", "1.5"),
])
def test_simulate_bad_float_flags_exit_2(tmp_path, cfg_path, capsys, flag, value):
    out_dir = tmp_path / "run"
    code = main(["simulate", cfg_path, "--strategy", "b", "--duration-s", "30",
                 "--out-dir", str(out_dir), flag, value])
    assert code == 2
    assert not (out_dir / "trace_b.csv").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_report_budget_non_finite_horizon_exits_2(capsys, value):
    assert main(["report", "--budget", "--horizon-s", value]) == 2
    assert capsys.readouterr().out == ""


def test_report_budget_overflow_is_not_printed(capsys):
    # a finite horizon whose token counts overflow must not print Infinity
    assert main(["report", "--budget", "--horizon-s", "1e308"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("field", ["fps", "mean_step_s", "step_s_jitter", "lambda_1"])
@pytest.mark.parametrize("command", ["simulate", "bench", "report"])
def test_config_integer_beyond_float_range_exits_2(tmp_path, capsys, command, field):
    # JSON integers are unbounded; one in a float field may not fit in a float
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: 10 ** 400}))
    out_dir, out_csv = tmp_path / "run", tmp_path / "bench.csv"
    argv = {"simulate": ["simulate", str(path), "--out-dir", str(out_dir)],
            "bench": ["bench", str(path), "--sweep", "1:4:1", "--out", str(out_csv)],
            "report": ["report", "--budget", "--config", str(path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must fit in a float")
    assert not out_dir.exists() and not out_csv.exists()


def test_config_tau_beyond_deque_limit_exits_2(tmp_path, capsys):
    path, out_dir = tmp_path / "config.json", tmp_path / "run"
    argv = ["simulate", str(path), "--duration-s", "1", "--out-dir", str(out_dir)]
    path.write_text(json.dumps({"tau": sys.maxsize + 1}))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: tau must be in [0, {sys.maxsize}]")
    assert not out_dir.exists()
    path.write_text(json.dumps({"tau": sys.maxsize}))  # the longest deque still runs
    assert main(argv) == 0


def test_report_budget_integer_overflow_exits_2(tmp_path, capsys):
    # tokens_per_frame is an int field, so only the budget arithmetic overflows
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tokens_per_frame": 10 ** 400}))
    assert main(["report", "--budget", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_d_not_divisible_by_engine_heads_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d": 6}))
    out_dir = tmp_path / "run"
    argv = [command, str(path)]
    argv += ["--out-dir", str(out_dir)] if command == "simulate" else ["--sweep", "1:4:1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "d=6" in captured.err
    assert not out_dir.exists()


def test_simulate_duration_without_frames_exits_2(tmp_path, cfg_path, capsys):
    # 0.1 s at 4 fps rounds to zero frames
    out_dir = tmp_path / "run"
    code = main(["simulate", cfg_path, "--duration-s", "0.1", "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no frames" in captured.err
    assert not out_dir.exists()


def test_simulate_out_dir_is_a_file_exits_2(tmp_path, cfg_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory")
    code = main(["simulate", cfg_path, "--duration-s", "10", "--out-dir", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--out-dir" in captured.err
    assert target.read_text() == "not a directory"


# Each case asks for work or memory past a bound: without the bound it would
# run for minutes or allocate gigabytes, so the cases run in one child process
# with capped address space and a timeout, never in the test process.
_RUNAWAY_SCRIPT = """
import contextlib, io, json, sys
from streamcache.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _cap_address_space():
    limit = 1536 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_work_past_admission_bounds_exits_2(tmp_path):
    def config(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    default = config("default", {})
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(dict(_seeded_scene_doc(), side=100000)))
    out = tmp_path / "out"
    # (argv, text the error line must hold)
    cases = [
        (["simulate", config("fast", {"fps": 1e9}), "--duration-s", "1200"],
         "fps 1e+09 gives 1.2e+12 frames, above MAX_FRAMES"),
        (["simulate", default, "--duration-s", "1e12"],
         "duration_s 1e+12 at fps 4 gives 4e+12 frames, above MAX_FRAMES"),
        (["simulate", config("one-fps", {"fps": 1.0}), "--duration-s", "65537"],
         "duration_s 65537 at fps 1 gives 65537 frames, above MAX_FRAMES = 65536"),
        (["simulate", config("wide", {"tokens_per_frame": 100000000}), "--duration-s", "10"],
         "tokens_per_frame 100000000 over 40 frames"),
        (["simulate", config("two", {"tokens_per_frame": 2}), "--duration-s", "8192.25"],
         "tokens_per_frame 2 over 32769 frames gives a1 65538 live tokens, above "
         "MAX_LIVE_TOKENS = 65536"),
        (["bench", default, "--sweep", "1:100000000:1000000"],
         "--sweep stop 100000000 is above MAX_LIVE_TOKENS"),
        (["bench", default, "--sweep", "1:65537:65536"],
         "--sweep stop 65537 is above MAX_LIVE_TOKENS"),
        (["gradcheck", "--scene", str(scene)],
         "side * side * dim is 240000000000, above MAX_SCENE_FLOATS"),
    ]
    argvs = [argv + (["--out-dir", str(out)] if argv[0] == "simulate" else
                     ["--out", str(out)] if argv[0] == "bench" else [])
             for argv, _ in cases]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(streamcache.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RUNAWAY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=15, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    for (argv, message), (code, stdout, stderr) in zip(cases, results):
        assert (code, stdout) == (2, ""), argv
        assert stderr.startswith("error:") and message in stderr, (argv, stderr)
    assert not out.exists()


def test_bench_at_the_stop_bound_builds_no_engine(tmp_path):
    # at d = 1024 an engine filled to the 65,536 stop would hold a 2 GiB K/V
    # slab; bench prints the closed form, so it runs under the same address
    # space cap as the runaway cases
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"d": 1024}))
    argv = ["bench", str(path), "--sweep", "1:65536:65535"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(streamcache.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RUNAWAY_SCRIPT, json.dumps([argv])],
                          capture_output=True, text=True, timeout=15, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    [(code, stdout, stderr)] = json.loads(proc.stdout)
    assert (code, stderr) == (0, "")
    points = json.loads(stdout)["points"]
    assert [p["live_tokens"] for p in points] == [1, 65536]
    assert points[-1]["append_flops"] == 276_955_136  # append_flop_cost(65536, 1024, 2, 128)


def test_budget_that_overflows_exits_2_before_writing(tmp_path, capsys):
    # 1 s over a mean_step_s of 5e-324 is an infinite step count, which
    # summary.json once held as the non-standard JSON constant Infinity
    path, out_dir = tmp_path / "config.json", tmp_path / "run"
    path.write_text(json.dumps({"mean_step_s": 5e-324}))
    assert main(["simulate", str(path), "--duration-s", "1", "--out-dir", str(out_dir)]) == 2
    assert main(["report", "--budget", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for line, horizon in zip(lines, ("1", "3600")):
        assert line.startswith(f"error: horizon_s {horizon} at mean_step_s 4.94066e-324")
        assert line.endswith("gives verbalized_text_tokens = inf, which is not finite")
    assert not out_dir.exists()


def test_bounded_live_tokens_past_bound_exits_2(tmp_path):
    # b and a2 keep every verbalized group when N_L is huge and tau is 0: a1's
    # bounds admit these streams, whose b would hold over 65,536 live tokens,
    # or append a 128-token block over more than 2**22 / 128 of them (a1's
    # last block over 255 frames is 4178432 cells; 243 frames is the first
    # count past b's bound)
    wide = {"tokens_per_frame": 128, "N_S": 1000, "N_L": 1000, "tau": 0}
    cases = [({"N_S": 1000000, "N_L": 1000000, "tau": 0}, "3600",
              "N_S 1000000, N_L 1000000 and tokens_per_frame 1 over 14400 frames give b "
              "and a2 up to 115204 live tokens, above MAX_LIVE_TOKENS = 65536"),
             ({"N_L": 1000000, "tau": 0}, "2340.5",
              "N_S 64, N_L 1000000 and tokens_per_frame 1 over 9362 frames give b and a2 "
              "up to 65603 live tokens, above MAX_LIVE_TOKENS = 65536"),
             (wide, "63.75",
              "N_S 1000, N_L 1000 and tokens_per_frame 128 over 255 frames give b and a2 a "
              "block of up to 4406912 attention cells, above MAX_BLOCK_CELLS = 4194304"),
             (wide, "60.75",
              "N_S 1000, N_L 1000 and tokens_per_frame 128 over 243 frames give b and a2 a "
              "block of up to 4199552 attention cells, above MAX_BLOCK_CELLS = 4194304")]
    out = tmp_path / "out"
    argvs = []
    for i, (doc, duration, _) in enumerate(cases):
        path = tmp_path / f"long-{i}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["simulate", str(path), "--duration-s", duration, "--out-dir", str(out)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(streamcache.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RUNAWAY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=15, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    for (_, _, message), (code, stdout, stderr) in zip(cases, json.loads(proc.stdout)):
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message}\n"
    assert not out.exists()


def test_budget_without_text_tokens_exits_2(tmp_path, capsys):
    # a horizon far below mean_step_s underflows the step count, and the
    # budget's ratios would divide by zero text tokens
    path, out_dir = tmp_path / "config.json", tmp_path / "run"
    path.write_text(json.dumps({"mean_step_s": 1e308, "fps": 1e300}))
    assert main(["report", "--budget", "--config", str(path), "--horizon-s", "1e-300"]) == 2
    assert main(["simulate", str(path), "--duration-s", "1e-300", "--out-dir",
                 str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: horizon_s 1e-300 at mean_step_s 1e+308 gives no "
                              "text tokens") == 2
    assert not out_dir.exists()


def test_block_past_cell_bound_exits_2(tmp_path):
    # a1's last block of 16384 tokens over 65540 asks numpy for a 17 GiB bias;
    # 1024 tokens over 4 frames is the first size past the bound at 4 fps
    out = tmp_path / "out"
    cases = [(16384, "tokens_per_frame 16384 over 4 frames gives a1 a last block of "
                     "1073807360 attention cells, above MAX_BLOCK_CELLS = 4194304"),
             (1024, "tokens_per_frame 1024 over 4 frames gives a1 a last block of "
                    "4198400 attention cells, above MAX_BLOCK_CELLS = 4194304")]
    argvs = []
    for tokens_per_frame, _ in cases:
        path = tmp_path / f"wide-{tokens_per_frame}.json"
        path.write_text(json.dumps({"tokens_per_frame": tokens_per_frame}))
        argvs.append(["simulate", str(path), "--duration-s", "1", "--out-dir", str(out)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(streamcache.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RUNAWAY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=15, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    for (_, message), (code, stdout, stderr) in zip(cases, json.loads(proc.stdout)):
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and message in stderr, stderr
    assert not out.exists()


_SCIPY_FREE_SCRIPT = """
import contextlib, io, sys
from streamcache import (BBox, hungarian_match, init_caption_decoder, init_connector,
                         make_scene, train_toy)
from streamcache.cli import main
config, out_dir = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["simulate", config, "--duration-s", "30", "--out-dir", out_dir]),
             main(["bench", config, "--sweep", "1:8:1"]),
             main(["report", "--budget"]),
             main(["report", "--scaling", out_dir + "/trace_b.csv"]),
             main(["gradcheck"])]
assert codes == [0, 0, 0, 0, 0], codes
box = BBox(0.5, 0.5, 0.2, 0.2)
assert hungarian_match([box, box], [box]) == [0]
scene = make_scene(0, side=4, dim=24)
train_toy(init_connector(feat_dim=24, d=16, m=4, k=2, d_mlp=24, seed=0),
          init_caption_decoder(16, 64, seed=0), [scene], epochs=2, lr=0.1)
assert "scipy" not in sys.modules, "a command loaded scipy"
"""


def test_no_command_loads_scipy(tmp_path, cfg_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(streamcache.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, cfg_path,
                           str(tmp_path / "run")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
