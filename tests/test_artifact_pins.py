"""Byte pins on the ``simulate`` artifacts and on the connector's training.

The traces, event logs and summary of a run are a function of the config,
the duration and the noise level alone. These digests were recorded before
the harness was cut down to one cache per strategy run; any change to what a
run writes, other than the manifest, shows here.

The connector pins were recorded before its box path moved from per-pair
loops to ``(n, 4)`` arrays: a ``train_toy`` curve on the benchmark's
``connector-train`` setup, and the losses and gradients of one
``stage1_value_and_grads`` call where three objects are matched among four
queries.
"""

import dataclasses
import hashlib
import json

import pytest

from streamcache import (SimConfig, init_caption_decoder, init_connector, make_scene,
                         stage1_value_and_grads, train_toy)
from streamcache.cli import main

FLOAT_DIGITS = 8  # significant digits of summary.json floats that are pinned

CONFIGS = {
    "default": (SimConfig(), "300", "0.1"),
    "tpf3-nl5": (SimConfig(tokens_per_frame=3, N_L=5), "200", "0.2"),
}

PINS = {
    "default": {
        "events_a1.jsonl":
            "97d7247424b7fc4361c39db3de027e7e3f9081656f182e748399c2d79a5928b6",
        "events_a2.jsonl":
            "7bdd4cab6fa1aed96a66b27bea464deb4e5a146a681dad8e7f16e2832ea42d87",
        "events_b.jsonl":
            "7bdd4cab6fa1aed96a66b27bea464deb4e5a146a681dad8e7f16e2832ea42d87",
        "summary.json":
            "c222dfa44455ed6076ac87130f26df230635d33f6198e127ea66ec11c5b90113",
        "trace_a1.csv":
            "d8f79f0c814c92ca67adc822e1c17967c3e2ecf8efb8f72d28034e86f6029cac",
        "trace_a2.csv":
            "e9c5ea1063711f8f2862681ef83c19e5d1360fa67257c9e7c0a7711fce2887be",
        "trace_b.csv":
            "afe1400a9ec825397a38b1956d256b691eaefff950a8d0e4cee9d21a9bba9b91",
    },
    "tpf3-nl5": {
        "events_a1.jsonl":
            "a71d5c174eef211f5e38ca8d4501d4175adace90a8e2fb61f1bb18351a5d0db6",
        "events_a2.jsonl":
            "6d5492029154f57b84ee84b4d51f9ce74392b7ce5f0445bf8461f12ace3c115f",
        "events_b.jsonl":
            "6d5492029154f57b84ee84b4d51f9ce74392b7ce5f0445bf8461f12ace3c115f",
        "summary.json":
            "eddc1b6a559214707b9a1f2667cfbbcd506803fea488a84400da7274ab58697f",
        "trace_a1.csv":
            "1bdef733a7badb950dacc9b72d3e9ae4457eb084b1647090e861077c83bf2bb0",
        "trace_a2.csv":
            "7fc4f07a0654038ee053fd54589409aff6ddaf21c7815e36f20034db02c37f0a",
        "trace_b.csv":
            "53445e0d46d9477b962a9523284a2c0a2e98adf5aad9df10cf40b04943e335f6",
    },
}


def _round_floats(value):
    """Round every float to ``FLOAT_DIGITS`` significant digits: the summary's
    fit floats come from least squares, whose last digits depend on BLAS."""
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def artifact_digests(out_dir) -> dict:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        data = path.read_bytes()
        if path.name == "summary.json":
            data = json.dumps(_round_floats(json.loads(data)), sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_artifacts_match_pins(tmp_path, capsys, name):
    cfg, duration_s, noise_p = CONFIGS[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    out_dir = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "--duration-s", duration_s,
                 "--noise-p", noise_p, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert artifact_digests(out_dir) == PINS[name]


# perfbench's connector-train setup at seed 0; equals its pins.json curve digest
TRAIN_CURVE_SHA256 = "fd2bf9826041c9e4dcb4866ad242f721ff74e6c62145fb96bb7e740612f03102"
STAGE1_LOSSES = {"total": 22.062987, "lm": 4.1998289, "ho": 8.9315791}
STAGE1_GRADS_SHA256 = "c34cd01a97bb021cd2ffd14520369b2c3d5a7013f898d08c98c7728ca9bb199f"


def test_train_toy_curve_matches_pin():
    scene = make_scene(0, side=16, dim=48)
    params = init_connector(feat_dim=48, d=32, m=8, k=2, d_mlp=48, seed=1)
    decoder = init_caption_decoder(32, 64, seed=2)
    result = train_toy(params, decoder, [scene], epochs=200, lr=0.1, lambda_1=2.0)
    digest = hashlib.sha256(repr(_round_floats(result.curve.tolist())).encode()).hexdigest()
    assert digest == TRAIN_CURVE_SHA256


def test_stage1_three_objects_four_queries_match_pins():
    scene = make_scene(7, side=4, dim=24, n_objects=3)
    params = init_connector(feat_dim=24, d=16, m=4, k=4, d_mlp=24, seed=5)
    decoder = init_caption_decoder(16, 64, seed=9)
    losses, grads = stage1_value_and_grads(params, decoder, scene, lambda_1=2.0)
    assert _round_floats(losses) == STAGE1_LOSSES
    rounded = _round_floats({name: g.tolist() for name, g in grads.items()})
    digest = hashlib.sha256(json.dumps(rounded, sort_keys=True).encode()).hexdigest()
    assert digest == STAGE1_GRADS_SHA256
