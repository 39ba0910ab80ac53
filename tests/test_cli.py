import json
import os

import pytest

from streamcache import SimConfig, make_scene, save_scene
from streamcache.cli import main


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    cfg = SimConfig(N_S=8, N_L=2, tau=4, mean_step_s=8.0, step_s_jitter=2.0,
                    d=16, vocab_size=32, seed=3)
    path.write_text(cfg.to_json())
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


def test_bench_single_point_refuses_fit(cfg_path, capsys):
    assert main(["bench", cfg_path, "--sweep", "16:16:1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["fit"] is None
    assert len(result["points"]) == 1


def test_bench_reversed_range_exits_2(cfg_path, capsys):
    assert main(["bench", cfg_path, "--sweep", "64:8:8"]) == 2
    assert "sweep" in capsys.readouterr().err


def test_gradcheck_synthetic_passes(capsys):
    code = main(["gradcheck", "--synthetic", "--eps", "1e-4", "--seed", "11"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] and result["max_rel_error"] <= 1e-4


def test_gradcheck_scene_file(tmp_path, capsys):
    scene = make_scene(seed=11, side=4, dim=24)
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    assert main(["gradcheck", "--scene", str(path), "--eps", "1e-4"]) == 0


def test_gradcheck_zero_eps_usage_error(capsys):
    assert main(["gradcheck", "--eps", "0"]) == 2


def test_gradcheck_corrupt_scene_exits_2(tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_text("{broken")
    assert main(["gradcheck", "--scene", str(bad)]) == 2


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
