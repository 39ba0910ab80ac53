import csv
import io
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from streamcache import SimConfig, StrategyKind, generate_stream, run_strategy
from streamcache.traceio import (TRACE_COLUMNS, read_trace_csv, summarize,
                                 write_events_jsonl, write_manifest, write_trace_csv)


@pytest.fixture(scope="module")
def short_run():
    cfg = SimConfig(N_S=8, N_L=2, tau=4, mean_step_s=8.0, step_s_jitter=2.0,
                    d=16, vocab_size=32, seed=3)
    stream = generate_stream(cfg, 120.0)
    traces = [run_strategy(kind, stream, cfg) for kind in StrategyKind]
    return cfg, traces


def test_trace_csv_round_trip(tmp_path, short_run):
    cfg, traces = short_run
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), traces[2])
    data = read_trace_csv(str(path))
    cols = data["b"]
    assert list(cols) == TRACE_COLUMNS
    assert cols["frame"].size == len(traces[2].rows)
    assert cols["live_tokens"][10] == traces[2].rows[10].live_token_count
    assert cols["mem_bytes_proxy"][0] == traces[2].rows[0].live_token_count * cfg.d * 8


def test_trace_csv_byte_identical_across_runs(tmp_path, short_run):
    # two independent runs under the same (cfg, seed) must produce
    # byte-identical artifacts
    cfg, traces = short_run
    stream = generate_stream(cfg, 120.0)
    rerun = run_strategy(StrategyKind.VERBALIZED_SEPARATE, stream, cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(str(a), traces[1])
    write_trace_csv(str(b), rerun)
    assert a.read_bytes() == b.read_bytes()
    ea, eb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_events_jsonl(str(ea), traces[1])
    write_events_jsonl(str(eb), rerun)
    assert ea.read_bytes() == eb.read_bytes()


def test_writers_match_csv_and_json_modules(tmp_path, short_run):
    # the fixed row formats against the writers they replaced
    cfg, traces = short_run
    for trace in traces:
        expected_csv = io.StringIO(newline="")
        writer = csv.writer(expected_csv)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.rows:
            writer.writerow([r.frame, f"{r.t_s:.3f}", trace.kind.value, r.live_token_count,
                             r.append_flops, r.extra_recompute_flops,
                             r.live_token_count * cfg.d * 8, r.predicted_step_id,
                             int(r.correct), int(r.verbalization_event)])
        expected_jsonl = "".join(json.dumps(asdict(e), sort_keys=True) + "\n"
                                 for e in trace.cache_events)
        csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "e.jsonl"
        write_trace_csv(str(csv_path), trace)
        write_events_jsonl(str(jsonl_path), trace)
        assert csv_path.read_bytes() == expected_csv.getvalue().encode()
        assert jsonl_path.read_bytes() == expected_jsonl.encode()


def test_read_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("frame,nope\n1,2\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(TRACE_COLUMNS) + "\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(empty))


@pytest.mark.parametrize("edit,message", [
    (lambda fields: fields[:3] + ["inf"] + fields[4:], "line 3, column live_tokens"),
    (lambda fields: fields[:3] + ["nan"] + fields[4:], "line 3, column live_tokens"),
    (lambda fields: fields[:-1], "line 3, column verbalized"),
    (lambda fields: fields + ["999", "junk"], "line 3: 2 extra field"),
    # past the csv module's default 131,072-character field limit
    (lambda fields: fields[:2] + ["b" * 131_073] + fields[3:], "line 3: field larger"),
], ids=["inf", "nan", "short row", "extra fields", "oversized field"])
def test_read_trace_rejects_bad_row(tmp_path, short_run, edit, message):
    _, traces = short_run
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), traces[2])
    lines = path.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        read_trace_csv(str(path))


@pytest.mark.parametrize("column,value,message", [
    ("frame", "2.0", "'2.0' is not 2, the next frame"),
    ("frame", "02", "'02' is not 2, the next frame"),
    ("live_tokens", "1.5", "'1.5' is not a non-negative integer"),
    ("live_tokens", "-7", "'-7' is not a non-negative integer"),
    ("append_flops", "1e3", "'1e3' is not a non-negative integer"),
    ("recompute_flops", " 0", "' 0' is not a non-negative integer"),
    ("mem_bytes_proxy", "+512", "'+512' is not a non-negative integer"),
    ("pred", "-1", "'-1' is not a non-negative integer"),
    ("correct", "2", "'2' is not 0 or 1"),
    ("verbalized", "1.0", "'1.0' is not 0 or 1"),
    ("t_s", "0.5", "'0.5' is not a non-negative number with three decimals"),
    ("t_s", "0.000", "'0.000' is below 0.250, the previous time of strategy b"),
])
def test_read_trace_rejects_bad_count_or_flag(tmp_path, short_run, column, value, message):
    _, traces = short_run
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), traces[2])
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[TRACE_COLUMNS.index(column)] = value
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"line 4, column {column}: {message}")):
        read_trace_csv(str(path))


def test_events_jsonl_schema(tmp_path, short_run):
    _, traces = short_run
    path = tmp_path / "events.jsonl"
    write_events_jsonl(str(path), traces[2])
    lines = path.read_text().strip().splitlines()
    assert lines
    for line in lines[:50]:
        event = json.loads(line)
        assert set(event) == {"t", "op", "token_ids", "kind"}
        assert event["op"] in ("entry", "exit_short", "exit_long")


def test_summary_contents(short_run):
    cfg, traces = short_run
    summary = summarize(traces)
    assert set(summary["strategies"]) == {"a1", "a2", "b"}
    assert summary["strategies"]["a1"]["growth"]["class"] == "linear"
    assert summary["budget"]["visual_tokens"] == cfg.fps * 120.0
    assert summary["config"]["N_S"] == cfg.N_S
    json.dumps(summary)  # must be serializable


def test_manifest_lists_existing_artifacts(tmp_path, short_run):
    cfg, traces = short_run
    csv_path = tmp_path / "t.csv"
    write_trace_csv(str(csv_path), traces[0])
    write_manifest(str(tmp_path / "manifest.json"), cfg, [str(csv_path)], "0.1.0")
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert stored["seed"] == cfg.seed
    assert stored["artifacts"] == [str(csv_path)]
    assert stored["tool_version"] == "0.1.0"
    assert stored["config"] == asdict(cfg)
    with pytest.raises(FileNotFoundError):
        write_manifest(str(tmp_path / "m2.json"), cfg,
                       [str(tmp_path / "missing.csv")], "0.1.0")
