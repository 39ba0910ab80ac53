"""Artifact writers and readers: trace CSV, cache event JSONL, run summary,
and the run manifest.

The CSV column set is fixed (frame, t_s, strategy, live_tokens, append_flops,
recompute_flops, mem_bytes_proxy, pred, correct, verbalized); wall-clock
timings stay in memory so artifacts are byte-stable for a given config and
seed. Memory is a proxy: live tokens times d times 8 bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain
from typing import Dict, List

import numpy as np

from .cache import EVENT_TYPES
from .config import SimConfig
from .harness import MIN_GROWTH_FRAMES, StrategyKind, StrategyTrace, fit_growth, spike_ratio
from .verbalize import budget_report

TRACE_COLUMNS = ["frame", "t_s", "strategy", "live_tokens", "append_flops",
                 "recompute_flops", "mem_bytes_proxy", "pred", "correct", "verbalized"]
COUNT_COLUMNS = ("live_tokens", "append_flops", "recompute_flops", "mem_bytes_proxy", "pred")
FLAG_COLUMNS = ("correct", "verbalized")
TIME_FORMAT = re.compile(r"[0-9]+\.[0-9]{3}")  # t_s as write_trace_csv writes it


def write_trace_csv(path: str, trace: StrategyTrace) -> None:
    """One fixed-format row per frame, in the bytes ``csv.writer`` would
    write: no field needs quoting, and every line ends in ``\r\n``."""
    bytes_per_token = trace.cfg.d * 8
    kind = trace.kind.value
    rows = trace.rows
    columns = zip(rows.t_s, rows.live_token_count, rows.append_flops,
                  rows.extra_recompute_flops, rows.predicted_step_id, rows.correct,
                  rows.verbalization_event)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(
            f"{frame},{t_s:.3f},{kind},{live},{append},{recompute},{live * bytes_per_token},"
            f"{pred},{correct},{verbalized}\r\n"
            for frame, (t_s, live, append, recompute, pred, correct, verbalized)
            in enumerate(columns))


def read_trace_csv(path: str) -> Dict[str, Dict[str, np.ndarray]]:
    """Per-strategy column arrays from a trace CSV.

    A valid trace names a strategy ``a1``, ``a2`` or ``b`` on every row, holds
    0 or 1 in ``correct`` and ``verbalized``, a non-negative number with three
    decimals in ``t_s`` and a non-negative integer in every other column, and
    per strategy its ``frame`` column runs 0, 1, ... n-1 and its ``t_s`` never
    decreases. Raises ``ValueError`` naming the line of a row that the csv
    module cannot parse or that has extra fields, and the line and column of a
    missing field, of a numeric field that is not a finite number, of a time,
    count or flag out of its form or range, of an unknown strategy or of a
    frame or time out of order.
    """
    by_strategy: Dict[str, Dict[str, list]] = {}
    strategies = [kind.value for kind in StrategyKind]
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace columns: {reader.fieldnames}")
            for rec in reader:
                where = f"{path} line {reader.line_num}"
                if None in rec:  # DictReader files fields beyond the header under None
                    raise ValueError(f"{where}: {len(rec[None])} extra field(s)")
                values = []
                for name in TRACE_COLUMNS:
                    value = rec[name]
                    if value is None:
                        raise ValueError(f"{where}, column {name}: missing field")
                    if name == "strategy":
                        if value not in strategies:
                            raise ValueError(f"{where}, column strategy: {value!r} is not "
                                             f"one of {', '.join(strategies)}")
                    else:
                        try:
                            value = float(value)
                        except ValueError:
                            value = math.nan
                        if not math.isfinite(value):
                            raise ValueError(f"{where}, column {name}: {rec[name]!r} is "
                                             "not a finite number")
                        if name in COUNT_COLUMNS and not (rec[name].isascii()
                                                          and rec[name].isdigit()):
                            raise ValueError(f"{where}, column {name}: {rec[name]!r} is "
                                             "not a non-negative integer")
                        if name == "t_s" and not TIME_FORMAT.fullmatch(rec[name]):
                            raise ValueError(f"{where}, column t_s: {rec[name]!r} is not a "
                                             "non-negative number with three decimals")
                        if name in FLAG_COLUMNS and rec[name] not in ("0", "1"):
                            raise ValueError(f"{where}, column {name}: {rec[name]!r} is "
                                             "not 0 or 1")
                    values.append(value)
                cols = by_strategy.setdefault(rec["strategy"],
                                              {name: [] for name in TRACE_COLUMNS})
                if rec["frame"] != str(len(cols["frame"])):  # so also a non-negative integer
                    raise ValueError(f"{where}, column frame: {rec['frame']!r} is not "
                                     f"{len(cols['frame'])}, the next frame of "
                                     f"strategy {rec['strategy']}")
                if cols["t_s"] and values[1] < cols["t_s"][-1]:  # values[1] is t_s
                    raise ValueError(f"{where}, column t_s: {rec['t_s']!r} is below "
                                     f"{cols['t_s'][-1]:.3f}, the previous time of "
                                     f"strategy {rec['strategy']}")
                for name, value in zip(TRACE_COLUMNS, values):
                    cols[name].append(value)
        except csv.Error as exc:  # DictReader.line_num lags a row that fails to parse
            raise ValueError(f"{path} line {reader.reader.line_num}: {exc}") from exc
    if not by_strategy:
        raise ValueError(f"empty trace file: {path}")
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for strategy, cols in by_strategy.items():
        out[strategy] = {
            name: (np.array(vals) if name == "strategy"
                   else np.array(vals, dtype=np.float64))
            for name, vals in cols.items()
        }
    return out


def write_events_jsonl(path: str, trace: StrategyTrace) -> None:
    """One fixed-format line per cache event, in the bytes
    ``json.dumps(dataclasses.asdict(event), sort_keys=True)`` would write:
    ``t`` is a float, and ``op`` and ``kind`` are plain identifiers that need
    no escape."""
    log = trace.cache_events
    heads = [f'{{"kind": "{kind}", "op": "{op}", "t": ' for op, kind in EVENT_TYPES]
    ids = log.token_ids
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{heads[code]}{t!r}, "token_ids": [{", ".join(map(str, ids[start:end]))}]}}\n'
            for t, code, start, end in zip(log.times, log.codes, chain((0,), log.ends),
                                           log.ends))


def summarize(traces: List[StrategyTrace]) -> dict:
    """Growth fit, spike ratio, accuracy, and flop totals per strategy, plus
    the analytic token-budget report for the traced horizon."""
    summary: dict = {"strategies": {}}
    for trace in traces:
        rows = trace.rows
        entry = {
            "frames": len(rows),
            "final_live_tokens": rows.live_token_count[-1] if rows else 0,
            "accuracy": trace.accuracy(),
            "spike_ratio": spike_ratio(trace),
            "engine_total_flops": trace.engine_total_flops,
            "text_entry_flops": sum(rows.text_entry_flops),
            "verbalization_events": sum(rows.verbalization_event),
            "truncated_at": trace.truncated_at,
        }
        if len(rows) >= MIN_GROWTH_FRAMES:
            entry["growth"] = fit_growth(rows.live_token_count).to_dict()
        summary["strategies"][trace.kind.value] = entry
    if traces:
        cfg = traces[0].cfg
        horizon = len(traces[0].rows) / cfg.fps if traces[0].rows else 0.0
        if horizon > 0:
            summary["budget"] = asdict(budget_report(cfg, horizon))
        summary["config"] = asdict(cfg)
    return summary


def write_manifest(path: str, cfg: SimConfig, artifacts: List[str],
                   tool_version: str) -> None:
    """Reproducibility record: config, seed, and every artifact written."""
    missing = [a for a in artifacts if not os.path.exists(a)]
    if missing:
        raise FileNotFoundError(f"manifest lists missing artifacts: {missing}")
    manifest = {"config": asdict(cfg), "seed": cfg.seed, "artifacts": list(artifacts),
                "tool_version": tool_version,
                "created_at": datetime.now(timezone.utc).isoformat()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
