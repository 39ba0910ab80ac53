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
from datetime import datetime, timezone
from typing import Dict, List

import numpy as np

from .config import SimConfig
from .harness import StrategyKind, StrategyTrace, fit_growth, spike_ratio
from .verbalize import budget_report

TRACE_COLUMNS = ["frame", "t_s", "strategy", "live_tokens", "append_flops",
                 "recompute_flops", "mem_bytes_proxy", "pred", "correct", "verbalized"]


def write_trace_csv(path: str, trace: StrategyTrace) -> None:
    """One fixed-format row per frame, in the bytes ``csv.writer`` would
    write: no field needs quoting, and every line ends in ``\r\n``."""
    bytes_per_token = trace.cfg.d * 8
    kind = trace.kind.value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(
            f"{row.frame},{row.t_s:.3f},{kind},{row.live_token_count},{row.append_flops},"
            f"{row.extra_recompute_flops},{row.live_token_count * bytes_per_token},"
            f"{row.predicted_step_id},{int(row.correct)},{int(row.verbalization_event)}\r\n"
            for row in trace.rows)


def read_trace_csv(path: str) -> Dict[str, Dict[str, np.ndarray]]:
    """Per-strategy column arrays from a trace CSV.

    A valid trace names a strategy ``a1``, ``a2`` or ``b`` on every row, and
    each strategy's ``frame`` column runs 0, 1, ... n-1 in order. Raises
    ``ValueError`` naming the line of a row that the csv module cannot parse
    or that has extra fields, and the line and column of a missing field, of
    a numeric field that is not a finite number, of an unknown strategy or of
    a frame out of order.
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
                    values.append(value)
                cols = by_strategy.setdefault(rec["strategy"],
                                              {name: [] for name in TRACE_COLUMNS})
                if values[0] != len(cols["frame"]):
                    raise ValueError(f"{where}, column frame: {rec['frame']!r} is not "
                                     f"{len(cols['frame'])}, the next frame of "
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
    ``json.dumps(event.to_dict(), sort_keys=True)`` would write: ``t`` is a
    float, and ``op`` and ``kind`` are plain identifiers that need no escape."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"kind": "{e.kind}", "op": "{e.op}", "t": {e.t!r}, '
            f'"token_ids": [{", ".join(map(str, e.token_ids))}]}}\n'
            for e in trace.cache_events)


def summarize(traces: List[StrategyTrace]) -> dict:
    """Growth fit, spike ratio, accuracy, and flop totals per strategy, plus
    the analytic token-budget report for the traced horizon."""
    summary: dict = {"strategies": {}}
    for trace in traces:
        entry = {
            "frames": len(trace.rows),
            "final_live_tokens": trace.rows[-1].live_token_count if trace.rows else 0,
            "accuracy": trace.accuracy(),
            "spike_ratio": spike_ratio(trace),
            "engine_total_flops": trace.engine_total_flops,
            "text_entry_flops": int(sum(r.text_entry_flops for r in trace.rows)),
            "verbalization_events": int(sum(r.verbalization_event for r in trace.rows)),
            "truncated_at": trace.truncated_at,
        }
        if len(trace.rows) >= 100:
            entry["growth"] = fit_growth(trace).to_dict()
        summary["strategies"][trace.kind.value] = entry
    if traces:
        cfg = traces[0].cfg
        horizon = len(traces[0].rows) / cfg.fps if traces[0].rows else 0.0
        if horizon > 0:
            summary["budget"] = budget_report(cfg, horizon).to_dict()
        summary["config"] = cfg.to_dict()
    return summary


def write_manifest(path: str, cfg: SimConfig, artifacts: List[str],
                   tool_version: str) -> None:
    """Reproducibility record: config, seed, and every artifact written."""
    missing = [a for a in artifacts if not os.path.exists(a)]
    if missing:
        raise FileNotFoundError(f"manifest lists missing artifacts: {missing}")
    manifest = {"config": cfg.to_dict(), "seed": cfg.seed, "artifacts": list(artifacts),
                "tool_version": tool_version,
                "created_at": datetime.now(timezone.utc).isoformat()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
