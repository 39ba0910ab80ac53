"""Span recorder for the traced benchmark run, and the attention probe.

``Tracer.install`` replaces each public function of the package at the name
its caller looks it up under (a module global or a class attribute) with a
wrapper that records one span per call: name, start, end, parent span and
thread. Spans stay in memory in per-thread arrays and are written out once,
after the run. A span's parent is the innermost open span on the same thread,
so self time (duration minus the time covered by child spans) is computed
per thread, which keeps the ``simulate`` worker threads apart.
"""

from __future__ import annotations

import csv
import functools
import itertools
import statistics
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

import streamcache.attention as attention
import streamcache.cache as cache
import streamcache.cli as cli
import streamcache.config as config
import streamcache.connector as connector
import streamcache.harness as harness
import streamcache.verbalize as verbalize
from streamcache.types import TokenFactory, TokenKind

_now = time.perf_counter_ns


def _count_evict(counts, args, result):
    counts["attention.evict_rows"] += len(args[1])


def _count_exit_short(counts, args, result):
    counts["cache.exit_short_evicted"] += len(result)
    counts["cache.exit_short_useful"] += bool(result)


def _count_exit_long(counts, args, result):
    counts["cache.exit_long_groups"] += len(result)


def _count_should(counts, args, result):
    counts["verbalize.suppressed"] += not result


def _count_verbalize(counts, args, result):
    counts["verbalize.text_tokens"] += sum(tok.kind is TokenKind.TEXT for tok in result)


# (owner, attribute, span name, counter hook). Where a module imported a
# function by name, both the defining module and the importing one are wrapped.
TRACE_POINTS = [
    (attention.AttentionEngine, "append_token", "attention.append", None),
    (attention.AttentionEngine, "evict", "attention.evict", _count_evict),
    (cache.InterleavedCache, "entry", "cache.entry", None),
    (cache.InterleavedCache, "exit_short", "cache.exit_short", _count_exit_short),
    (cache.InterleavedCache, "exit_long", "cache.exit_long", _count_exit_long),
    (harness, "should_verbalize", "verbalize.should", _count_should),
    (verbalize.Verbalizer, "verbalize", "verbalize.verbalize", _count_verbalize),
    (harness, "generate_stream", "harness.generate_stream", None),
    (cli, "generate_stream", "harness.generate_stream", None),
    (harness, "run_strategy", "harness.run_strategy", None),
    (cli, "run_strategy", "harness.run_strategy", None),
    (harness.OraclePredictor, "predict", "harness.predict", None),
    (config, "load_config", "config.load", None),
    (cli, "load_config", "config.load", None),
    (cli, "write_trace_csv", "traceio.write_trace_csv", None),
    (cli, "write_events_jsonl", "traceio.write_events_jsonl", None),
    (cli, "summarize", "traceio.summarize", None),
    (cli, "write_manifest", "traceio.write_manifest", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (connector, "stage1_value_and_grads", "connector.value_and_grads", None),
    (connector, "hungarian_match", "connector.hungarian", None),
    (connector, "stage1_losses", "connector.losses", None),
]


class _ThreadLog:
    """Spans of one thread, as parallel arrays indexed by span number."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack: list = []
        self.counts: dict = defaultdict(int)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list = []
        self._names: list = []
        self._undo: list = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        orig = owner.__dict__[attr]
        name_id = self._name_id(name)
        log_of = self._log

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            log = log_of()
            idx = log.open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                log.close(idx)
            if count is not None:
                count(log.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def _wrap_pool(self) -> None:
        """Span the lifetime of the ``simulate`` worker pool."""
        orig = cli.ThreadPoolExecutor
        name_id = self._name_id("cli.pool")
        log_of = self._log

        class TracedPool(orig):
            def __enter__(self):
                self._span = log_of().open(name_id)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    log_of().close(self._span)

        cli.ThreadPoolExecutor = TracedPool
        self._undo.append((cli, "ThreadPoolExecutor", orig))

    def install(self) -> None:
        for owner, attr, name, count in TRACE_POINTS:
            self._wrap(owner, attr, name, count)
        self._wrap_pool()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def aggregate(self) -> dict:
        """Per span name: call count, self seconds and every call's duration
        in microseconds; plus the summed counters."""
        stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "us": []})
        counts: dict = defaultdict(int)
        for log in self._logs:
            dur = [e - s for s, e in zip(log.start, log.end)]
            child = [0] * len(dur)
            for i, parent in enumerate(log.parent):
                if parent >= 0:
                    child[parent] += dur[i]
            for name_id, d, c in zip(log.name, dur, child):
                entry = stats[self._names[name_id]]
                entry["calls"] += 1
                entry["self_s"] += (d - c) / 1e9
                entry["us"].append(d / 1e3)
            for key, value in log.counts.items():
                counts[key] += value
        return {"spans": stats, "counts": counts}

    def write(self, path) -> int:
        """Write every span as one CSV row; returns the number written."""
        written = 0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["thread", "span", "parent", "name", "start_ns", "end_ns"])
            for log in self._logs:
                names = [self._names[i] for i in log.name]
                out.writerows(zip(itertools.repeat(log.thread), range(len(names)),
                                  log.parent, names, log.start, log.end))
                written += len(names)
        return written


def _median_us(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def attention_probe(seed: int, d: int, heads: int, layers: int, vocab_size: int,
                    oracle_tol: float = 1e-6) -> tuple:
    """Drive ``AttentionEngine`` alone and time appends at live sizes 64, 512
    and 4096, and FIFO evictions of 1 and 7 tokens at live size 512.

    Prompt tokens sit at positions 0-3 and content starts at position 2000,
    so every attention row spans deltas beyond ``REL_BIAS_CLIP``. Up to live
    size 512 each measured state is compared with ``full_recompute``; at 4096
    the oracle's (heads, n, n) arrays are too large and it is not called.
    Returns (metrics, failures).
    """
    engine = attention.AttentionEngine(d, heads, layers, vocab_size, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9B]))
    factory = TokenFactory()
    live: list = []
    positions = itertools.chain(range(4), itertools.count(2000, 3))

    def add(prompt: bool = False):
        emb = rng.standard_normal(d)
        tok = factory.prompt(emb) if prompt else factory.visual(len(live), emb)
        tok.entry_position = next(positions)
        t0 = _now()
        out, _ = engine.append_token(tok)
        dt = (_now() - t0) / 1e3
        live.append(tok)
        return out, dt

    def oracle_err(out) -> float:
        ref = attention.full_recompute(engine.weights, live)[-1]
        return float(np.max(np.abs(ref - out)))

    metrics: dict = {}
    errs = []
    for _ in range(4):
        add(prompt=True)
    for n, reps in ((64, 200), (512, 100), (4096, 25)):
        while len(live) < n - 1:
            add()
        samples = []
        for rep in range(reps):
            out, dt = add()
            samples.append(dt)
            if rep == 0 and n <= 512:
                errs.append(oracle_err(out))
            engine.evict([live.pop().id])
        metrics[f"attention.append_us_n{n}"] = _median_us(samples)
        if n == 512:
            add()
            for k in (1, 7):
                samples = []
                for _ in range(50):
                    victims, live[4:4 + k] = live[4:4 + k], []
                    t0 = _now()
                    engine.evict([tok.id for tok in victims])
                    samples.append((_now() - t0) / 1e3)
                    for _ in range(k):
                        out, _ = add()
                metrics[f"attention.evict_us_k{k}"] = _median_us(samples)
            # appends after mid-sequence evictions must still match the oracle
            errs.append(oracle_err(out))
    metrics["attention.oracle_max_err"] = max(errs)
    failures = []
    if max(errs) > oracle_tol:
        failures.append(f"attention probe: oracle error {max(errs):.3e} > {oracle_tol}")
    if list(engine.live_ids()) != [tok.id for tok in live]:
        failures.append("attention probe: engine live ids differ from the probe's tokens")
    return metrics, failures
