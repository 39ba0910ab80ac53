"""Contract fuzzer for the CLI's config and scene documents, trace files and
flags.

Each config document mixes ``SimConfig`` fields and unknown keys with extreme
and wrongly typed values, and goes through ``simulate``, ``bench`` and
``report --budget``. Each scene document is a small valid scene with one
field replaced by such a value, or removed, and goes through ``gradcheck
--scene``. Each trace file is one strategy's trace from a small real run with
one cell replaced by such a value, or one row deleted, repeated or moved, and
goes through ``report --scaling``. Each flag set gives one command extreme
flag values. Whatever the input holds, ``main`` must return a documented exit
code (0, 2, 3 or 4) without raising, print only standard JSON on stdout, and
on exit 2 print an ``error:`` line and leave no output path behind.
"""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from streamcache import SimConfig
from streamcache.cli import main

FIELDS = [f.name for f in dataclasses.fields(SimConfig)]
VALUES = [0, -1, 2 ** 63, 10 ** 400, 1e308, 5e-324, "3", True, None, []]

documents = st.dictionaries(st.sampled_from(FIELDS + ["banana", "n_s"]),
                            st.sampled_from(VALUES), max_size=2)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(documents)
def test_config_documents_keep_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out_dir, out_csv = os.path.join(tmp, "run"), os.path.join(tmp, "sweep.csv")
        for argv, target in (
                (["simulate", config, "--duration-s", "1", "--out-dir", out_dir], out_dir),
                (["bench", config, "--sweep", "1:8:1", "--out", out_csv], out_csv),
                (["report", "--budget", "--config", config], None)):
            code, stdout, stderr = _run(argv)
            assert code in (0, 2, 3, 4), (argv[0], code, stderr)
            for line in stdout.splitlines():
                json.loads(line, parse_constant=_reject_constant)
            if code == 2:
                assert stdout == "" and stderr.startswith("error: "), (argv[0], stderr)
                assert target is None or not os.path.exists(target), argv[0]


SCENE = {"patches": {"seed": 3, "noise": 0.05}, "side": 2, "dim": 3, "caption": [5, 12, 9],
         "gt_boxes": [{"cx": 0.4, "cy": 0.5, "w": 0.2, "h": 0.3, "kind": "hand"},
                      {"cx": 0.6, "cy": 0.4, "w": 0.3, "h": 0.2}]}
SCENE_PATHS = [("side",), ("dim",), ("patches",), ("patches", "seed"), ("patches", "noise"),
               ("gt_boxes",), ("gt_boxes", 0), ("caption",), ("caption", 0), ("banana",)]
SCENE_PATHS += [("gt_boxes", i, f) for i in (0, 1) for f in ("cx", "cy", "w", "h", "kind")]
REMOVE = object()


def _mutated_scene(path, value):
    doc = copy.deepcopy(SCENE)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is REMOVE:
        if last in node if isinstance(node, dict) else True:
            del node[last]
    else:
        node[last] = value
    return doc


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SCENE_PATHS), st.sampled_from(VALUES + [0.5, "", {}, REMOVE]))
def test_scene_documents_keep_the_exit_code_contract(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        scene = os.path.join(tmp, "scene.json")
        with open(scene, "w", encoding="utf-8") as fh:
            json.dump(_mutated_scene(path, value), fh)
        code, stdout, stderr = _run(["gradcheck", "--scene", scene])
    assert code in (0, 2, 3, 4), (path, value, code, stderr)
    for line in stdout.splitlines():
        json.loads(line, parse_constant=_reject_constant)
    if code == 2:
        assert stdout == "" and stderr.startswith("error: "), (path, value, stderr)


@functools.cache
def _trace_lines():
    """Each strategy's trace lines from 30 s (120 frames) of the default config."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({}, fh)
        assert _run(["simulate", config, "--duration-s", "30", "--out-dir", tmp])[0] == 0
        lines = {}
        for kind in ("a1", "a2", "b"):
            with open(os.path.join(tmp, f"trace_{kind}.csv"), encoding="utf-8") as fh:
                lines[kind] = fh.read().splitlines()
    return lines


CELLS = ["", "-1", "-0", "0", "1", "2", "1.5", "0.5", "0.000", "1e3", "1e300", "9" * 400,
         "nan", "inf", " 1", "+1", "\u0661", "a1", "a2", "b", "1,2", '"', "\x00", "\udcff"]
ROW_EDITS = ["delete", "repeat", "swap", "to end"]


def _mutated_trace(lines, row, edit):
    lines = list(lines)
    i = row % len(lines)
    if isinstance(edit, tuple):
        column, value = edit
        fields = lines[i].split(",")
        fields[column] = value
        lines[i] = ",".join(fields)
    elif edit == "delete":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = (i + 1) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines.append(lines.pop(i))
    return lines


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["a1", "a2", "b"]), st.integers(0, 120),
       st.one_of(st.tuples(st.integers(0, 9), st.sampled_from(CELLS)),
                 st.sampled_from(ROW_EDITS)))
def test_trace_files_keep_the_exit_code_contract(kind, row, edit):
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.csv")
        # surrogateescape writes the lone surrogate as the byte 0xff, not UTF-8
        with open(trace, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            fh.write("".join(line + "\r\n" for line in
                             _mutated_trace(_trace_lines()[kind], row, edit)))
        code, stdout, stderr = _run(["report", "--scaling", trace])
    assert code in (0, 2, 3, 4), (kind, row, edit, code, stderr)
    for line in stdout.splitlines():
        json.loads(line, parse_constant=_reject_constant)
    if code == 2:
        assert stdout == "" and stderr.startswith("error: "), (kind, row, edit, stderr)


FLOATS = ["0", "-1", "0.25", "1", "5e-324", "1e-300", "1e308", "1.7e308", "1e400", "nan", "-inf",
          "x"]
INTS = ["0", "-1", "1", "7", str(2 ** 63), str(10 ** 30), "1.5", "1e3", "x"]
# every value here is refused, or runs in well under a second
SIMULATE = st.tuples(st.just("simulate"), st.sampled_from(["all", "a1", "a2", "b", "c"]),
                     st.sampled_from(FLOATS), st.sampled_from(FLOATS), st.sampled_from(INTS))
BENCH = st.tuples(st.just("bench"),
                  st.sampled_from(["1:8:1", "8:1:1", "0:8:1", "1:8:0", "-1:8:1", "1:8",
                                   "1:8:1:1", "a:b:c", "1:65537:1", f"1:{10 ** 30}:1",
                                   f"1:8:{10 ** 30}", "64:64:1", ""]),
                  st.booleans())
GRADCHECK = st.tuples(st.just("gradcheck"), st.sampled_from(FLOATS + ["1e-4"]),
                      st.sampled_from(INTS))
REPORT = st.tuples(st.just("report"), st.sampled_from(FLOATS), st.sampled_from(FLOATS))


def _flag_argv(case, config, tmp):
    """The argv for one flag case, and the output path that exit 2 must not leave."""
    command = case[0]
    if command == "simulate":
        out = os.path.join(tmp, "run")
        return ["simulate", config, "--strategy", case[1], "--duration-s", case[2],
                "--noise-p", case[3], "--mem-cap-bytes", case[4], "--out-dir", out], out
    if command == "bench":
        out = os.path.join(tmp, "missing" if case[2] else "", "sweep.csv")
        return ["bench", config, "--sweep", case[1], "--out", out], out
    if command == "gradcheck":
        return ["gradcheck", "--eps", case[1], "--seed", case[2]], None
    return ["report", "--budget", "--horizon-s", case[1], "--tokens-per-step", case[2]], None


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.one_of(SIMULATE, BENCH, GRADCHECK, REPORT))
def test_flag_values_keep_the_exit_code_contract(case):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"d": 16, "vocab_size": 32}, fh)
        argv, target = _flag_argv(case, config, tmp)
        code, stdout, stderr = _run(argv)
        assert code in (0, 2, 3, 4), (argv, code, stderr)
        for line in stdout.splitlines():
            json.loads(line, parse_constant=_reject_constant)
        if code == 2:
            # argparse prints its usage first, then a "prog: error: ..." line
            assert stdout == "" and any(line.startswith("error: ") or ": error: " in line
                                        for line in stderr.splitlines()), (argv, stderr)
            assert target is None or not os.path.exists(target), argv
