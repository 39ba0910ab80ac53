"""Contract fuzzer for the CLI's config and scene documents.

Each config document mixes ``SimConfig`` fields and unknown keys with extreme
and wrongly typed values, and goes through ``simulate``, ``bench`` and
``report --budget``. Each scene document is a small valid scene with one
field replaced by such a value, or removed, and goes through ``gradcheck
--scene``. Whatever a document holds, ``main`` must return a documented exit
code (0, 2, 3 or 4) without raising, print only standard JSON on stdout, and
on exit 2 print an ``error:`` line and leave no output path behind.
"""

import contextlib
import copy
import dataclasses
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
