"""Mutated checkpoint and scene documents through the CLI: every one must
end in exit code 0 or 1, never in a traceback."""

import copy
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from sdfblend.cli import main
from sdfblend.fixtures import sphere_scene
from sdfblend.geom import Box, SceneSpec, union

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "sphere_fit.json"

# small enough that one example takes milliseconds: the fuzz probes loading,
# not evaluation
MESH_ARGS = ["--resolution", "8"]
EVAL_ARGS = ["--resolution", "8", "--n-iou", "64", "--n-surface", "64"]

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 70), st.sampled_from([2 ** 31, 10 ** 6, -(10 ** 6)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=4),
    st.just({}), st.just([[0.1, 0.2, 0.3]]),
)


def _checkpoint_doc() -> dict:
    """The bench checkpoint cut down to its first three bases."""
    doc = json.loads(BENCH_CHECKPOINT.read_text())
    doc["bases"] = doc["bases"][:3]
    return doc


def _scene_doc() -> dict:
    """A union with a translated sphere and a rotated box: every node kind
    the loader reads, and both rotation spellings."""
    doc = SceneSpec(union(sphere_scene().root,
                          Box(half_extents=np.array([0.1, 0.2, 0.1]),
                              translate=np.array([0.1, 0.0, 0.0])))).to_json_dict()
    doc["root"]["children"][1]["rotate"] = {"axis": [0.0, 0.0, 1.0], "degrees": 30.0}
    doc["root"]["children"][0]["rotation"] = np.eye(3).tolist()
    return doc


@st.composite
def mutated(draw, doc: dict):
    """`doc` with one value replaced, deleted, duplicated or wrapped, at a
    path drawn one level at a time (long numeric lists count as one)."""
    doc = copy.deepcopy(doc)
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return draw(st.one_of(JSON_VALUES, st.just([doc])))
    action = draw(st.sampled_from(["replace", "delete", "duplicate", "wrap"]))
    if action == "replace":
        parent[key] = draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(node))
    else:
        parent[key] = [node]
    return doc


def _run(argv) -> int:
    with np.errstate(all="ignore"):
        return main(argv)


@FUZZ
@given(doc=mutated(_checkpoint_doc()))
def test_mesh_and_eval_of_mutated_checkpoint_exit_0_or_1(tmp_path, doc):
    ck = tmp_path / "field.json"
    ck.write_text(json.dumps(doc))
    scene = tmp_path / "scene.json"
    sphere_scene().save(scene)
    assert _run(["mesh", str(ck), "--out", str(tmp_path / "m.obj"),
                 *MESH_ARGS]) in (0, 1)
    assert _run(["eval", str(ck), str(scene), *EVAL_ARGS]) in (0, 1)


@FUZZ
@given(doc=mutated(_scene_doc()))
def test_eval_against_mutated_scene_exits_0_or_1(tmp_path, doc):
    ck = tmp_path / "field.json"
    ck.write_text(json.dumps(_checkpoint_doc()))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    assert _run(["eval", str(ck), str(scene), *EVAL_ARGS]) in (0, 1)
