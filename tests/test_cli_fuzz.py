"""Mutated checkpoint, scene, sample-set and fit-job documents through the
CLI: every one must end in exit code 0, 1 or 2, never in a traceback, and a
malformed document in exit code 1. Mutated argv of every subcommand must
end in exit code 0, 1, 2 or 3, never in a traceback."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdfblend.cli import main
from sdfblend.fit import FitConfig
from sdfblend.fixtures import sphere_scene
from sdfblend.geom import SAMPLE_TAGS, Box, SceneSpec, sample_training_set, union
from sdfblend.objective import LossWeights

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "sphere_fit.json"

# small enough that one example takes milliseconds: the fuzz probes loading,
# not evaluation
MESH_ARGS = ["--resolution", "8"]
EVAL_ARGS = ["--resolution", "8", "--n-iou", "64", "--n-surface", "64"]

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# strings a loader could mistake for numbers
NUMERIC_STRINGS = st.sampled_from(["1", "1e3", "-0", "0.5", "nan"])

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), NUMERIC_STRINGS,
    st.integers(-3, 70), st.sampled_from([2 ** 31, 10 ** 6, -(10 ** 6)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=4),
    st.just({}), st.just([[0.1, 0.2, 0.3]]),
)

# fit-config values: no size above 64, so that no example allocates much
# (an n_near of 2**31 would ask for gigabytes), and only relative paths
FIT_VALUES = st.one_of(
    st.none(), st.booleans(), NUMERIC_STRINGS, st.integers(-3, 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="ab.", max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=4),
    st.lists(st.integers(-1, 64), max_size=3),
    st.just({}),
)

# a fit of a few milliseconds; a job with n_init > n_bases that names
# `samples` exits 1 before it reads a file
SMALL_FIT = {"n_bases": 2, "d_z": 2, "decoder_widths": [8], "steps": 2,
             "batch_size": 32, "seed": 1, "n_near": 40, "n_uniform": 10,
             "weights": {"smooth": 0.5}}
FIT_JOB = {"version": 1, "scene": "scene.json", "samples": "samples.json",
           "fit": SMALL_FIT, "out_checkpoint": "field.json",
           "out_report": "report.json"}


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


def _samples_doc() -> dict:
    return sample_training_set(sphere_scene(), 24, 8, seed=3).to_json_dict()


def _is_sample_set(doc) -> bool:
    """The sample-set schema of docs/formats.md, checked apart from the
    loader: equal-length lists of known tags, rows of 3 finite numbers and
    finite targets (JSON true and false are not numbers)."""
    def finite(v):
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    if not (isinstance(doc, dict) and doc.get("version") == 1):
        return False
    tags, points, targets = (doc.get(k) for k in ("tags", "points", "targets"))
    return (isinstance(tags, list)
            and all(isinstance(t, str) and t in SAMPLE_TAGS for t in tags)
            and isinstance(points, list) and len(points) == len(tags)
            and all(isinstance(p, list) and len(p) == 3 and all(map(finite, p))
                    for p in points)
            and isinstance(targets, list) and len(targets) == len(tags)
            and all(map(finite, targets)))


@st.composite
def fit_job(draw):
    """FIT_JOB with one value of the job, of its fit config or of the loss
    weights replaced by a FIT_VALUES value. A field is never deleted: its
    default (4000 steps) would make one example take seconds."""
    job = copy.deepcopy(FIT_JOB)
    target, fields = draw(st.sampled_from([
        (job, sorted(job)),
        (job["fit"], sorted(FitConfig.__dataclass_fields__)),
        (job["fit"]["weights"], sorted(LossWeights.__dataclass_fields__)),
    ]))
    target[draw(st.sampled_from(fields))] = draw(FIT_VALUES)
    return job


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
    """main's exit code, also when argparse exits."""
    with np.errstate(all="ignore"):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


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


@pytest.fixture
def fit_dir(tmp_path, monkeypatch):
    """A directory holding the files FIT_JOB names, made the working
    directory, since the job's paths are relative."""
    monkeypatch.chdir(tmp_path)
    sphere_scene().save(tmp_path / "scene.json")
    (tmp_path / "samples.json").write_text(json.dumps(_samples_doc()))
    return tmp_path


@FUZZ
@given(doc=mutated(_samples_doc()))
def test_fit_on_mutated_sample_set_exits_1_when_malformed(fit_dir, doc):
    (fit_dir / "samples.json").write_text(json.dumps(doc))
    (fit_dir / "fit.json").write_text(json.dumps(FIT_JOB))
    rc = _run(["fit", "fit.json"])
    assert rc in ((0, 2) if _is_sample_set(doc) else (1,))


@FUZZ
@given(job=fit_job())
def test_fit_of_mutated_fit_job_exits_0_1_or_2(fit_dir, job):
    (fit_dir / "fit.json").write_text(json.dumps(job))
    assert _run(["fit", "fit.json"]) in (0, 1, 2)


# A valid invocation of every subcommand at tiny sizes, on the files that
# `argv_dir` writes. Drawn integers stay at or below 8, drawn flags are whole
# words (argparse takes a prefix of a flag for the flag), and a size flag is
# never deleted with its value, so no mutation asks for much work.
SUBCOMMAND_ARGV = {
    "sample": ["sample", "scene.json", "--n-near", "8", "--n-uniform", "4",
               "--noise-stds", "0.01", "0.003", "--seed", "1", "--out", "s.json"],
    "fit": ["fit", "fit.json"],
    "downsample": ["downsample", "field.json", "--keep", "2", "--out", "d.json",
                   "--indices-out", "kept.json"],
    "refine": ["refine", "field.json", "scene.json", "--out", "r.json",
               "--steps", "1", "--lr", "1e-3", "--eps", "0.005",
               "--n-surface", "8", "--n-positive", "8", "--seed", "1",
               "--report", "report.json"],
    "mesh": ["mesh", "field.json", "--out", "m.obj", *MESH_ARGS],
    "eval": ["eval", "field.json", "scene.json", *EVAL_ARGS, "--tau", "0.01",
             "--seed", "1", "--out", "metrics.json"],
    "gradcheck": ["gradcheck", "--fixtures", "1", "--seed", "1", "--h", "1e-6",
                  "--tolerance", "1e-5"],
}
SIZE_FLAGS = {"--n-near", "--n-uniform", "--steps", "--n-surface",
              "--n-positive", "--resolution", "--n-iou", "--fixtures"}

ARGV_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "8", "-1", "-3", "-0", "1.5", "1e3",
                     "1e-3", "nan", "inf", "-inf", "x", "", "-", "--", "-h",
                     "--bogus", "field.json", "scene.json", "fit.json"]),
    st.text(alphabet=".e0123456789abx", max_size=4),
)


@st.composite
def subcommand_argv(draw):
    """A SUBCOMMAND_ARGV entry with one token replaced, one token (or a
    flag other than a size flag, with its value) deleted, or one token
    inserted."""
    argv = list(SUBCOMMAND_ARGV[draw(st.sampled_from(sorted(SUBCOMMAND_ARGV)))])
    i = draw(st.integers(0, len(argv)))
    action = draw(st.sampled_from(["replace", "delete", "insert"]))
    if action == "insert" or i == len(argv):
        argv.insert(i, draw(ARGV_TOKENS))
    elif action == "replace":
        argv[i] = draw(ARGV_TOKENS)
    else:
        pair = argv[i].startswith("--") and argv[i] not in SIZE_FLAGS
        del argv[i:i + (2 if pair else 1)]
    return argv


@pytest.fixture
def argv_dir(fit_dir, monkeypatch):
    """fit_dir plus a three-basis checkpoint, made the working directory;
    gradcheck checks its cheapest loss only, so an example takes
    milliseconds, and through the same code path."""
    (fit_dir / "field.json").write_text(json.dumps(_checkpoint_doc()))
    (fit_dir / "fit.json").write_text(json.dumps(FIT_JOB))
    monkeypatch.setattr("sdfblend.gradcheck.LOSS_NAMES", ("reg",))
    return fit_dir


@FUZZ
@given(argv=subcommand_argv())
def test_mutated_argv_of_every_subcommand_exits_0_to_3(argv_dir, capsys, argv):
    rc = _run(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 2:  # only a numerical failure, never a usage error
        assert "numerical failure" in err
