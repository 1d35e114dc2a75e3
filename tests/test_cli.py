"""CLI subcommands as thin wrappers: exit codes, files, determinism."""

import json

import numpy as np
import pytest

from sdfblend.cli import main
from sdfblend.field import BasisField, domain_downsample
from sdfblend.fit import FitConfig, fit_field, init_field
from sdfblend.fixtures import sphere_scene
from sdfblend.formats import read_obj
from sdfblend.geom import SampleSet, sample_training_set

SMALL_FIT = {
    "n_bases": 4, "d_z": 4, "decoder_widths": [12, 12], "steps": 40,
    "batch_size": 256, "seed": 3, "n_near": 900, "n_uniform": 100,
}


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "sphere.json"
    sphere_scene().save(path)
    return path


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory, scene_path):
    out = tmp_path_factory.mktemp("ck")
    config = {
        "version": 1,
        "scene": str(scene_path),
        "fit": SMALL_FIT,
        "out_checkpoint": str(out / "field.json"),
        "out_report": str(out / "report.json"),
    }
    cfg_path = out / "fit.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["fit", str(cfg_path)]) == 0
    return out / "field.json"


def test_sample_writes_requested_counts(tmp_path, scene_path):
    out = tmp_path / "s.json"
    rc = main(["sample", str(scene_path), "--n-near", "120", "--n-uniform",
               "30", "--seed", "5", "--out", str(out)])
    assert rc == 0
    ss = SampleSet.from_json_dict(json.loads(out.read_text()))
    assert len(ss) == 150
    assert sorted(set(ss.tags)) == ["near-surface", "uniform"]


def test_sample_missing_scene_exits_1(tmp_path, capsys):
    rc = main(["sample", str(tmp_path / "nope.json"), "--out",
               str(tmp_path / "o.json")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_sample_is_byte_deterministic(tmp_path, scene_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["sample", str(scene_path), "--n-near", "50",
                     "--n-uniform", "50", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_outputs_exist_and_match_library(checkpoint_path, scene_path):
    field = BasisField.load(checkpoint_path)
    assert field.n_bases == SMALL_FIT["n_bases"]
    report = json.loads(checkpoint_path.with_name("report.json").read_text())
    assert len(report["trace"]["total"]) == SMALL_FIT["steps"]
    assert "wall_time_s" not in report

    # thin-wrapper contract: same field as calling the library directly
    scene = sphere_scene()
    cfg = FitConfig.from_json_dict(SMALL_FIT)
    samples = sample_training_set(scene, cfg.n_near, cfg.n_uniform,
                                  cfg.noise_stds, seed=cfg.seed)
    lib_field, _ = fit_field(init_field(scene, cfg), samples, cfg)
    np.testing.assert_array_equal(field.centers, lib_field.centers)
    np.testing.assert_array_equal(field.latents, lib_field.latents)


def test_fit_rejects_bad_config_version(tmp_path, scene_path):
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({"version": 42, "scene": str(scene_path),
                                    "fit": SMALL_FIT}))
    assert main(["fit", str(cfg_path)]) == 1


def test_downsample_keep_all_and_wrapper_contract(tmp_path, checkpoint_path,
                                                  capsys):
    out = tmp_path / "down.json"
    rc = main(["downsample", str(checkpoint_path), "--keep", "2",
               "--out", str(out)])
    assert rc == 0
    kept = json.loads(capsys.readouterr().out)["kept"]
    field = BasisField.load(checkpoint_path)
    np.testing.assert_array_equal(kept, domain_downsample(field, 2))
    reduced = BasisField.load(out)
    assert reduced.n_bases == 2
    np.testing.assert_array_equal(reduced.centers, field.centers[kept])

    rc = main(["downsample", str(checkpoint_path), "--keep", "4",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["kept"] == [0, 1, 2, 3]


def test_downsample_invalid_keep_exits_1(tmp_path, checkpoint_path):
    rc = main(["downsample", str(checkpoint_path), "--keep", "9",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1


def test_mesh_writes_loadable_obj(tmp_path, checkpoint_path):
    out = tmp_path / "m.obj"
    rc = main(["mesh", str(checkpoint_path), "--resolution", "24",
               "--out", str(out)])
    assert rc == 0
    mesh = read_obj(out)
    assert len(mesh.vertices) > 0


def test_mesh_low_resolution_exits_1(tmp_path, checkpoint_path):
    rc = main(["mesh", str(checkpoint_path), "--resolution", "4",
               "--out", str(tmp_path / "m.obj")])
    assert rc == 1


def test_mesh_empty_field_warns_but_succeeds(tmp_path, capsys):
    # a never-crossing field: constant positive bias
    from sdfblend.field import Decoder
    dec = Decoder(d_z=1, widths=())
    dec.biases[-1][:] = 1.0
    f = BasisField(np.zeros((1, 3)), np.zeros((1, 1)), np.zeros((1, 3)),
                   np.array([[1.0, 0, 0, 0, 1, 0]]), np.zeros((1, 3)), dec)
    ck = tmp_path / "pos.json"
    f.save(ck)
    out = tmp_path / "empty.obj"
    rc = main(["mesh", str(ck), "--resolution", "16", "--out", str(out)])
    assert rc == 0
    assert "empty mesh" in capsys.readouterr().err
    assert read_obj(out).is_empty()


def _drop_last_layer(doc):
    doc["decoder"]["weights"].pop()
    doc["decoder"]["biases"].pop()


def _bad_weight_shape(doc):
    doc["decoder"]["weights"][1].append(0.5)


def _bad_bias_shape(doc):
    doc["decoder"]["biases"][0].pop()


def _nan_latent(doc):
    doc["bases"][1]["z"][0] = float("nan")


def _inf_weight(doc):
    doc["decoder"]["weights"][0][3] = float("inf")


@pytest.mark.parametrize("corrupt", [_drop_last_layer, _bad_weight_shape,
                                     _bad_bias_shape, _nan_latent, _inf_weight])
def test_mesh_rejects_malformed_checkpoint_at_load(tmp_path, capsys, corrupt):
    from sdfblend.errors import CheckpointError
    from sdfblend.gradcheck import random_field
    doc = random_field(np.random.default_rng(5), n_bases=3).to_json_dict()
    corrupt(doc)
    with pytest.raises(CheckpointError):
        BasisField.from_json_dict(doc)
    ck = tmp_path / "bad.json"
    ck.write_text(json.dumps(doc))
    out = tmp_path / "m.obj"
    rc = main(["mesh", str(ck), "--resolution", "8", "--out", str(out)])
    assert rc == 1
    assert "checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_mesh_is_byte_deterministic(tmp_path, checkpoint_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    for out in (a, b):
        assert main(["mesh", str(checkpoint_path), "--resolution", "16",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_reports_and_rejects_bad_version(tmp_path, checkpoint_path,
                                              scene_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["eval", str(checkpoint_path), str(scene_path),
               "--n-iou", "5000", "--n-surface", "2000",
               "--resolution", "16", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"iou", "chamfer_l2", "f_score", "n_iou_samples",
                            "n_surface_samples", "tau", "seed"}
    assert json.loads(out.read_text()) == payload

    bad = tmp_path / "bad.json"
    doc = json.loads(checkpoint_path.read_text())
    doc["version"] = 77
    bad.write_text(json.dumps(doc))
    rc = main(["eval", str(bad), str(scene_path)])
    assert rc == 1
    assert "77" in capsys.readouterr().err


def test_refine_cli_defaults_and_freezing(tmp_path, checkpoint_path,
                                          scene_path):
    out = tmp_path / "refined.json"
    rep = tmp_path / "refine_report.json"
    rc = main(["refine", str(checkpoint_path), str(scene_path),
               "--out", str(out), "--steps", "40", "--report", str(rep)])
    assert rc == 0
    before = BasisField.load(checkpoint_path)
    after = BasisField.load(out)
    np.testing.assert_array_equal(before.log_scales, after.log_scales)
    np.testing.assert_array_equal(before.rot6s, after.rot6s)
    np.testing.assert_array_equal(before.offsets, after.offsets)
    for w1, w2 in zip(before.decoder.weights, after.decoder.weights):
        np.testing.assert_array_equal(w1, w2)
    trace = json.loads(rep.read_text())["trace"]["total"]
    assert trace[-1] <= trace[0]


def test_gradcheck_cli_pass_and_corrupt(capsys):
    rc = main(["gradcheck", "--fixtures", "1", "--seed", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(v["max_rel_err"] <= 1e-5 for v in payload.values())

    rc = main(["gradcheck", "--fixtures", "1", "--seed", "4", "--corrupt"])
    assert rc == 3


def test_gradcheck_cli_deterministic(capsys):
    assert main(["gradcheck", "--fixtures", "1", "--seed", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--fixtures", "1", "--seed", "8"]) == 0
    assert capsys.readouterr().out == first
