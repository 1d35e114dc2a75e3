"""CLI subcommands as thin wrappers: exit codes, files, determinism."""

import json
import os

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


@pytest.mark.parametrize("argv, message", [
    (["mesh", "ck.json", "--resolution", "1.5", "--out", "m.obj"],
     "invalid int value: '1.5'"),
    (["sample", "s.json", "--n-near", "x", "--out", "o.json"],
     "invalid int value: 'x'"),
    (["refine", "ck.json", "s.json", "--lr", "fast", "--out", "r.json"],
     "invalid float value: 'fast'"),
    (["mesh", "ck.json"], "the following arguments are required: --out"),
    (["eval", "ck.json", "s.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["smooth"], "invalid choice: 'smooth'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # argparse's own exit code, 2, means a numerical failure here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage: sdfblend" in err and message in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["mesh", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: sdfblend" in capsys.readouterr().out


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


@pytest.mark.parametrize("flag", [
    ["--n-near", "-3"], ["--n-uniform", "-1"], ["--noise-stds", "nan", "0.003"],
    ["--noise-stds", "0.01", "0"], ["--seed", "-1"],
], ids=["n_near", "n_uniform", "noise_stds_nan", "noise_stds_zero", "seed"])
def test_sample_rejects_flag_out_of_range_before_sampling(tmp_path, scene_path,
                                                          capsys, monkeypatch,
                                                          flag):
    import sdfblend.cli as cli
    monkeypatch.setattr(cli, "sample_training_set", lambda *a, **k: pytest.fail(
        "sampled despite an out-of-range flag"))
    out = tmp_path / "s.json"
    assert main(["sample", str(scene_path), *flag, "--out", str(out)]) == 1
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("batch_size", [0, -3])
def test_fit_rejects_bad_batch_size(tmp_path, scene_path, capsys, batch_size):
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({
        "version": 1, "scene": str(scene_path),
        "fit": {**SMALL_FIT, "batch_size": batch_size},
        "out_checkpoint": str(tmp_path / "field.json"),
        "out_report": str(tmp_path / "report.json"),
    }))
    assert main(["fit", str(cfg_path)]) == 1
    assert "batch_size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "field.json").exists()


@pytest.mark.parametrize("field,value,message", [
    ("steps", "5", "steps must be an integer"),
    ("n_init", "8", "n_init must be an integer"),
    ("lr", "0.1", "lr must be a finite number"),
    ("weights", {"smooth": "x"}, "LossWeights.smooth must be a finite number"),
    ("weights", {"smoth": 1.0}, "unknown loss weights"),
    ("decoder_widths", [0, 12], "decoder_widths entries must be >= 1"),
    ("noise_stds", [0.01], "noise_stds must be a list of 2 entries"),
    ("trainable", ["nope"], "trainable entries match no parameter"),
    ("noise_stds", [0.01, 0.0], "noise_stds entries must be > 0"),
])
def test_fit_rejects_malformed_config_fields(tmp_path, scene_path, capsys,
                                             field, value, message):
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({
        "version": 1, "scene": str(scene_path),
        "fit": {**SMALL_FIT, field: value},
        "out_checkpoint": str(tmp_path / "field.json"),
        "out_report": str(tmp_path / "report.json"),
    }))
    assert main(["fit", str(cfg_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "field.json").exists()


def test_fit_rejects_config_that_is_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text("[1, 2]")
    assert main(["fit", str(cfg_path)]) == 1
    assert "unsupported fit config version" in capsys.readouterr().err


def _sample_doc() -> dict:
    return sample_training_set(sphere_scene(), 12, 4, seed=2).to_json_dict()


@pytest.mark.parametrize("mutate, message", [
    (lambda d: [d], "sample-set document is a list"),
    (lambda d: {**d, "version": 2}, "unsupported sample-set version 2"),
    (lambda d: {**d, "tags": 5}, "sample-set tags is a int"),
    (lambda d: {**d, "tags": d["tags"][:-1] + ["inside"]}, "sample-set tag 'inside'"),
    (lambda d: {**d, "tags": d["tags"][:-1]}, "sample-set points has shape (16, 3)"),
    (lambda d: {**d, "points": [[float("nan"), 0, 0]] + d["points"][1:]},
     "sample-set points holds non-finite values"),
    (lambda d: {**d, "points": [p[:2] for p in d["points"]]},
     "sample-set points has shape (16, 2)"),
    (lambda d: {**d, "targets": ["0.1"] + d["targets"][1:]},
     "sample-set targets holds entries that are not numbers"),
    (lambda d: {k: v for k, v in d.items() if k != "targets"},
     "sample-set document has no ['targets']"),
    (lambda d: {**d, "points": [[True, False, True]] + d["points"][1:]},
     "sample-set points holds entries that are not numbers"),
    (lambda d: {**d, "points": [[True, 0.5, 1.0]] + d["points"][1:]},
     "sample-set points holds entries that are not numbers"),
], ids=["list", "version", "tags_kind", "tag_name", "count", "nan_point",
        "point_width", "string_target", "no_targets", "bool_point",
        "bool_in_float_point"])
def test_fit_rejects_malformed_sample_set(tmp_path, scene_path, capsys, mutate,
                                          message):
    """A malformed sample set exits 1 where it is loaded, not in training."""
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(mutate(_sample_doc())))
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({
        "version": 1, "scene": str(scene_path), "samples": str(samples),
        "fit": SMALL_FIT, "out_checkpoint": str(tmp_path / "field.json"),
        "out_report": str(tmp_path / "report.json")}))
    assert main(["fit", str(cfg_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "field.json").exists()


def test_fit_rejects_unknown_job_key(tmp_path, scene_path, capsys):
    """A misspelt "samples" must not let the fit sample its own set."""
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(_sample_doc()))
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({
        "version": 1, "scene": str(scene_path), "sample": str(samples),
        "fit": SMALL_FIT, "out_checkpoint": str(tmp_path / "field.json"),
        "out_report": str(tmp_path / "report.json")}))
    assert main(["fit", str(cfg_path)]) == 1
    assert "unknown fit config fields: ['sample']" in capsys.readouterr().err
    assert not (tmp_path / "field.json").exists()


@pytest.mark.parametrize("key", ["scene", "samples", "out_checkpoint",
                                 "out_report"])
def test_fit_rejects_path_that_is_not_a_string(tmp_path, scene_path, capsys,
                                               key):
    """An integer path would be taken as a file descriptor and closed."""
    fd = os.open(scene_path, os.O_RDONLY)
    try:
        config = {"version": 1, "scene": str(scene_path), "fit": SMALL_FIT,
                  "out_checkpoint": str(tmp_path / "field.json"),
                  "out_report": str(tmp_path / "report.json"), key: fd}
        cfg_path = tmp_path / "fit.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["fit", str(cfg_path)]) == 1
        assert f"fit config {key} must be a path string" in capsys.readouterr().err
        os.fstat(fd)  # still open
        assert not (tmp_path / "field.json").exists()
    finally:
        os.close(fd)


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


def _bool_weight(doc):
    doc["decoder"]["weights"][0][3] = True


@pytest.mark.parametrize("corrupt", [_drop_last_layer, _bad_weight_shape,
                                     _bad_bias_shape, _nan_latent, _inf_weight,
                                     _bool_weight])
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


@pytest.mark.parametrize("path, value", [
    (("decoder", "weights"), 3.0),
    (("decoder", "biases"), 2.0),
    (("decoder", "widths"), 48),
    (("decoder", "skip_at"), 1),
    (("decoder", "widths", 0), [8]),
    (("decoder",), [1, 2]),
    (("bases",), {"mu": [0.0, 0.0, 0.0]}),
    (("bases", 1), 7.0),
    ((), None),  # the document itself becomes a list
], ids=["weights", "biases", "widths", "skip_at", "width_entry", "decoder",
        "bases", "basis_entry", "document"])
def test_mesh_rejects_checkpoint_of_wrong_structure(tmp_path, capsys, path,
                                                    value):
    from sdfblend.errors import CheckpointError
    from sdfblend.gradcheck import random_field
    doc = random_field(np.random.default_rng(6), n_bases=3).to_json_dict()
    if path:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    else:
        doc = [doc]
    with pytest.raises(CheckpointError):
        BasisField.from_json_dict(doc)
    ck = tmp_path / "bad.json"
    ck.write_text(json.dumps(doc))
    out = tmp_path / "m.obj"
    rc = main(["mesh", str(ck), "--resolution", "8", "--out", str(out)])
    assert rc == 1
    assert "checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("s_raw", 800.0, "'s_raw' overflows exp"),
    ("skip_at", 99, "skip_at entry 99 names no layer"),
    ("skip_at", -1, "skip_at entries must be >= 0"),
    ("skip_at", 1.0, "skip_at entries must be an integer"),
])
def test_mesh_rejects_checkpoint_that_cannot_evaluate(tmp_path, capsys, key,
                                                      value, message):
    from sdfblend.errors import CheckpointError
    from sdfblend.gradcheck import random_field
    doc = random_field(np.random.default_rng(7), n_bases=3).to_json_dict()
    if key == "s_raw":
        doc["bases"][1]["s_raw"][2] = value
    else:
        doc["decoder"]["skip_at"] = [value]
    with pytest.raises(CheckpointError, match=message):
        BasisField.from_json_dict(doc)
    ck = tmp_path / "bad.json"
    ck.write_text(json.dumps(doc))
    out = tmp_path / "m.obj"
    rc = main(["mesh", str(ck), "--resolution", "8", "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mesh_loads_largest_finite_domain_scale(tmp_path):
    from sdfblend.gradcheck import random_field
    doc = random_field(np.random.default_rng(7), n_bases=3).to_json_dict()
    doc["bases"][1]["s_raw"][2] = 709.0  # exp(709) is finite
    assert BasisField.from_json_dict(doc).log_scales[1, 2] == 709.0


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


@pytest.mark.parametrize("flag, value, message", [
    ("--n-iou", "0", "n_iou must be >= 1"),
    ("--n-surface", "0", "n_surface must be >= 1"),
    ("--tau", "0", "tau must be > 0"),
    ("--tau", "nan", "tau must be a finite number"),
    ("--seed", "-3", "seed must be >= 0"),
])
def test_eval_rejects_protocol_before_meshing(tmp_path, checkpoint_path,
                                              scene_path, capsys, monkeypatch,
                                              flag, value, message):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the protocol was checked")
    monkeypatch.setattr("sdfblend.metrics.marching_cubes", no_mesh)
    assert main(["eval", str(checkpoint_path), str(scene_path),
                 flag, value]) == 1
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_refine_rejects_bad_step_count(tmp_path, checkpoint_path, scene_path,
                                       capsys, steps):
    out = tmp_path / "refined.json"
    rc = main(["refine", str(checkpoint_path), str(scene_path),
               "--out", str(out), "--steps", steps])
    assert rc == 1
    assert "refine_steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--n-surface", "0"], ["--n-positive", "-5"]],
                         ids=["n_surface", "n_positive"])
def test_refine_rejects_flag_out_of_range_before_loading(tmp_path, checkpoint_path,
                                                         scene_path, capsys,
                                                         monkeypatch, flag):
    monkeypatch.setattr(BasisField, "load", lambda *a: pytest.fail(
        "loaded a checkpoint despite an out-of-range flag"))
    out = tmp_path / "refined.json"
    assert main(["refine", str(checkpoint_path), str(scene_path), *flag,
                 "--out", str(out)]) == 1
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mesh", "eval"])
def test_out_of_memory_exits_1(tmp_path, checkpoint_path, scene_path, capsys,
                               monkeypatch, command):
    """A MemoryError (numpy refusing a huge grid, say) is a config error."""
    import sdfblend.cli as cli

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.78 TiB for an array with shape "
                          "(12500, 12500, 12500) and data type int8")

    monkeypatch.setattr(cli, "marching_cubes", refuse)
    monkeypatch.setattr(cli, "evaluate", refuse)
    out = tmp_path / "out"
    argv = (["mesh", str(checkpoint_path)] if command == "mesh"
            else ["eval", str(checkpoint_path), str(scene_path)])
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 1.78 TiB")
    assert not out.exists()


def test_refine_non_finite_loss_exits_2(tmp_path, scene_path, capsys):
    from tests.test_fit import overflowing_field
    ck = tmp_path / "overflow.json"
    overflowing_field().save(ck)
    out = tmp_path / "refined.json"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["refine", str(ck), str(scene_path), "--out", str(out),
                   "--steps", "3", "--n-surface", "64", "--n-positive", "64"])
    assert rc == 2
    assert "non-finite loss at step 0" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", [
    ["--fixtures", "0"], ["--h", "nan"], ["--h", "0"], ["--tolerance", "nan"],
    ["--tolerance", "-0.5"], ["--seed", "-1"],
], ids=["fixtures", "h_nan", "h_zero", "tolerance_nan", "tolerance_negative",
        "seed"])
def test_gradcheck_rejects_flag_out_of_range(capsys, flag):
    assert main(["gradcheck", *flag]) == 1
    captured = capsys.readouterr()
    assert flag[0] in captured.err
    assert captured.out == ""


def test_gradcheck_that_checks_nothing_fails(capsys, monkeypatch):
    import sdfblend.cli as cli
    from sdfblend.autodiff import FdCheckResult
    from sdfblend.gradcheck import GradCheckReport
    monkeypatch.setattr(cli, "run_gradcheck", lambda **kw: GradCheckReport(
        {"sdf": FdCheckResult(max_rel_err=0.0, n_checked=0)}))
    assert main(["gradcheck"]) == 3
    assert "no gradient coordinate" in capsys.readouterr().err
