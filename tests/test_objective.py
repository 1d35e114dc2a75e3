"""Loss values on hand fixtures plus composed-oracle and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfblend import autodiff as ad
from sdfblend.autodiff import Tape, backward, finite_diff_check
from sdfblend.field import BasisField, Decoder, FieldProgram
from sdfblend.geom import PointCloud, SampleSet
from sdfblend.gradcheck import random_field
from sdfblend.objective import (
    ADJ_EXPONENT_FLOOR, ADJ_PREFILTER_SLACK, Anchor, LossWeights, RefineInputs,
    _sdf_from_blend, _smooth_from_blend, loss_adj, loss_adj_t, loss_chamfer,
    loss_face, loss_inte, loss_inte_t, loss_opt, loss_opt_t, loss_pos, loss_reg,
    loss_reg_t, loss_sdf, loss_sdf_euc, loss_smooth, loss_stable,
)
from tests.test_field import (
    _ChainProgram, _fallback_probe_points, oracle_decode, oracle_g, oracle_top2,
)


def constant_field(value: float, n_bases: int = 1, centers=None) -> BasisField:
    """Zero-weight decoder with a bias: sdf == value everywhere."""
    dec = Decoder(d_z=1, widths=())
    dec.biases[-1][:] = value
    if centers is None:
        centers = np.zeros((n_bases, 3))
    return BasisField(centers=centers, latents=np.zeros((n_bases, 1)),
                      log_scales=np.zeros((n_bases, 3)),
                      rot6s=np.tile([1, 0, 0, 0, 1, 0], (n_bases, 1)),
                      offsets=np.zeros((n_bases, 3)), decoder=dec)


def latent_reader_field(latent_values, centers, log_scales=None) -> BasisField:
    """Linear decoder that returns latent[0]: f_i(x) == latent_values[i]."""
    n = len(latent_values)
    dec = Decoder(d_z=1, widths=())
    dec.weights[0][3, 0] = 1.0  # input layout: (dx, dy, dz, z0)
    if log_scales is None:
        log_scales = np.zeros((n, 3))
    return BasisField(centers=np.asarray(centers, float).reshape(n, 3),
                      latents=np.asarray(latent_values, float).reshape(n, 1),
                      log_scales=np.asarray(log_scales, float).reshape(n, 3),
                      rot6s=np.tile([1, 0, 0, 0, 1, 0], (n, 1)),
                      offsets=np.zeros((n, 3)), decoder=dec)


def samples_at(points, targets) -> SampleSet:
    points = np.asarray(points, float).reshape(-1, 3)
    return SampleSet(points=points, targets=np.asarray(targets, float),
                     tags=np.full(len(points), "uniform"))


# ---------------------------------------------------------------------------
# loss_sdf


def test_loss_sdf_perfect_field_is_zero():
    f = constant_field(0.2, n_bases=2, centers=np.array([[-0.1, 0, 0], [0.1, 0, 0]]))
    ss = samples_at([[0, 0, 0], [0.3, 0.1, 0]], [0.2, 0.2])
    assert loss_sdf(f, ss) == 0.0


def test_loss_sdf_single_basis_hand_value():
    f = constant_field(0.2)
    ss = samples_at([[0.1, 0, 0]], [0.5])
    assert loss_sdf(f, ss) == pytest.approx(0.3)


def test_loss_sdf_matches_composed_oracle():
    rng = np.random.default_rng(0)
    f = random_field(rng, n_bases=4)
    pts = rng.uniform(-0.4, 0.4, (30, 3))
    y = rng.normal(0, 0.2, 30)
    expected = 0.0
    for x, t in zip(pts, y):
        p, q = oracle_top2(f, x)
        gp, gq = oracle_g(f, p, x), oracle_g(f, q, x)
        ap, aq = gp / (gp + gq), gq / (gp + gq)
        expected += ap * abs(oracle_decode(f, p, x) - t) \
            + aq * abs(oracle_decode(f, q, x) - t)
    expected /= len(pts)
    assert loss_sdf(f, samples_at(pts, y)) == pytest.approx(expected, rel=1e-12)


def test_loss_sdf_rejects_empty():
    with pytest.raises(ValueError):
        loss_sdf(constant_field(0.0),
                 SampleSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype="U8")))


# ---------------------------------------------------------------------------
# loss_smooth


def test_loss_smooth_duplicate_bases_zero():
    f = constant_field(0.1, n_bases=2)
    ss = samples_at([[0.2, 0, 0]], [0.0])
    assert loss_smooth(f, ss) == 0.0


def test_loss_smooth_single_basis_zero():
    assert loss_smooth(constant_field(0.3), samples_at([[0, 0, 0]], [0])) == 0.0


def test_loss_smooth_hand_value():
    f = latent_reader_field([0.1, -0.1], [[-0.1, 0, 0], [0.1, 0, 0]])
    ss = samples_at([[0.0, 0.0, 0.0]], [0.0])
    assert loss_smooth(f, ss) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# loss_sdf_euc


def test_loss_sdf_euc_perfect_field_is_zero():
    f = constant_field(-0.05)
    ss = samples_at([[0.1, 0.2, 0.3]], [-0.05])
    assert loss_sdf_euc(f, ss) == 0.0


def test_loss_sdf_euc_single_basis_equals_loss_sdf():
    rng = np.random.default_rng(1)
    f = random_field(rng, n_bases=1)
    pts = rng.uniform(-0.3, 0.3, (16, 3))
    y = rng.normal(0, 0.2, 16)
    ss = samples_at(pts, y)
    assert loss_sdf_euc(f, ss) == pytest.approx(loss_sdf(f, ss), rel=1e-14)


def test_loss_sdf_euc_differs_when_nearest_disagrees():
    # basis 0 is Euclidean-nearest to x but its narrow domain loses the
    # weight ordering to basis 1
    f = latent_reader_field(
        [0.3, -0.4],
        centers=[[0.0, 0, 0], [0.15, 0, 0]],
        log_scales=[[np.log(50)] * 3, [0.0] * 3],
    )
    x = np.array([[0.05, 0.0, 0.0]])
    y = np.array([0.0])
    p, q = oracle_top2(f, x[0])
    assert p == 1  # domain-nearest is basis 1
    euc = loss_sdf_euc(f, samples_at(x, y))
    assert euc == pytest.approx(0.3)  # nearest center is basis 0, |0.3 - 0|
    dom = loss_sdf(f, samples_at(x, y))
    g0, g1 = oracle_g(f, 0, x[0]), oracle_g(f, 1, x[0])
    expected = g1 / (g0 + g1) * 0.4 + g0 / (g0 + g1) * 0.3
    assert dom == pytest.approx(expected, rel=1e-12)
    assert abs(dom - euc) > 0.05


# ---------------------------------------------------------------------------
# loss_reg


def test_loss_reg_zero_offsets():
    assert loss_reg(constant_field(0.0, n_bases=3)) == 0.0


def test_loss_reg_l1_hand_value_and_homogeneity():
    f = constant_field(0.0)
    f.offsets[0] = [0.1, -0.2, 0.0]
    assert loss_reg(f) == pytest.approx(0.3)
    f.offsets[0] *= 2.0
    assert loss_reg(f) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# loss_inte


def test_loss_inte_epoch_schedule_differs_by_reg_term():
    rng = np.random.default_rng(2)
    f = random_field(rng, n_bases=3)
    f.offsets[:] = rng.normal(0, 0.05, f.offsets.shape)
    pts = rng.uniform(-0.3, 0.3, (8, 3))
    ss = samples_at(pts, rng.normal(0, 0.1, 8))
    w = LossWeights()
    diff = loss_inte(f, ss, w, epoch=0) - loss_inte(f, ss, w, epoch=1)
    assert diff == pytest.approx(0.01 * loss_reg(f), rel=1e-10)


def test_loss_inte_perfect_field_is_zero():
    f = constant_field(0.25, n_bases=2)
    ss = samples_at([[0.1, 0, 0], [0, 0.2, 0]], [0.25, 0.25])
    assert loss_inte(f, ss, LossWeights(), epoch=0) == 0.0


def test_loss_inte_is_weighted_sum_of_parts():
    rng = np.random.default_rng(3)
    f = random_field(rng, n_bases=4)
    pts = rng.uniform(-0.3, 0.3, (12, 3))
    ss = samples_at(pts, rng.normal(0, 0.1, 12))
    w = LossWeights(smooth=0.7, reg=0.02)
    total = loss_inte(f, ss, w, epoch=0)
    parts = (loss_sdf(f, ss) + loss_sdf_euc(f, ss)
             + 0.7 * loss_smooth(f, ss) + 0.02 * loss_reg(f))
    assert total == pytest.approx(parts, rel=1e-12)


# ---------------------------------------------------------------------------
# loss_chamfer


def test_loss_chamfer_identical_zero():
    rng = np.random.default_rng(4)
    a = PointCloud(rng.uniform(-0.5, 0.5, (20, 3)))
    assert loss_chamfer(a, a) == 0.0


def test_loss_chamfer_two_points_unsquared():
    a = PointCloud(np.array([[0.0, 0, 0]]))
    b = PointCloud(np.array([[1.0, 0, 0]]))
    assert loss_chamfer(a, b) == pytest.approx(2.0)


def test_loss_chamfer_matches_bruteforce():
    rng = np.random.default_rng(5)
    a = PointCloud(rng.uniform(-0.5, 0.5, (30, 3)))
    b = PointCloud(rng.uniform(-0.5, 0.5, (40, 3)))
    d = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    expected = d.min(axis=1).mean() + d.min(axis=0).mean()
    assert loss_chamfer(a, b) == pytest.approx(expected, rel=1e-12)
    assert loss_chamfer(a, b) == pytest.approx(loss_chamfer(b, a), rel=1e-14)


# ---------------------------------------------------------------------------
# loss_face / loss_pos


def test_loss_face_inside_margin_zero():
    f = constant_field(0.003)
    pts = PointCloud(np.random.default_rng(6).uniform(-0.3, 0.3, (10, 3)))
    assert loss_face(f, pts, eps=0.005) == 0.0


def test_loss_face_hand_value():
    f = constant_field(0.02)
    pts = PointCloud(np.zeros((1, 3)))
    assert loss_face(f, pts, eps=0.005) == pytest.approx(0.015 ** 2)


def test_loss_face_monotone_decreasing_in_eps():
    rng = np.random.default_rng(7)
    f = random_field(rng, n_bases=3)
    pts = PointCloud(rng.uniform(-0.3, 0.3, (64, 3)))
    vals = [loss_face(f, pts, eps) for eps in (0.0, 0.01, 0.05, 0.2)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_loss_pos_satisfied_zero():
    f = constant_field(0.5)
    pts = PointCloud(np.zeros((4, 3)))
    assert loss_pos(f, pts, eps=0.005) == 0.0


def test_loss_pos_hand_value():
    f = constant_field(-0.1)
    pts = PointCloud(np.zeros((1, 3)))
    assert loss_pos(f, pts, eps=0.0) == pytest.approx(0.01)


def test_loss_pos_matches_bruteforce_per_point():
    rng = np.random.default_rng(8)
    f = random_field(rng, n_bases=3)
    pts = rng.uniform(-0.4, 0.4, (32, 3))
    eps = 0.005
    s = f.sdf_batch(pts)
    expected = np.mean(np.maximum(eps - s, 0.0) ** 2)
    assert loss_pos(f, PointCloud(pts), eps) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# loss_adj


def test_loss_adj_duplicate_bases_zero():
    f = constant_field(0.2, n_bases=2)
    pts = PointCloud(np.random.default_rng(9).uniform(-0.3, 0.3, (8, 3)))
    assert loss_adj(f, pts) == 0.0


def test_loss_adj_hand_value():
    # f_p=0, f_q=0.01 with symmetric domains at the midpoint: w1 = w2 = 1
    f = latent_reader_field([0.0, 0.01], [[-0.1, 0, 0], [0.1, 0, 0]])
    pts = PointCloud(np.zeros((1, 3)))
    assert loss_adj(f, pts) == pytest.approx(1e-4, rel=1e-12)


def test_loss_adj_matches_composed_oracle():
    rng = np.random.default_rng(10)
    f = random_field(rng, n_bases=4)
    pts = rng.uniform(-0.4, 0.4, (24, 3))
    w = LossWeights()
    expected = 0.0
    for x in pts:
        p, q = oracle_top2(f, x)
        fp, fq = oracle_decode(f, p, x), oracle_decode(f, q, x)
        gp, gq = oracle_g(f, p, x), oracle_g(f, q, x)
        m = min(abs(fp), abs(fq))
        w1 = np.exp(-w.adj_sharp_surface * m * m)
        w2 = np.exp(-w.adj_sharp_balance * (gp - gq) ** 2)
        expected += w1 * w2 * (fp - fq) ** 2
    expected /= len(pts)
    assert loss_adj(f, PointCloud(pts), w) == pytest.approx(expected, rel=1e-12)


def test_loss_adj_rows_beyond_the_floor_add_exact_zeros():
    # f = 0, 0.255, 0.51 on three bases along x: midway between bases 0 and
    # 1 the weight exponent is 0 (kept); midway between 1 and 2 it is
    # 1e4 * 0.255^2 = 650 > ADJ_EXPONENT_FLOOR, a weight e^-650 whose term
    # is still a normal float64: the exact zeros come from the floor
    f = latent_reader_field([0.0, 0.255, 0.51],
                            [[-0.2, 0, 0], [0.0, 0, 0], [0.2, 0, 0]])
    w = LossWeights()
    assert w.adj_sharp_surface * 0.255 ** 2 > ADJ_EXPONENT_FLOOR
    assert np.exp(-w.adj_sharp_surface * 0.255 ** 2) * 0.255 ** 2 > 1e-300
    kept = np.array([[-0.1, 0.0, 0.0], [-0.1, 0.01, 0.0]])
    dropped = np.array([[0.1, 0.0, 0.0], [0.1, 0.0, -0.01], [0.1, 0.02, 0.0]])

    def adj_and_grads(pts):
        tape = Tape()
        prog = FieldProgram(tape, f, {"centers", "latents"})
        total = loss_adj_t(prog, pts, w)
        return float(total.value), backward(tape, total)

    value, grads = adj_and_grads(dropped)
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())
    value, grads = adj_and_grads(np.concatenate([kept, dropped]))
    assert value == pytest.approx(
        loss_adj(f, PointCloud(kept), w) * len(kept) / 5, rel=1e-12)
    assert value > 0.0
    assert np.all(grads["latents"][2] == 0.0)  # basis 2 is only in dropped rows
    assert np.any(grads["latents"][0] != 0.0)


def _loss_adj_blend_all(prog, pts, w):
    """loss_adj_t without the pre-filter: every point is blended, and rows
    past the floor are zeroed by the tape's own exponent test. Also returns
    the mask of the rows that test keeps."""
    blend = prog.blend(pts)
    diff = ad.sub(blend.f_p, blend.f_q)
    m = ad.minimum(ad.absolute(blend.f_p), ad.absolute(blend.f_q))
    e1 = ad.neg(ad.mul(m, m) * w.adj_sharp_surface)
    dg = ad.sub(blend.g_p, blend.g_q)
    e2 = ad.neg(ad.mul(dg, dg) * w.adj_sharp_balance)
    term = ad.mul(ad.mul(ad.exp(e1), ad.exp(e2)), ad.mul(diff, diff))
    drop = (e1.value + e2.value < -ADJ_EXPONENT_FLOOR) & np.isfinite(term.value)
    return ad.vmean(ad.where(~drop, term, 0.0)), ~drop


def _balance(f, pts, w):
    top2 = f.select_top2_nearest(pts)
    return w.adj_sharp_balance * (top2.g_p - top2.g_q) ** 2


def _prefilter_fixture(seed):
    """A random field, 1024 points and weights whose balance parts lie on
    both sides of the floor, one of them inside the slack above it; with no
    surface weight, the tape keeps exactly the rows below the floor."""
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=6, d_z=16, widths=(48, 48, 48))
    f.log_scales += 1.0  # sharper domains: a wider spread of g_p - g_q
    pts = rng.uniform(-0.45, 0.45, (1024, 3))
    dg2 = _balance(f, pts, LossWeights(adj_sharp_balance=1.0))
    # put a middle point's balance part halfway into the slack
    w = LossWeights(adj_sharp_surface=0.0,
                    adj_sharp_balance=(ADJ_EXPONENT_FLOOR + ADJ_PREFILTER_SLACK / 2)
                    / np.sort(dg2)[len(dg2) // 2])
    return f, pts, w


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_loss_adj_prefilter_equals_blending_every_point_bit_for_bit(seed,
                                                                     monkeypatch):
    f, pts, w = _prefilter_fixture(seed)
    balance = _balance(f, pts, w)
    skipped = balance > ADJ_EXPONENT_FLOOR + ADJ_PREFILTER_SLACK
    assert skipped.sum() >= 256  # a whole block is saved
    in_slack = (balance > ADJ_EXPONENT_FLOOR) & ~skipped
    assert in_slack.any() and (balance < ADJ_EXPONENT_FLOOR).any()
    blended = []
    blend = FieldProgram.blend
    monkeypatch.setattr(FieldProgram, "blend", lambda self, points, *a, **k:
                        blended.append(points) or blend(self, points, *a, **k))
    for trainable in ({"centers", "latents"}, None):
        tape = Tape()
        total = loss_adj_t(FieldProgram(tape, f, trainable), pts, w)
        value, grads = total.value, backward(tape, total)
        tape = Tape()
        total, kept = _loss_adj_blend_all(
            FieldProgram(tape, f, trainable), pts, w)
        expected, expected_grads = total.value, backward(tape, total)
        # every row that the tape's own test keeps was blended
        assert kept.any() and np.all((pts[kept][:, None] == blended[0][None]
                                      ).all(axis=2).any(axis=1))
        assert len(blended[0]) < len(pts)
        blended.clear()
        assert value > 0.0
        assert np.float64(value).view(np.int64) == np.float64(expected).view(np.int64)
        if trainable is None:
            # trained decoder weights sum their gradient over the blended
            # rows, fewer here, in another grouping: equal up to rounding
            for name in expected_grads:
                scale = np.abs(expected_grads[name]).max()
                np.testing.assert_allclose(grads[name], expected_grads[name],
                                           rtol=0.0, atol=1e-12 * scale,
                                           err_msg=name)
            continue
        for name in expected_grads:
            np.testing.assert_array_equal(grads[name].view(np.int64),
                                          expected_grads[name].view(np.int64),
                                          err_msg=name)


def test_loss_adj_blends_a_point_whose_balance_is_not_finite(monkeypatch):
    f, pts, w = _prefilter_fixture(21)
    j = int(np.argmax(_balance(f, pts, w)))  # the first to be skipped
    blended = []
    blend = FieldProgram.blend

    def spy(self, points, *args, **kwargs):
        blended.append(np.asarray(points))
        return blend(self, points, *args, **kwargs)

    monkeypatch.setattr(FieldProgram, "blend", spy)

    def point_j_blended():
        blended.clear()
        loss_adj(f, PointCloud(pts), w)
        return any(np.all(b == pts[j], axis=1).any() for b in blended)

    assert not point_j_blended()
    select = BasisField.select_top2_nearest

    def nan_weight_at_j(self, points, maps=None, with_nearest=True):
        top2 = select(self, points, maps)
        top2.g_p[j] = np.nan
        return top2

    monkeypatch.setattr(BasisField, "select_top2_nearest", nan_weight_at_j)
    assert point_j_blended()


# ---------------------------------------------------------------------------
# loss_stable / loss_opt


def test_loss_stable_zero_at_anchor():
    rng = np.random.default_rng(11)
    f = random_field(rng, n_bases=3)
    assert loss_stable(f, Anchor.from_field(f)) == 0.0


def test_loss_stable_hand_value_and_quadratic_scaling():
    f = constant_field(0.0)
    anchor = Anchor.from_field(f)
    f.centers[0] = [0.1, 0.0, 0.0]
    assert loss_stable(f, anchor) == pytest.approx(0.01)
    f.centers[0] = [0.3, 0.0, 0.0]  # 3x deviation -> 9x loss
    assert loss_stable(f, anchor) == pytest.approx(0.09)


def test_loss_stable_shape_mismatch_raises():
    rng = np.random.default_rng(12)
    f3 = random_field(rng, n_bases=3)
    f4 = random_field(rng, n_bases=4)
    from sdfblend.errors import FieldError
    with pytest.raises(FieldError):
        loss_stable(f4, Anchor.from_field(f3))


def _refine_inputs(rng, field, n=16):
    return RefineInputs(
        surface=PointCloud(rng.uniform(-0.4, 0.4, (n, 3))),
        positive=PointCloud(rng.uniform(-0.4, 0.4, (n, 3))),
        adjacency=PointCloud(rng.uniform(-0.4, 0.4, (n, 3))),
    )


def test_loss_opt_zero_when_components_zero():
    # constant field exactly at the margin satisfies both hinges; N=1 and
    # anchor=self zero the remaining terms
    f = constant_field(0.5)
    rng = np.random.default_rng(13)
    inputs = RefineInputs(
        surface=PointCloud(np.zeros((4, 3))),
        positive=PointCloud(rng.uniform(-0.3, 0.3, (4, 3))),
        adjacency=PointCloud(rng.uniform(-0.3, 0.3, (4, 3))),
    )
    w = LossWeights(hinge_eps=0.5)
    assert loss_opt(f, inputs, w, Anchor.from_field(f)) == 0.0


def test_loss_opt_equals_weighted_sum():
    rng = np.random.default_rng(14)
    f = random_field(rng, n_bases=3)
    inputs = _refine_inputs(rng, f)
    anchor = Anchor(f.centers + 0.01, f.latents - 0.02)
    w = LossWeights()
    total = loss_opt(f, inputs, w, anchor)
    parts = (w.face * loss_face(f, inputs.surface, w.hinge_eps)
             + w.pos * loss_pos(f, inputs.positive, w.hinge_eps)
             + w.adj * loss_adj(f, inputs.adjacency, w)
             + w.stable * loss_stable(f, anchor))
    assert total == pytest.approx(parts, rel=1e-12)


def test_loss_opt_gradient_restricted_to_centers_and_latents():
    rng = np.random.default_rng(15)
    f = random_field(rng, n_bases=3)
    inputs = _refine_inputs(rng, f)
    anchor = Anchor(f.centers + 0.01, f.latents - 0.02)
    pv = f.to_params()
    tape = Tape()
    prog = FieldProgram(tape, f, {"centers", "latents"})
    total, _ = loss_opt_t(prog, inputs, LossWeights(), anchor)
    flat = pv.flatten_grads(backward(tape, total))
    for name in pv.names():
        off, _, size = pv.slot(name)
        seg = flat[off:off + size]
        if name in ("centers", "latents"):
            assert np.any(seg != 0.0)
        else:
            assert np.all(seg == 0.0)


# ---------------------------------------------------------------------------
# shared invariants


def test_losses_nonnegative_and_order_invariant():
    rng = np.random.default_rng(16)
    f = random_field(rng, n_bases=4)
    pts = rng.uniform(-0.4, 0.4, (20, 3))
    y = rng.normal(0, 0.2, 20)
    perm = rng.permutation(20)
    w = LossWeights()
    for fn in (loss_sdf, loss_sdf_euc, loss_smooth):
        v1 = fn(f, samples_at(pts, y))
        v2 = fn(f, samples_at(pts[perm], y[perm]))
        assert v1 >= 0.0
        assert v1 == pytest.approx(v2, rel=1e-12)
    assert loss_adj(f, PointCloud(pts), w) == pytest.approx(
        loss_adj(f, PointCloud(pts[perm]), w), rel=1e-12)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(smooth=-0.1)
    w = LossWeights()
    assert LossWeights.from_json_dict(w.to_json_dict()) == w


def test_loss_gradients_pass_fd_check():
    # spot check beyond the dedicated gradcheck module: composite objective
    rng = np.random.default_rng(17)
    f = random_field(rng, n_bases=4)
    pts = rng.uniform(-0.4, 0.4, (16, 3))
    y = rng.normal(0, 0.2, 16)
    w = LossWeights()

    def objective(tape, pv):
        prog = FieldProgram(tape, f.with_params(pv))
        from sdfblend.objective import loss_inte_t
        return loss_inte_t(prog, pts, y, w, epoch=0)[0]

    res = finite_diff_check(objective, f.to_params(), h=1e-6)
    assert res.max_rel_err <= 1e-5


def test_loss_inte_gradient_with_nearest_rows_outside_the_top2():
    """The nearest pass decodes extra rows only for points whose nearest
    basis is neither p nor q; their gradient reaches that basis."""
    rng = np.random.default_rng(18)
    f = random_field(rng, n_bases=5)
    pts = rng.uniform(-0.45, 0.45, (24, 3))
    y = rng.normal(0, 0.2, 24)
    p, q, _, nearest = f.select_top2_nearest(pts)
    assert np.count_nonzero((nearest != p) & (nearest != q)) >= 3
    w = LossWeights()

    def objective(tape, pv):
        prog = FieldProgram(tape, f.with_params(pv))
        from sdfblend.objective import loss_inte_t
        return loss_inte_t(prog, pts, y, w, epoch=0)[0]

    res = finite_diff_check(objective, f.to_params(), h=1e-6)
    assert res.max_rel_err <= 1e-5
    assert res.n_checked > len(f.to_params()) // 2


def _chain_loss_inte_t(prog, pts, targets, weights, epoch):
    """loss_inte_t as the chain of generic ops its node replaced, composed
    from one blend as loss_sdf_t, loss_sdf_euc_t, loss_smooth_t and
    loss_reg_t compose theirs: the node's bit-level reference."""
    blend = prog.blend(pts, with_nearest=True)
    l_sdf = _sdf_from_blend(blend, targets)
    l_euc = ad.vmean(ad.absolute(ad.sub(blend.f_k, targets)))
    l_smooth = (prog.tape.constant(0.0) if prog.field.n_bases == 1
                else _smooth_from_blend(blend))
    l_reg = loss_reg_t(prog)
    reg_w = weights.reg if epoch == 0 else 0.0
    total = ad.add(ad.add(l_sdf, l_euc),
                   ad.add(l_smooth * weights.smooth, l_reg * reg_w))
    return total, {"sdf": float(l_sdf.value), "sdf_euc": float(l_euc.value),
                   "smooth": float(l_smooth.value), "reg": float(l_reg.value)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bases=st.sampled_from([1, 2, 8, 33]),
       trainable=st.sampled_from([None, ("centers", "latents"), ("rot6s",),
                                  ("offsets",), ("dec_w1", "dec_b2"), "none"]),
       epoch=st.sampled_from([0, 1]))
def test_loss_inte_node_equals_the_chain_bit_for_bit(seed, n_bases, trainable,
                                                     epoch):
    """loss_inte_t (one node over the stacked pass at N > 1, with the
    rotation node) against the chain of generic ops it replaced: the total,
    the four parts, every leaf gradient and the branch signature are equal
    in bytes. The points include fallback rows and, at N = 33, points whose
    nearest basis is neither p nor q (rows beyond 2n); some domains are
    sharpened, so one of the two weights underflows; "none" is a tape of
    constants, as a central-difference probe uses."""
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=n_bases, d_z=5, widths=(12, 12))
    f.log_scales[rng.random(n_bases) < 0.3] += np.log(8.0)
    X = _fallback_probe_points(rng, 200)
    y = rng.normal(0.0, 0.3, len(X))
    w = LossWeights(smooth=float(rng.uniform(0.1, 2.0)),
                    reg=float(rng.uniform(0.001, 0.1)))
    scale = float(rng.uniform(0.5, 2.0))
    results = []
    for cls, loss in ((FieldProgram, loss_inte_t), (_ChainProgram, _chain_loss_inte_t)):
        if trainable == "none":
            tape, names = ad._ConstantTape(record_branches=True), None
        else:
            tape = Tape(record_branches=True)
            names = None if trainable is None else set(trainable)
        total, parts = loss(cls(tape, f, names), X, y, w, epoch)
        # a cotangent other than 1.0 reaches the loss
        scaled = ad.mul(total, scale)
        results.append((np.float64(total.value), parts, backward(tape, scaled),
                        tape.branch_signature()))
    (ft, fp, fg, fsig), (ct, cp, cg, csig) = results
    assert ft.tobytes() == ct.tobytes()
    assert fp.keys() == cp.keys() == {"sdf", "sdf_euc", "smooth", "reg"}
    for k in fp:
        assert np.float64(fp[k]).tobytes() == np.float64(cp[k]).tobytes(), k
    expected = (set(f.params.names()) if trainable is None
                else set() if trainable == "none" else set(trainable))
    assert fg.keys() == cg.keys() == expected
    for name in fg:
        np.testing.assert_array_equal(fg[name].view(np.int64),
                                      cg[name].view(np.int64), err_msg=name)
    assert fsig == csig and len(fsig) > 0
    p, q, fallback, nearest = f.select_top2_nearest(X)
    assert n_bases == 1 or fallback.any()
    assert n_bases < 33 or np.any((nearest != p) & (nearest != q))
