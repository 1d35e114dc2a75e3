"""Rotations, domains, blending and downsampling against independent oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfblend import certify
from sdfblend.autodiff import ROW_BLOCK, Tape
from sdfblend.errors import CheckpointError, FieldError
from sdfblend.field import (
    BasisField, Decoder, FieldProgram, LocalBasis, decoder_eval,
    domain_downsample, domain_transform, rbf_weight, rotation_from_6d,
    sdf_eval, top2,
)
from sdfblend.gradcheck import random_field

# ---------------------------------------------------------------------------
# independent scalar oracles


def oracle_rotation(r6):
    a1, a2 = np.asarray(r6[:3], float), np.asarray(r6[3:], float)
    b1 = a1 / np.linalg.norm(a1)
    res = a2 - (b1 @ a2) * b1
    b2 = res / np.linalg.norm(res)
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=1)


def oracle_g(field, i, x):
    b = field.basis(i)
    A = np.diag(np.exp(b.log_scale)) @ oracle_rotation(b.rot6)
    d = np.asarray(x, float) - (b.center + b.offset)
    return float(np.exp(-np.sum((A @ d) ** 2)))


def oracle_decode(field, i, x):
    b = field.basis(i)
    h = np.concatenate([np.asarray(x, float) - (b.center + b.offset), b.latent])
    inp = h.copy()
    dec = field.decoder
    for li, (w, bias) in enumerate(zip(dec.weights, dec.biases)):
        if li in dec.skip_at:
            h = np.concatenate([h, inp])
        h = w.T @ h + bias
        if li < dec.n_layers - 1:
            h = np.maximum(h, 0.0)
    return float(h[0])


def oracle_top2(field, x):
    gs = np.array([oracle_g(field, i, x) for i in range(field.n_bases)])
    order = np.lexsort((np.arange(len(gs)), -gs))  # descending g, index tiebreak
    return int(order[0]), int(order[1])


def oracle_sdf(field, x):
    if field.n_bases == 1:
        return oracle_decode(field, 0, x)
    p, q = oracle_top2(field, x)
    gp, gq = oracle_g(field, p, x), oracle_g(field, q, x)
    if gp + gq == 0.0:
        d = np.linalg.norm(field.effective_centers - np.asarray(x), axis=1)
        return oracle_decode(field, int(np.argmin(d)), x)
    fp, fq = oracle_decode(field, p, x), oracle_decode(field, q, x)
    return gp / (gp + gq) * fp + gq / (gp + gq) * fq


# ---------------------------------------------------------------------------
# rotation_from_6d


def test_rotation_identity():
    np.testing.assert_allclose(rotation_from_6d([1, 0, 0, 0, 1, 0]), np.eye(3))


def test_rotation_normalization_absorbs_magnitude():
    np.testing.assert_allclose(rotation_from_6d([2, 0, 0, 0, 3, 0]), np.eye(3),
                               atol=1e-15)


def test_rotation_swapped_axes_hand_case():
    R = rotation_from_6d([0, 1, 0, 1, 0, 0])
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=float)
    np.testing.assert_allclose(R, expected, atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_rotation_degenerate_inputs_name_the_basis():
    with pytest.raises(FieldError, match="basis 0"):
        rotation_from_6d([0, 0, 0, 0, 1, 0])
    with pytest.raises(FieldError, match="basis 0"):
        rotation_from_6d([1, 0, 0, 2, 0, 0])  # parallel


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rotation_orthogonality_property(seed):
    rng = np.random.default_rng(seed)
    r6 = rng.normal(size=6)
    R = rotation_from_6d(r6)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(R) - 1.0) <= 1e-9
    np.testing.assert_allclose(R, oracle_rotation(r6), atol=1e-12)


# ---------------------------------------------------------------------------
# domain_transform / rbf_weight


def _basis(center=(0, 0, 0), log_scale=(0, 0, 0), rot6=(1, 0, 0, 0, 1, 0),
           offset=(0, 0, 0), latent=(0.0,)):
    return LocalBasis(center=center, latent=latent, log_scale=log_scale,
                      rot6=rot6, offset=offset)


def test_domain_transform_cases():
    np.testing.assert_allclose(domain_transform(_basis()), np.eye(3))
    A = domain_transform(_basis(log_scale=(np.log(2), 0, 0)))
    np.testing.assert_allclose(A, np.diag([2, 1, 1]))
    rng = np.random.default_rng(4)
    b = _basis(log_scale=rng.normal(size=3), rot6=rng.normal(size=6))
    expected = np.diag(np.exp(b.log_scale)) @ rotation_from_6d(b.rot6)
    np.testing.assert_array_equal(domain_transform(b), expected)


def test_rbf_weight_values():
    b = _basis(center=(0.1, 0.2, 0.0), offset=(0.0, 0.0, 0.05))
    assert rbf_weight(b, (0.1, 0.2, 0.05)) == 1.0
    assert rbf_weight(b, (0.1 + 1.0, 0.2, 0.05)) == pytest.approx(np.exp(-1.0))
    b2 = _basis(log_scale=(np.log(2), 0, 0))
    assert rbf_weight(b2, (1, 0, 0)) == pytest.approx(np.exp(-4.0))


def test_rbf_weight_translation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = rng.normal(size=3)
        x = rng.normal(size=3)
        t = rng.normal(size=3)
        b1 = _basis(center=c, log_scale=rng.normal(size=3) * 0.3)
        b2 = _basis(center=c + t, log_scale=b1.log_scale)
        assert rbf_weight(b1, x) == pytest.approx(rbf_weight(b2, x + t), rel=1e-12)


# ---------------------------------------------------------------------------
# top2 / decoder_eval / sdf_eval


def test_top2_two_bases_descending():
    rng = np.random.default_rng(2)
    f = random_field(rng, n_bases=2)
    x = (0.05, 0.0, 0.0)
    p, q = top2(f, x)
    assert {p, q} == {0, 1}
    assert oracle_g(f, p, x) >= oracle_g(f, q, x)


def test_top2_tie_breaks_to_lower_index():
    dec = Decoder(d_z=1, widths=())
    # identical bases: exact tie everywhere
    f = BasisField(centers=np.zeros((2, 3)), latents=np.zeros((2, 1)),
                   log_scales=np.zeros((2, 3)),
                   rot6s=np.tile([1, 0, 0, 0, 1, 0], (2, 1)),
                   offsets=np.zeros((2, 3)), decoder=dec)
    p, q = top2(f, (0.3, 0.2, 0.1))
    assert (p, q) == (0, 1)


def test_top2_single_basis_degenerate():
    rng = np.random.default_rng(3)
    f = random_field(rng, n_bases=1)
    assert top2(f, (0, 0, 0)) == (0, 0)


def test_top2_matches_bruteforce_sort():
    rng = np.random.default_rng(7)
    f = random_field(rng, n_bases=8)
    X = rng.uniform(-0.5, 0.5, (100, 3))
    for x in X:
        assert top2(f, x) == oracle_top2(f, x)


def test_decoder_eval_zero_weights_returns_bias():
    dec = Decoder(d_z=2, widths=(4,))
    dec.biases[-1][:] = 0.37
    f = BasisField(centers=np.zeros((1, 3)), latents=np.zeros((1, 2)),
                   log_scales=np.zeros((1, 3)),
                   rot6s=np.array([[1, 0, 0, 0, 1, 0]]),
                   offsets=np.zeros((1, 3)), decoder=dec)
    assert decoder_eval(f, 0, (0.3, -0.2, 0.1)) == pytest.approx(0.37)


def test_decoder_eval_translation_invariance():
    rng = np.random.default_rng(9)
    f = random_field(rng, n_bases=2)
    t = np.array([0.13, -0.2, 0.05])
    x = np.array([0.1, 0.0, -0.1])
    shifted = BasisField(f.centers + t, f.latents, f.log_scales, f.rot6s,
                         f.offsets, f.decoder)
    assert decoder_eval(f, 0, x) == pytest.approx(
        decoder_eval(shifted, 0, x + t), rel=1e-12)


def test_decoder_eval_matches_hand_forward():
    rng = np.random.default_rng(10)
    f = random_field(rng, n_bases=3, d_z=4, widths=(8, 8))
    X = rng.uniform(-0.5, 0.5, (20, 3))
    for x in X:
        for i in range(3):
            assert decoder_eval(f, i, x) == pytest.approx(
                oracle_decode(f, i, x), rel=1e-12, abs=1e-15)


def test_decoder_skip_connection_matches_hand_forward():
    rng = np.random.default_rng(11)
    dec = Decoder.init(d_z=4, widths=(8, 8, 8), skip_at=(1,),
                       rng=np.random.default_rng(0))
    f = random_field(rng, n_bases=2, d_z=4, widths=(8,))
    f = BasisField(f.centers, f.latents, f.log_scales, f.rot6s, f.offsets, dec)
    x = np.array([0.1, -0.2, 0.3])
    assert decoder_eval(f, 0, x) == pytest.approx(oracle_decode(f, 0, x), rel=1e-12)


def test_sdf_eval_single_basis_equals_decoder():
    rng = np.random.default_rng(12)
    f = random_field(rng, n_bases=1)
    x = (0.2, 0.1, -0.3)
    assert sdf_eval(f, x) == decoder_eval(f, 0, x)


def test_sdf_eval_duplicate_bases_equals_decoder():
    rng = np.random.default_rng(13)
    base = random_field(rng, n_bases=1)
    dup = BasisField(np.repeat(base.centers, 2, 0), np.repeat(base.latents, 2, 0),
                     np.repeat(base.log_scales, 2, 0), np.repeat(base.rot6s, 2, 0),
                     np.repeat(base.offsets, 2, 0), base.decoder)
    x = (0.1, 0.25, 0.0)
    assert sdf_eval(dup, x) == pytest.approx(decoder_eval(base, 0, x), rel=1e-14)


def test_sdf_eval_matches_independent_oracle():
    rng = np.random.default_rng(14)
    f = random_field(rng, n_bases=4)
    X = rng.uniform(-0.5, 0.5, (50, 3))
    vals = f.sdf_batch(X)
    expected = np.array([oracle_sdf(f, x) for x in X])
    np.testing.assert_allclose(vals, expected, rtol=1e-12, atol=1e-14)


def test_sdf_eval_permutation_invariance():
    rng = np.random.default_rng(15)
    f = random_field(rng, n_bases=6)
    X = rng.uniform(-0.5, 0.5, (64, 3))
    perm = rng.permutation(6)
    g = BasisField(f.centers[perm], f.latents[perm], f.log_scales[perm],
                   f.rot6s[perm], f.offsets[perm], f.decoder)
    np.testing.assert_allclose(f.sdf_batch(X), g.sdf_batch(X),
                               rtol=0, atol=1e-12)


def test_partition_of_unity():
    from sdfblend.autodiff import Tape
    from sdfblend.field import FieldProgram
    rng = np.random.default_rng(16)
    f = random_field(rng, n_bases=5)
    X = rng.uniform(-0.5, 0.5, (200, 3))
    pv = f.to_params()
    tape = Tape()
    blend = FieldProgram(tape, pv.leaves(tape, set()), f).blend(X)
    assert blend.f_k is None  # the nearest basis is decoded only on request
    a_p, a_q = blend.a_p.value, blend.a_q.value
    np.testing.assert_allclose(a_p + a_q, 1.0, atol=1e-12)
    assert np.all(a_p >= 0) and np.all(a_q >= 0)


def test_underflow_fallback_uses_nearest_basis():
    dec = Decoder(d_z=1, widths=())
    dec.weights[0][3, 0] = 1.0  # reads latent[0]
    f = BasisField(centers=np.array([[-0.3, 0, 0], [0.3, 0, 0]]),
                   latents=np.array([[1.0], [2.0]]),
                   log_scales=np.full((2, 3), 40.0),  # astronomically narrow
                   rot6s=np.tile([1, 0, 0, 0, 1, 0], (2, 1)),
                   offsets=np.zeros((2, 3)), decoder=dec)
    x = np.array([[0.25, 0.0, 0.0]])  # nearest basis 1, far from both domains
    vals, n_fallback = f.sdf_batch_diag(x)
    assert n_fallback == 1
    assert vals[0] == pytest.approx(2.0)


def _fallback_probe_points(rng, n):
    """Uniform points in the box plus far ones whose top-2 weights underflow."""
    near = rng.uniform(-0.5, 0.5, (n - n // 10, 3))
    far = rng.uniform(-40.0, 40.0, (n // 10, 3))
    far[:, 0] = 30.0  # g < exp(-(30 * 0.8)**2): underflows for every basis
    return np.concatenate([near, far])


@pytest.mark.parametrize("n_bases", [1, 3, 6])
def test_no_grad_blend_equals_recording_tape(n_bases):
    """A blend on a tape of constants (inference) keeps no VJP and equals
    the blend on a tape of trainable leaves bit for bit."""
    from sdfblend.autodiff import Tape
    from sdfblend.field import FieldProgram
    rng = np.random.default_rng(30 + n_bases)
    f = random_field(rng, n_bases=n_bases)
    X = _fallback_probe_points(rng, 300)
    pv = f.to_params()
    results = []
    for trainable in (None, set()):  # every parameter a leaf, then none
        tape = Tape()
        prog = FieldProgram(tape, pv.leaves(tape, trainable), f)
        results.append((prog.blend(X, with_nearest=True), prog.n_fallback_total))
        assert all(node.vjp is None for node in tape.nodes) == (trainable == set())
    (grad, grad_nf), (free, free_nf) = results
    for name in ("sdf", "f_p", "f_q", "g_p", "g_q", "a_p", "a_q", "f_k"):
        np.testing.assert_array_equal(getattr(free, name).value,
                                      getattr(grad, name).value, err_msg=name)
    assert free_nf == grad_nf == int(free.fallback.sum())
    assert n_bases == 1 or free_nf > 0


@pytest.mark.parametrize("n_bases", [1, 2, 3, 6])
def test_nearest_pass_decodes_each_pair_once(monkeypatch, n_bases):
    """blend(with_nearest=True) decodes 2B rows plus one per point whose
    nearest basis is neither p nor q (B rows at N = 1), and its f_k is the
    nearest basis decoded on its own."""
    from sdfblend.field import FieldProgram
    rng = np.random.default_rng(40 + n_bases)
    f = random_field(rng, n_bases=n_bases)
    X = _fallback_probe_points(rng, 400)
    decoded = []
    decode = FieldProgram.decode
    monkeypatch.setattr(FieldProgram, "decode",
                        lambda self, pts, idx, d=None: decoded.append(len(idx))
                        or decode(self, pts, idx, d))
    prog = FieldProgram.constant(f)
    blend = prog.blend(X, with_nearest=True)
    nearest = f.nearest_center_index(X)
    outside = int(np.count_nonzero((nearest != blend.p) & (nearest != blend.q)))
    assert decoded == [len(X) if n_bases == 1 else 2 * len(X) + outside]
    assert n_bases < 3 or outside > 0
    assert n_bases == 1 or blend.fallback.any()
    np.testing.assert_allclose(blend.f_k.value, decode(prog, X, nearest).value,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_bases", [1, 2, 8, 128])
def test_sums_of_three_squares_equal_the_reduce(monkeypatch, n_bases):
    """rbf_matrix, nearest_center_index and box_signs sum their three
    squares with two adds; the bits equal those of ndarray.sum(axis=-1),
    also where g underflows to zero."""
    import sdfblend.field as field_mod
    rng = np.random.default_rng(50 + n_bases)
    f = random_field(rng, n_bases=n_bases)
    X = _fallback_probe_points(rng, 500)
    lo = rng.uniform(-0.6, 0.5, (300, 3))
    hi = lo + rng.uniform(0.0, 0.1, (300, 3))
    runs = []
    for sum3 in (field_mod._sum3, lambda sq: sq.sum(axis=-1)):
        monkeypatch.setattr(field_mod, "_sum3", sum3)
        monkeypatch.setattr(certify, "_sum3", sum3)
        runs.append((f.rbf_matrix(X), f.nearest_center_index(X),
                     certify._box_candidates(f, 0.5 * (lo + hi), 0.5 * (hi - lo),
                                             f._domain_maps() if n_bases > 1
                                             else None),
                     certify.box_signs(f, lo, hi)))
    (g, nearest, cand, signs), (g_ref, nearest_ref, cand_ref, signs_ref) = runs
    np.testing.assert_array_equal(g.view(np.int64), g_ref.view(np.int64))
    assert (g == 0.0).any()
    np.testing.assert_array_equal(nearest, nearest_ref)
    np.testing.assert_array_equal(cand, cand_ref)
    np.testing.assert_array_equal(signs, signs_ref)


def test_sdf_batch_keeps_per_field_nodes_and_one_block(monkeypatch):
    import sdfblend.field as field_mod
    tapes, n_maps = [], []

    class SpyTape(field_mod.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.peak, self.marks = 0, set()
            tapes.append(self)

        def truncate(self, n):
            self.peak = max(self.peak, len(self.nodes))
            self.marks.add(n)
            super().truncate(n)

    domain_maps = BasisField._domain_maps
    monkeypatch.setattr(field_mod, "Tape", SpyTape)
    monkeypatch.setattr(BasisField, "_domain_maps",
                        lambda self: n_maps.append(1) or domain_maps(self))
    rng = np.random.default_rng(32)
    f = random_field(rng, n_bases=5, widths=(48, 48))
    block = f.inference_block()
    X = _fallback_probe_points(rng, 3 * block + 37)
    f.sdf_batch_diag(X[:block])
    f.sdf_batch_diag(X)  # 4 blocks, the last one padded
    (one, many) = tapes
    assert len(n_maps) == 2  # domain maps built once per call
    assert one.marks == many.marks == {len(many.nodes)}
    assert many.peak == one.peak > len(many.nodes)


def test_sdf_batch_values_do_not_depend_on_the_call():
    """A point evaluated alone, or in a call of any length, gets the bits
    it gets inside a larger call: the last block is padded to whole
    ROW_BLOCKs."""
    rng = np.random.default_rng(34)
    f = random_field(rng, n_bases=8, d_z=16, widths=(48, 48, 48))
    X = _fallback_probe_points(rng, 24000)
    ref, ref_fallback = f.sdf_batch_diag(X)
    assert ref_fallback > 0
    for n in (1, 13, 257, 20001):
        for lo in (0, 1000, len(X) - n):  # the last one ends on fallback points
            vals, n_fallback = f.sdf_batch_diag(X[lo:lo + n])
            np.testing.assert_array_equal(vals.view(np.int64),
                                          ref[lo:lo + n].view(np.int64))
            # the padding copies are not counted
            assert n_fallback == f.select_top2_nearest(X[lo:lo + n])[2].sum()


def test_inference_block_follows_decoder_width():
    rng = np.random.default_rng(32)
    f = random_field(rng, n_bases=2, d_z=16, widths=(48, 48, 48))
    assert f.inference_block() == 2048  # 2 rows x 2048 x 48 x 8 B = 1.5 MiB
    wide = random_field(rng, n_bases=2, d_z=16, widths=(512, 512))
    assert wide.inference_block() == 256  # the floor


def test_inference_block_is_whole_minimum_blocks():
    rng = np.random.default_rng(33)
    f = random_field(rng, n_bases=2, d_z=4, widths=(100,))  # 983 before rounding
    assert f.inference_block() == 3 * ROW_BLOCK


# ---------------------------------------------------------------------------
# box_signs


def _boxes_and_points(rng, n_boxes, width, n_pts):
    """Boxes in the grid domain, and n_pts uniform points plus the 8 corners
    of each box, (K, n_pts + 8, 3)."""
    lo = rng.uniform(-0.55, 0.55 - width, size=(n_boxes, 3))
    hi = lo + width * rng.uniform(0.2, 1.0, size=(n_boxes, 3))
    t = np.concatenate([
        rng.uniform(size=(n_boxes, n_pts, 3)),
        np.broadcast_to(np.array(list(itertools.product((0.0, 1.0), repeat=3))),
                        (n_boxes, 8, 3)),
    ], axis=1)
    return lo, hi, lo[:, None] + t * (hi - lo)[:, None]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bases=st.sampled_from([1, 2, 3, 8]),
       weight_scale=st.sampled_from([1.0, 1e6]),
       width=st.floats(0.005, 0.4), log_scale_shift=st.sampled_from([0.0, 4.0]))
def test_box_signs_never_contradict_the_field(seed, n_bases, weight_scale, width,
                                              log_scale_shift):
    """No point of a certified box has the other sign, and the top-2 bases of
    every point are among its box's candidates, also with decoder weights
    scaled x1e6 and with domains narrow enough to fall back."""
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=n_bases)
    f.log_scales += log_scale_shift
    for w in f.decoder.weights:
        w *= weight_scale
    lo, hi, pts = _boxes_and_points(rng, 48, width, 40)
    signs = certify.box_signs(f, lo, hi)
    vals = f.sdf_batch(pts.reshape(-1, 3)).reshape(pts.shape[:2])
    assert np.all(vals[signs == 1] >= 0)
    assert np.all(vals[signs == -1] < 0)
    if n_bases > 1:
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        cand = certify._box_candidates(f, mid, rad, f._domain_maps())
        p, q, _, _ = f.select_top2_nearest(pts.reshape(-1, 3))
        box = np.repeat(np.arange(len(lo)), pts.shape[1])
        assert cand[box, p].all() and cand[box, q].all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bases=st.sampled_from([1, 3, 8]),
       weight_scale=st.sampled_from([1.0, 1e6]),
       width=st.floats(0.005, 0.4), log_scale_shift=st.sampled_from([0.0, 4.0]),
       skip=st.booleans())
def test_back_substituted_bounds_contain_the_decoder(seed, n_bases, weight_scale,
                                                     width, log_scale_shift, skip):
    """Back-substituted decoder bounds of every (box, candidate) pair hold the
    decoder's value at 40 random points and the 8 corners of the box, up to
    the rounding margin, and are never looser than the forward bounds."""
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=n_bases)
    if skip:
        f = BasisField(f.centers, f.latents, f.log_scales, f.rot6s, f.offsets,
                       Decoder.init(f.d_z, (8, 8), skip_at=(0, 2), rng=rng))
    f.log_scales += log_scale_shift
    for w in f.decoder.weights:
        w *= weight_scale
    lo, hi, pts = _boxes_and_points(rng, 24, width, 40)
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    maps = f._domain_maps() if n_bases > 1 else None
    box, basis = np.nonzero(certify._box_candidates(f, mid, rad, maps))
    layers = certify._bound_layers(f)
    fwd = certify._decoder_bounds(f, mid[box], rad[box], basis, layers,
                                  np.full(len(box), -np.inf))
    f_lo, f_hi = certify._decoder_bounds(f, mid[box], rad[box], basis, layers,
                                         np.full(len(box), np.inf))
    assert np.all(f_lo >= fwd[0]) and np.all(f_hi <= fwd[1])
    prog = FieldProgram.constant(f)
    n_pts = pts.shape[1]
    vals = prog.decode(pts[box].reshape(-1, 3),
                       np.repeat(basis, n_pts)).value.reshape(len(box), n_pts)
    m = certify._decoder_margin(f, lo.min(axis=0), hi.max(axis=0))[basis][:, None]
    assert np.all(vals >= f_lo[:, None] - m)
    assert np.all(vals <= f_hi[:, None] + m)


def test_box_signs_certify_most_blocks_away_from_the_surface():
    rng = np.random.default_rng(39)  # a field with both signs in the domain
    f = random_field(rng, n_bases=3)
    lo, hi, pts = _boxes_and_points(rng, 200, 0.05, 40)
    signs = certify.box_signs(f, lo, hi)
    vals = f.sdf_batch(pts.reshape(-1, 3)).reshape(pts.shape[:2])
    one_sign = np.all(vals >= 0, axis=1) | np.all(vals < 0, axis=1)
    assert np.mean(signs != 0) > 0.5 * np.mean(one_sign)
    assert set(np.unique(signs)) == {-1, 0, 1}


def test_box_signs_certify_nothing_where_the_decoder_overflows():
    from tests.test_fit import overflowing_field
    f = overflowing_field()
    lo, hi, _ = _boxes_and_points(np.random.default_rng(35), 64, 0.1, 0)
    assert not certify.box_signs(f, lo, hi).any()


# ---------------------------------------------------------------------------
# domain_downsample


def _downsample_oracle(field, n_keep):
    """Recompute every score from scratch at every iteration."""
    c = field.effective_centers
    n = field.n_bases
    alive = list(range(n))
    while len(alive) > n_keep:
        scores = []
        for j in alive:
            s = sum(oracle_g(field, i, c[j]) for i in alive if i != j)
            scores.append(s)
        k = alive[int(np.argmax(scores))]
        alive.remove(k)
    return np.array(alive)


def test_downsample_keep_all():
    rng = np.random.default_rng(17)
    f = random_field(rng, n_bases=5)
    np.testing.assert_array_equal(domain_downsample(f, 5), np.arange(5))


def test_downsample_removes_covered_middle_basis():
    dec = Decoder(d_z=1, widths=())
    # three bases on a line; middle one sits inside both neighbors' domains
    f = BasisField(centers=np.array([[-0.1, 0, 0], [0.0, 0, 0], [0.1, 0, 0]]),
                   latents=np.zeros((3, 1)),
                   log_scales=np.zeros((3, 3)),
                   rot6s=np.tile([1, 0, 0, 0, 1, 0], (3, 1)),
                   offsets=np.zeros((3, 3)), decoder=dec)
    # hand check: s(middle) = 2*exp(-0.01), s(ends) = exp(-0.01) + exp(-0.04)
    kept = domain_downsample(f, 2)
    np.testing.assert_array_equal(kept, [0, 2])


def test_downsample_matches_recompute_oracle():
    rng = np.random.default_rng(18)
    for trial in range(40):
        n = int(rng.integers(3, 12))
        f = random_field(rng, n_bases=n)
        n_keep = int(rng.integers(1, n + 1))
        kept = domain_downsample(f, n_keep)
        np.testing.assert_array_equal(kept, _downsample_oracle(f, n_keep),
                                      err_msg=f"trial {trial}")


def test_downsample_range_errors():
    rng = np.random.default_rng(19)
    f = random_field(rng, n_bases=3)
    with pytest.raises(ValueError):
        domain_downsample(f, 0)
    with pytest.raises(ValueError):
        domain_downsample(f, 4)


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    f = random_field(rng, n_bases=3)
    path = tmp_path / "ck.json"
    f.save(path)
    g = BasisField.load(path)
    np.testing.assert_array_equal(f.centers, g.centers)
    np.testing.assert_array_equal(f.latents, g.latents)
    np.testing.assert_array_equal(f.log_scales, g.log_scales)
    np.testing.assert_array_equal(f.rot6s, g.rot6s)
    np.testing.assert_array_equal(f.offsets, g.offsets)
    for w1, w2 in zip(f.decoder.weights, g.decoder.weights):
        np.testing.assert_array_equal(w1, w2)
    X = rng.uniform(-0.5, 0.5, (32, 3))
    np.testing.assert_array_equal(f.sdf_batch(X), g.sdf_batch(X))


def test_checkpoint_rejects_unknown_version(tmp_path):
    rng = np.random.default_rng(21)
    doc = random_field(rng).to_json_dict()
    doc["version"] = 99
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="99"):
        BasisField.load(path)
