"""Rotations, domains, blending and downsampling against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfblend.errors import CheckpointError, FieldError
from sdfblend.field import (
    BasisField, Decoder, LocalBasis, decoder_eval, domain_downsample,
    domain_transform, rbf_weight, rotation_from_6d, sdf_eval, top2,
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
    from sdfblend.autodiff import Tape
    from sdfblend.field import FieldProgram
    rng = np.random.default_rng(30 + n_bases)
    f = random_field(rng, n_bases=n_bases)
    X = _fallback_probe_points(rng, 300)
    pv = f.to_params()
    results = []
    for tape in (Tape(), Tape(no_grad=True)):
        prog = FieldProgram(tape, pv.leaves(tape, set()), f)
        blend, nearest = prog.blend_with_nearest(X)
        results.append((blend, nearest, prog.n_fallback_total))
    (grad, grad_k, grad_nf), (free, free_k, free_nf) = results
    for name in ("sdf", "f_p", "f_q", "g_p", "g_q", "a_p", "a_q"):
        np.testing.assert_array_equal(getattr(free, name).value,
                                      getattr(grad, name).value, err_msg=name)
    np.testing.assert_array_equal(free_k.value, grad_k.value)
    assert free_nf == grad_nf == free.n_fallback
    assert n_bases == 1 or free.n_fallback > 0


def test_sdf_batch_block_size_does_not_change_values():
    rng = np.random.default_rng(31)
    f = random_field(rng, n_bases=5)
    X = _fallback_probe_points(rng, 3000)
    ref, ref_fallback = f.sdf_batch_diag(X)
    assert ref_fallback > 0
    for chunk in (1, 7, 2048, 65536):
        vals, n_fallback = f.sdf_batch_diag(X, chunk=chunk)
        # BLAS kernels for tiny blocks (1 and 7 points) sum in another
        # order: within 4 ulp of max(|value|, 1), since a value near the
        # zero crossing carries the rounding of its O(1) terms
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(vals, ref, rtol=4 * eps, atol=4 * eps)
        np.testing.assert_array_equal(np.sign(vals), np.sign(ref))
        assert n_fallback == ref_fallback
    with pytest.raises(ValueError):
        f.sdf_batch_diag(X, chunk=0)


def test_inference_block_follows_decoder_width():
    rng = np.random.default_rng(32)
    f = random_field(rng, n_bases=2, d_z=16, widths=(48, 48, 48))
    assert f.inference_block() == 2048  # 2 rows x 2048 x 48 x 8 B = 1.5 MiB
    wide = random_field(rng, n_bases=2, d_z=16, widths=(512, 512))
    assert wide.inference_block() == 256  # the floor


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
