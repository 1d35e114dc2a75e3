"""Rotations, domains, blending and downsampling against independent oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfblend import certify
from sdfblend import autodiff as ad
from sdfblend.autodiff import ROW_BLOCK, AdamState, Tape, adam_step, backward
from sdfblend.errors import CheckpointError, FieldError
from sdfblend.field import (
    BasisField, Decoder, FieldProgram, LocalBasis, decoder_eval,
    domain_downsample, domain_transform, rbf_weight, rotation_from_6d,
    rotations_from_6d, sdf_eval, top2,
)
from sdfblend.geom import PointCloud
from sdfblend.gradcheck import random_field
from tests.chains import _ChainProgram, _rotation_columns

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


def numpy_rotations_from_6d(r_raw):
    """The 6D Gram-Schmidt in plain numpy: the bit-level reference of
    ad.rotation_columns, which rotations_from_6d and every
    FieldProgram run."""
    r = np.asarray(r_raw, dtype=np.float64).reshape(-1, 6)
    a1, a2 = r[:, :3], r[:, 3:]
    n1 = np.linalg.norm(a1, axis=1)
    bad = np.flatnonzero(n1 < 1e-12)
    if bad.size:
        raise FieldError(f"degenerate rotation at basis {bad[0]}: first vector ~ 0")
    b1 = a1 / n1[:, None]
    res = a2 - np.sum(b1 * a2, axis=1, keepdims=True) * b1
    n2 = np.linalg.norm(res, axis=1)
    bad = np.flatnonzero(n2 < 1e-12)
    if bad.size:
        raise FieldError(
            f"degenerate rotation at basis {bad[0]}: second vector parallel to first"
        )
    b2 = res / n2[:, None]
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=2)  # columns


def numpy_domain_maps(field):
    """The (a_stack, c_mapped) of `field` from numpy_rotations_from_6d:
    the reference of FieldProgram.maps."""
    A = np.exp(field.log_scales)[:, :, None] * numpy_rotations_from_6d(field.rot6s)
    return (A.transpose(2, 0, 1).reshape(3, -1),
            np.einsum("nij,nj->ni", A, field.effective_centers))


def _field_with_rotations(rng, r6):
    n = len(r6)
    return BasisField(rng.uniform(-0.5, 0.5, (n, 3)), rng.normal(size=(n, 2)),
                      rng.uniform(-3.0, 3.0, (n, 3)), r6,
                      rng.normal(0.0, 0.01, (n, 3)), Decoder(2, (4,)))


def test_rotations_and_maps_equal_the_numpy_gram_schmidt():
    """rotations_from_6d and every FieldProgram's maps run the tape's
    Gram-Schmidt: the bits of the numpy one, on stacks of 1-200 rows at
    magnitudes 1e-5 to 1e5, a third of them with a second vector nearly
    parallel to the first."""
    rng = np.random.default_rng(61)
    for _ in range(300):
        n = int(rng.integers(1, 201))
        r6 = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
        near = rng.random(n) < 1 / 3
        r6[near, 3:] = (r6[near, :3] * rng.uniform(-3, 3, (near.sum(), 1))
                        + r6[near, 3:] * 10.0 ** rng.uniform(-6, -2, (near.sum(), 1)))
        f = _field_with_rotations(rng, r6)
        np.testing.assert_array_equal(rotations_from_6d(r6).view(np.int64),
                                      numpy_rotations_from_6d(r6).view(np.int64))
        for got, ref in zip(FieldProgram.constant(f).maps, numpy_domain_maps(f)):
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("rows, message", [
    ({2: [0, 0, 0, 0, 1, 0]}, "basis 2: first vector ~ 0"),
    ({1: [1, 2, 3, 2, 4, 6]}, "basis 1: second vector parallel to first"),
    ({1: [1, 2, 3, 2, 4, 6], 3: [0, 0, 0, 1, 0, 0]}, "basis 3: first vector ~ 0"),
    ({0: [1e-13, 0, 0, 0, 1, 0]}, "basis 0: first vector ~ 0"),
])
def test_degenerate_rotations_raise_the_numpy_message(rows, message):
    rng = np.random.default_rng(62)
    r6 = rng.normal(size=(4, 6))
    for k, row in rows.items():
        r6[k] = row
    f = _field_with_rotations(rng, r6)
    for build in (numpy_rotations_from_6d, rotations_from_6d,
                  lambda r: FieldProgram.constant(f),
                  # the node on a recording tape, and the chain it replaced
                  lambda r: ad.rotation_columns(Tape().leaf(r, "rot6s")),
                  lambda r: _rotation_columns(Tape().leaf(r, "rot6s"))):
        with pytest.raises(FieldError) as got:
            build(r6)
        assert str(got.value) == f"degenerate rotation at {message}"


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
    blend = FieldProgram(Tape(), f, set()).blend(X)
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


@pytest.mark.parametrize("n_bases", [1, 2, 8])
def test_selection_without_nearest_runs_it_on_fallback_rows_only(monkeypatch,
                                                                 n_bases):
    """Without with_nearest (every blend but the fitting objective's),
    selection runs the nearest-basis pass on the fallback rows only and
    leaves the nearest slot None; p, q, the fallback mask and the two
    weights are those of the full selection, bit for bit."""
    rng = np.random.default_rng(70 + n_bases)
    f = random_field(rng, n_bases=n_bases)
    X = _fallback_probe_points(rng, 300)
    full = f.select_top2_nearest(X)
    searched = []
    nearest_center_index = BasisField.nearest_center_index
    monkeypatch.setattr(BasisField, "nearest_center_index", lambda self, pts:
                        searched.append(len(pts)) or nearest_center_index(self, pts))
    lean = f.select_top2_nearest(X, with_nearest=False)
    for a, b in zip(full[:3], lean[:3]):
        np.testing.assert_array_equal(a, b)
    for a, b in ((full.g_p, lean.g_p), (full.g_q, lean.g_q)):
        assert (a is None and b is None) or np.array_equal(a.view(np.int64),
                                                           b.view(np.int64))
    assert lean[3] is None
    n_fallback = int(full[2].sum())
    assert searched == ([] if n_bases == 1 else [n_fallback])
    assert n_bases == 1 or n_fallback > 0
    searched.clear()
    FieldProgram.constant(f).blend(X)  # inference's blend
    assert searched == ([] if n_bases == 1 else [n_fallback])


@pytest.mark.parametrize("n_bases", [1, 3, 6])
def test_no_grad_blend_equals_recording_tape(n_bases):
    """A blend on a tape of constants (inference) keeps no VJP and equals
    the blend on a tape of trainable leaves bit for bit."""
    from sdfblend.autodiff import Tape
    from sdfblend.field import FieldProgram
    rng = np.random.default_rng(30 + n_bases)
    f = random_field(rng, n_bases=n_bases)
    X = _fallback_probe_points(rng, 300)
    results = []
    for trainable in (None, set()):  # every parameter a leaf, then none
        tape = Tape()
        prog = FieldProgram(tape, f, trainable)
        results.append((prog.blend(X, with_nearest=True), prog.n_fallback_total))
        assert (tape.nodes == []) == (trainable == set())
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
                        lambda self, inp: decoded.append(len(inp.value))
                        or decode(self, inp))
    prog = FieldProgram.constant(f)
    blend = prog.blend(X, with_nearest=True)
    nearest = f.nearest_center_index(X)
    outside = int(np.count_nonzero((nearest != blend.p) & (nearest != blend.q)))
    assert decoded == [len(X) if n_bases == 1 else 2 * len(X) + outside]
    assert n_bases < 3 or outside > 0
    assert n_bases == 1 or blend.fallback.any()
    np.testing.assert_allclose(
        blend.f_k.value, decode(prog, prog.decoder_input(X, nearest)).value,
        rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 8, 33]))
def test_rotation_node_equals_the_chain_bit_for_bit(seed, n):
    """ad.rotation_columns against the chain it replaced: the columns and
    the gradient of the 6D stack bit for bit, on rows of magnitudes 1e-5
    to 1e5, a third nearly parallel, under two consumers' cotangents that
    span many decades and hold zeros of both signs."""
    rng = np.random.default_rng(seed)
    r6 = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
    near = rng.random(n) < 1 / 3
    r6[near, 3:] = (r6[near, :3] * rng.uniform(-3, 3, (near.sum(), 1))
                    + r6[near, 3:] * 10.0 ** rng.uniform(-6, -2, (near.sum(), 1)))
    cot = rng.normal(size=(2, 3, n, 3)) * 10.0 ** rng.uniform(-6, 6, (2, 3, n, 3))
    cot[rng.random(cot.shape) < 0.15] = 0.0
    cot[rng.random(cot.shape) < 0.15] = -0.0
    results = []
    for fused in (True, False):
        t = Tape()
        r = t.leaf(r6, "r")
        if fused:
            rot = ad.rotation_columns(r)
            terms = [ad.vsum(ad.mul(rot, c)) for c in cot]
            value = rot.value
        else:
            cols = _rotation_columns(r)
            terms = [ad.vsum(ad.mul(col, ck)) for c in cot
                     for col, ck in zip(cols, c)]
            value = np.stack([col.value for col in cols])
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        results.append((value, backward(t, loss)["r"]))
    (fv, fg), (cv, cg) = results
    np.testing.assert_array_equal(fv.view(np.int64), cv.view(np.int64))
    np.testing.assert_array_equal(fg.view(np.int64), cg.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bases=st.sampled_from([1, 2, 8, 33]),
       trainable=st.sampled_from([None, ("centers", "latents"), ()]),
       with_nearest=st.booleans())
def test_blend_nodes_equal_the_unfused_chain_bit_for_bit(seed, n_bases, trainable,
                                                          with_nearest):
    """A blend on the fused nodes and on the chain they replaced: every
    output's value, every trained parameter's gradient and the branch
    tokens are equal bit for bit, with fallback rows, and with the
    nearest basis's extra rows beyond 2n when `with_nearest`. A tape of
    constants (trainable ()) holds no node on either side."""
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=n_bases, d_z=5, widths=(12, 12))
    X = _fallback_probe_points(rng, 200)
    r = rng.normal(size=(6, len(X))) * 10.0 ** rng.uniform(-4, 4, (6, len(X)))
    results = []
    for cls in (FieldProgram, _ChainProgram):
        tape = Tape(record_branches=True)
        prog = cls(tape, f, None if trainable is None else set(trainable))
        b = prog.blend(X, with_nearest=with_nearest)
        outs = [b.sdf, b.f_p, b.f_q, b.g_p, b.g_q, b.f_k or b.sdf]
        loss = ad.vsum(ad.mul(outs[0], r[0]))
        for out, weights in zip(outs[1:], r[1:]):
            loss = ad.add(loss, ad.vsum(ad.mul(out, weights)))
        results.append(([o.value for o in outs], backward(tape, loss),
                         tape.branch_signature(), len(tape.nodes)))
    (fv, fg, fsig, fnodes), (cv, cg, csig, cnodes) = results
    for a, b in zip(fv, cv):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    expected = set(f.params.names()) if trainable is None else set(trainable)
    assert fg.keys() == cg.keys() == expected
    for name in fg:
        np.testing.assert_array_equal(fg[name].view(np.int64),
                                      cg[name].view(np.int64), err_msg=name)
    assert fsig == csig
    assert (fnodes == cnodes == 0) == (trainable == ())
    p, q, fallback, nearest = f.select_top2_nearest(X)
    assert n_bases == 1 or fallback.any()
    assert n_bases < 33 or np.any((nearest != p) & (nearest != q))


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
                                             FieldProgram.constant(f).maps),
                     _whole_box_signs(f, lo, hi)))
    (g, nearest, cand, signs), (g_ref, nearest_ref, cand_ref, signs_ref) = runs
    np.testing.assert_array_equal(g.view(np.int64), g_ref.view(np.int64))
    assert (g == 0.0).any()
    np.testing.assert_array_equal(nearest, nearest_ref)
    np.testing.assert_array_equal(cand, cand_ref)
    np.testing.assert_array_equal(signs, signs_ref)


def test_sdf_batch_holds_no_tape_node(monkeypatch):
    """Inference keeps no node at all, so no block's values outlive it, and
    builds the per-field values (one rotation) once per call."""
    import sdfblend.field as field_mod
    tapes, n_rotations = [], []

    class SpyTape(field_mod.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(self)

    rotation_columns = ad.rotation_columns
    monkeypatch.setattr(field_mod, "Tape", SpyTape)
    monkeypatch.setattr(ad, "rotation_columns",
                        lambda r: n_rotations.append(1) or rotation_columns(r))
    rng = np.random.default_rng(32)
    f = random_field(rng, n_bases=5, widths=(48, 48))
    block = f.inference_block()
    X = _fallback_probe_points(rng, 3 * block + 37)
    f.sdf_batch_diag(X[:block])
    f.sdf_batch_diag(X)  # 4 blocks, the last one padded
    (one, many) = tapes
    assert len(n_rotations) == 2  # per-field values built once per call
    assert one.nodes == many.nodes == []


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


@pytest.mark.parametrize("shape", [(3, 2), (4, 2), (2, 4), (3,), (0,), (2, 3, 1)])
def test_points_of_the_wrong_shape_fail_by_name(shape):
    """sdf_batch and PointCloud take (n, 3) arrays, n = 0 included; any
    other shape raises ValueError naming the argument, where a reshape to
    (-1, 3) would have read its values as other points."""
    f = random_field(np.random.default_rng(33), n_bases=2)
    assert f.sdf_batch(np.zeros((0, 3))).shape == (0,)
    assert len(PointCloud(np.zeros((0, 3)))) == 0
    with pytest.raises(ValueError, match=r"^pts has shape .*, expected \(n, 3\)$"):
        f.sdf_batch(np.zeros(shape))
    with pytest.raises(ValueError, match=r"^points has shape .*, expected \(n, 3\)$"):
        PointCloud(np.zeros(shape))


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


def _whole_box_signs(f, lo, hi):
    """box_signs of the boxes [lo[k], hi[k]] as one sub-box each, (K,)."""
    return certify.box_signs(f, np.stack([lo, hi], axis=2))[:, 0, 0, 0]


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
    signs = _whole_box_signs(f, lo, hi)
    vals = f.sdf_batch(pts.reshape(-1, 3)).reshape(pts.shape[:2])
    assert np.all(vals[signs == 1] >= 0)
    assert np.all(vals[signs == -1] < 0)
    if n_bases > 1:
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        cand = certify._box_candidates(f, mid, rad, FieldProgram.constant(f).maps)
        p, q, _, _ = f.select_top2_nearest(pts.reshape(-1, 3))
        box = np.repeat(np.arange(len(lo)), pts.shape[1])
        assert cand[box, p].all() and cand[box, q].all()


def _box_surface_points(rng, lo, hi, n_inner):
    """Per box: its 8 corners, 2 random points on each of its 6 faces and
    n_inner uniform points, (K, 20 + n_inner, 3)."""
    k = len(lo)
    corners = np.broadcast_to(
        np.array(list(itertools.product((0.0, 1.0), repeat=3))), (k, 8, 3))
    faces = rng.uniform(size=(k, 12, 3))
    axis = np.repeat(np.arange(3), 4)
    faces[:, np.arange(12), axis] = np.tile([0.0, 1.0], 6)
    t = np.concatenate([corners, faces, rng.uniform(size=(k, n_inner, 3))], axis=1)
    return np.clip(lo[:, None] + t * (hi - lo)[:, None], lo[:, None], hi[:, None])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bases=st.sampled_from([3, 8, 16, 32]),
       log_scale_shift=st.sampled_from([0.0, 4.0]))
def test_dominance_keeps_every_top2_basis_a_candidate(seed, n_bases,
                                                      log_scale_shift):
    """Dropping the bases that two others dominate keeps every top-2 basis
    of 40 points per box (corners, faces, inside) a candidate, and keeps
    only candidates of the interval test: boxes one cell to an 8^3 block
    wide at resolution 128, on rotated anisotropic domains, some so far
    out that every weight underflows and selection falls back."""
    from unittest import mock
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=n_bases)
    f.log_scales += log_scale_shift
    cell = 1.1 / 128
    width = cell * np.exp(rng.uniform(0.0, np.log(8.0), size=(64, 3)))
    lo = np.concatenate([rng.uniform(-0.55, 0.55 - 8 * cell, size=(48, 3)),
                         rng.uniform(-100.0, 100.0, size=(16, 3))])
    hi = lo + width
    pts = _box_surface_points(rng, lo, hi, 20)
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    maps = FieldProgram.constant(f).maps
    cand = certify._box_candidates(f, mid, rad, maps)
    with mock.patch.object(certify, "_dominated",
                           lambda *a: np.zeros(len(a[-1]), dtype=bool)):
        interval = certify._box_candidates(f, mid, rad, maps)
    assert not (cand & ~interval).any()
    p, q, fallback, _ = f.select_top2_nearest(pts.reshape(-1, 3))
    assert n_bases == 1 or fallback.any()
    box = np.repeat(np.arange(len(lo)), pts.shape[1])
    assert cand[box, p].all() and cand[box, q].all()


def test_a_basis_on_top_inside_the_box_stays_a_candidate():
    """Two wide bases have the least u at the box midpoint, but a narrow
    one centred inside the box, off the midpoint, is the top basis at its
    centre: u_j - u_i is concave along x with its maximum inside the box,
    so its Hessian term may not be taken at the box's faces."""
    rng = np.random.default_rng(37)
    f = random_field(rng, n_bases=3)
    f.centers[:] = [[0.0, 0.0, 0.0], [0.002, 0.0, 0.0], [0.0144, 0.0, 0.0]]
    f.offsets[:] = 0.0
    f.log_scales[:] = 0.0
    f.log_scales[1:, 0] = np.log([3.0, 50.0])
    f.rot6s[:] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert f.select_top2_nearest(f.effective_centers[2:])[0][0] == 2
    cand = certify._box_candidates(f, np.zeros((1, 3)), np.full((1, 3), 0.05),
                                   FieldProgram.constant(f).maps)
    assert cand.all()


def test_a_nan_never_removes_a_candidate():
    """A NaN box keeps every basis a candidate, and a NaN domain map keeps
    its basis a candidate of every box and removes no other candidate."""
    rng = np.random.default_rng(36)
    f = random_field(rng, n_bases=16)
    lo = rng.uniform(-0.55, 0.45, size=(64, 3))
    mid, rad = lo + 0.03, np.full((64, 3), 0.03)
    a_stack, c_mapped = FieldProgram.constant(f).maps
    cand = certify._box_candidates(f, mid, rad, (a_stack, c_mapped))
    assert not cand.all()
    mid[:8, 0] = np.nan
    rad[8:16, 1] = np.nan
    nan_box = certify._box_candidates(f, mid, rad, (a_stack, c_mapped))
    assert nan_box[:16].all() and (nan_box[16:] == cand[16:]).all()
    a_stack = a_stack.copy()
    a_stack[2, 3 * 5 + 1] = np.nan  # basis 5
    nan_map = certify._box_candidates(f, lo + 0.03, np.full((64, 3), 0.03),
                                      (a_stack, c_mapped))
    assert nan_map[:, 5].all() and not (cand & ~nan_map).any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bases=st.sampled_from([1, 2, 3, 8]),
       weight_scale=st.sampled_from([1.0, 1e6]),
       width=st.floats(0.005, 0.4), log_scale_shift=st.sampled_from([0.0, 4.0]),
       skip=st.booleans(), split=st.sampled_from([1, 2, 4]))
def test_sub_box_signs_never_contradict_the_field(seed, n_bases, weight_scale,
                                                  width, log_scale_shift, skip,
                                                  split):
    """No point of a certified sub-box has the other sign, with boxes split
    at random coordinates (some sub-boxes of zero width), also with decoder
    weights scaled x1e6, domains narrow enough to fall back and a skip
    decoder; and a box signed as its one sub-box signs all its sub-boxes
    alike."""
    rng = np.random.default_rng(seed)
    f = random_field(rng, n_bases=n_bases)
    if skip:
        f = BasisField(f.centers, f.latents, f.log_scales, f.rot6s, f.offsets,
                       Decoder.init(f.d_z, (8, 8), skip_at=(0, 2), rng=rng))
    f.log_scales += log_scale_shift
    for w in f.decoder.weights:
        w *= weight_scale
    lo, hi, _ = _boxes_and_points(rng, 24, width, 0)
    cuts = rng.uniform(size=(24, 3, split - 1))
    cuts[rng.uniform(size=cuts.shape) < 0.2] = 1.0
    inner = np.minimum(lo[..., None] + cuts * (hi - lo)[..., None], hi[..., None])
    edges = np.concatenate([lo[..., None], np.sort(inner, axis=2), hi[..., None]],
                           axis=2)
    sub = certify.box_signs(f, edges)
    signs = _whole_box_signs(f, lo, hi)
    # 12 uniform points and the 8 corners of every sub-box, clipped into it
    ijk = np.array(list(itertools.product(range(split), repeat=3)))
    sub_lo = np.stack([edges[:, a, ijk[:, a]] for a in range(3)], axis=-1)
    sub_hi = np.stack([edges[:, a, ijk[:, a] + 1] for a in range(3)], axis=-1)
    t = np.concatenate([
        rng.uniform(size=(24, len(ijk), 12, 3)),
        np.broadcast_to(np.array(list(itertools.product((0.0, 1.0), repeat=3))),
                        (24, len(ijk), 8, 3)),
    ], axis=2)
    pts = np.clip(sub_lo[:, :, None] + t * (sub_hi - sub_lo)[:, :, None],
                  sub_lo[:, :, None], sub_hi[:, :, None])
    vals = f.sdf_batch(pts.reshape(-1, 3)).reshape(pts.shape[:3])
    sub = sub.reshape(24, -1)
    assert np.all(vals[sub == 1] >= 0)
    assert np.all(vals[sub == -1] < 0)
    assert np.all(sub[signs == 1] == 1) and np.all(sub[signs == -1] == -1)


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
    box, basis = np.nonzero(certify._box_candidates(
        f, mid, rad, FieldProgram.constant(f).maps))
    layers = certify._bound_layers(f)
    t_sub = certify._sub_intervals(np.stack([lo, hi], axis=2)[box], mid[box],
                                   rad[box])
    fwd = certify._decoder_bounds(f, mid[box], rad[box], basis, layers,
                                  np.full(len(box), -np.inf), t_sub)
    f_lo, f_hi = certify._decoder_bounds(f, mid[box], rad[box], basis, layers,
                                         np.full(len(box), np.inf), t_sub)[:2]
    assert np.all(f_lo >= fwd[0]) and np.all(f_hi <= fwd[1])
    prog = FieldProgram.constant(f)
    n_pts = pts.shape[1]
    vals = prog.decode(prog.decoder_input(
        pts[box].reshape(-1, 3),
        np.repeat(basis, n_pts))).value.reshape(len(box), n_pts)
    m = certify._decoder_margin(f, lo.min(axis=0), hi.max(axis=0))[basis][:, None]
    assert np.all(vals >= f_lo[:, None] - m)
    assert np.all(vals <= f_hi[:, None] + m)


def test_box_signs_certify_most_blocks_away_from_the_surface():
    rng = np.random.default_rng(39)  # a field with both signs in the domain
    f = random_field(rng, n_bases=3)
    lo, hi, pts = _boxes_and_points(rng, 200, 0.05, 40)
    signs = _whole_box_signs(f, lo, hi)
    vals = f.sdf_batch(pts.reshape(-1, 3)).reshape(pts.shape[:2])
    one_sign = np.all(vals >= 0, axis=1) | np.all(vals < 0, axis=1)
    assert np.mean(signs != 0) > 0.5 * np.mean(one_sign)
    assert set(np.unique(signs)) == {-1, 0, 1}


def test_box_signs_certify_nothing_where_the_decoder_overflows():
    from tests.test_fit import overflowing_field
    f = overflowing_field()
    lo, hi, _ = _boxes_and_points(np.random.default_rng(35), 64, 0.1, 0)
    assert not _whole_box_signs(f, lo, hi).any()


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
# parameter store


def _param_arrays(f):
    return [f.centers, f.latents, f.log_scales, f.rot6s, f.offsets,
            *f.decoder.weights, *f.decoder.biases]


def test_field_arrays_are_views_of_its_params():
    f = random_field(np.random.default_rng(40), n_bases=4)
    assert sum(a.size for a in _param_arrays(f)) == len(f.params)
    for arr in _param_arrays(f):
        assert np.shares_memory(arr, f.params.data)
    f.log_scales[:] = 0.25
    f.decoder.weights[1][:] = -1.0
    leaves = FieldProgram(Tape(), f, set()).leaves
    np.testing.assert_array_equal(leaves["log_scales"].value, 0.25)
    np.testing.assert_array_equal(leaves["dec_w1"].value, -1.0)


def test_with_params_views_the_vector_and_keeps_it_through_adam():
    f = random_field(np.random.default_rng(41), n_bases=4)
    pv = f.to_params()
    g = f.with_params(pv)
    for arr in _param_arrays(g):
        assert np.shares_memory(arr, pv.data)
    arrays = [a.tobytes() for a in _param_arrays(g)]
    params = g.to_params().data.tobytes()
    pv.data, _ = adam_step(pv.data, np.ones(len(pv)),
                           AdamState.init(len(pv), lr=0.1))
    assert pv.data.tobytes() != params
    assert [a.tobytes() for a in _param_arrays(g)] == arrays
    assert g.to_params().data.tobytes() == params


def test_copy_and_take_own_their_data():
    f = random_field(np.random.default_rng(42), n_bases=4)
    params = f.params.data.tobytes()
    g = f.copy()
    assert g.params.data.tobytes() == params
    for g in (g, f.take([3, 1])):
        for arr in _param_arrays(g):
            arr[...] = 7.0
        assert f.params.data.tobytes() == params


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
