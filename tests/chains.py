"""The chains of generic tape ops that the fused nodes replaced, each written
once: the bit-level references that the node tests compare with.

`autodiff.mlp`, `decoder_input`, `domain_quadratic`, `rotation_columns` and
the integrated loss's node (`objective._inte_node`) each compute the values,
gradients and branch tokens of one chain below bit for bit. The generic ops
that no program path runs (`div`, `sqrt`, `matmul`, `concat`, `cols`) live
here too, on the tape's own `_binary`, `_unary` and `_record`: the chains
and the tests of the tape's ops use them.
"""

import numpy as np

from sdfblend import autodiff as ad
from sdfblend.autodiff import _binary, _record, _unary
from sdfblend.field import FieldProgram
from sdfblend.objective import _sdf_from_blend, _smooth_from_blend, loss_reg_t

# ---------------------------------------------------------------------------
# generic ops that no program path runs


def div(a, b):
    return _binary(
        a, b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


def sqrt(a):
    return _unary(a, np.sqrt, lambda x, o: 0.5 / o)


def matmul(a, b):
    return _binary(
        a, b,
        lambda x, y: x @ y,
        lambda g, x, y: g @ y.T,
        lambda g, x, y: x.T @ g,
    )


def concat(parts, axis=1):
    values = [p.value for p in parts]
    out = np.concatenate(values, axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])
    return _record(parts[0].tape, out, [
        (p, lambda g, part=lead + (slice(lo, hi),): g[part])
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])
    ])


def cols(a, start, stop):
    """Column slice [:, start:stop] of a 2-D array."""
    av = a.value

    def grad(g):
        full = np.zeros_like(av)
        full[:, start:stop] = g
        return full

    return _record(a.tape, av[:, start:stop].copy(), [(a, grad)])


# ---------------------------------------------------------------------------
# the decoder: ad.mlp


def _unfused_mlp(x, weights, biases, skip_at=()):
    """The chain the mlp node replaced: concat at skip layers, then matmul,
    add and a where-ReLU, as separate nodes."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        if i in skip_at:
            h = concat([h, x], axis=1)
        h = ad.add(matmul(h, w), b)
        if i < len(weights) - 1:
            mask = h.value > 0.0
            h.tape.note_branch(np.asarray(mask, dtype=np.int8))
            h = ad.where(mask, h, 0.0)
    return h


# ---------------------------------------------------------------------------
# the 6D Gram-Schmidt: ad.rotation_columns


def _rotation_columns(r):
    """The chain of generic ops that ad.rotation_columns replaced: the
    rotation columns (b1, b2, b1 x b2), (N, 3) each, of an (N, 6) stack."""
    a1 = cols(r, 0, 3)
    a2 = cols(r, 3, 6)
    n1 = sqrt(ad.vsum(ad.mul(a1, a1), axis=1, keepdims=True))
    ad._check_norms(n1.value, "first vector ~ 0")
    b1 = div(a1, n1)
    proj = ad.vsum(ad.mul(b1, a2), axis=1, keepdims=True)
    res = ad.sub(a2, ad.mul(proj, b1))
    n2 = sqrt(ad.vsum(ad.mul(res, res), axis=1, keepdims=True))
    ad._check_norms(n2.value, "second vector parallel to first")
    b2 = div(res, n2)
    return b1, b2, _cross_rows(b1, b2)


def _cross_rows(a, b):
    ax, ay, az = (cols(a, i, i + 1) for i in range(3))
    bx, by, bz = (cols(b, i, i + 1) for i in range(3))
    return concat([
        ad.sub(ad.mul(ay, bz), ad.mul(az, by)),
        ad.sub(ad.mul(az, bx), ad.mul(ax, bz)),
        ad.sub(ad.mul(ax, by), ad.mul(ay, bx)),
    ], axis=1)


def _stacked(parts):
    """np.stack of the values of `parts` as one node, in the layout of
    ad.rotation_columns: its VJP hands each part its slice."""
    return _record(parts[0].tape, np.stack([p.value for p in parts]),
                   [(p, lambda g, k=k: g[k]) for k, p in enumerate(parts)])


# ---------------------------------------------------------------------------
# the blend's plumbing: ad.decoder_input and ad.domain_quadratic


def _chain_decoder_input(t, pts, centers, latents, idx):
    """The chain ad.decoder_input replaced; returns x - c and the input."""
    d = ad.sub(t.constant(pts), ad.gather_rows(centers, idx))
    return d, concat([d, ad.gather_rows(latents, idx)], axis=1)


def _chain_domain_quadratic(d, b1, b2, b3, scales, idx):
    """The chain ad.domain_quadratic replaced, on the x - c rows `d`, read
    through a rows copy when `d` has more rows than `idx`."""
    if len(idx) < d.shape[0]:
        d = ad.rows(d, 0, len(idx))
    dx, dy, dz = (cols(d, k, k + 1) for k in range(3))
    rd = ad.add(ad.add(ad.mul(dx, ad.gather_rows(b1, idx)),
                       ad.mul(dy, ad.gather_rows(b2, idx))),
                ad.mul(dz, ad.gather_rows(b3, idx)))
    w = ad.mul(ad.gather_rows(scales, idx), rd)
    return ad.vsum(ad.mul(w, w), axis=1)


class _ChainProgram(FieldProgram):
    """FieldProgram over the chains of generic ops that
    ad.rotation_columns, ad.decoder_input and ad.domain_quadratic replaced:
    the bit-level reference of the three nodes. Its rotation columns come
    from _rotation_columns (the program's own rotation node is left
    unread, so it gets no cotangent). decoder_input keeps x - c for
    domain_quadratic."""

    def __init__(self, tape, field, trainable=None):
        super().__init__(tape, field, trainable)
        self.rot_cols = _rotation_columns(self.leaves["rot6s"])

    def decoder_input(self, pts, idx):
        d, x = _chain_decoder_input(self.tape, pts, self.eff_centers,
                                    self.leaves["latents"], idx)
        self.chain_input = (x, d)
        return x

    def domain_quadratic(self, inp, idx):
        assert inp is self.chain_input[0]
        return _chain_domain_quadratic(self.chain_input[1], *self.rot_cols,
                                       self.scales, idx)


# ---------------------------------------------------------------------------
# the integrated loss: objective._inte_node


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
