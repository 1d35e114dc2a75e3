"""Loss functions over a basis field and sample data.

Each loss exists in two forms: a tape-building function (suffix ``_t``)
that composes with the autodiff engine for fitting, and a plain-float
wrapper with the documented operation signature. The float wrappers
evaluate on a throwaway constant tape, so both forms share one
implementation of the math.

Hinge conventions: the surface and free-space hinges default to punishing
violations *outside* the margin (loss is zero whenever the constraint holds
within eps). The alternative ``"paper-min"`` convention, which activates
inside the margin instead, is selectable for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import FieldError, check_document, check_number
from .field import BasisField, FieldProgram, blend_weights
from .geom import PointCloud, SampleSet
from .metrics import nearest_distances

HINGE_CONVENTIONS = ("outside", "paper-min")


@dataclass
class LossWeights:
    """Weights and constants for the composite objectives."""

    smooth: float = 0.5
    reg: float = 0.01            # offset-regularizer weight during epoch 0
    face: float = 1.0
    pos: float = 10.0
    adj: float = 10.0
    stable: float = 0.1
    hinge_eps: float = 0.005
    adj_sharp_surface: float = 10000.0
    adj_sharp_balance: float = 1000.0
    hinge_convention: str = "outside"

    def __post_init__(self):
        for name in ("smooth", "reg", "face", "pos", "adj", "stable",
                     "hinge_eps", "adj_sharp_surface", "adj_sharp_balance"):
            check_number(getattr(self, name), f"LossWeights.{name}", 0.0)
        if self.hinge_convention not in HINGE_CONVENTIONS:
            raise ValueError(f"unknown hinge convention {self.hinge_convention!r}")

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LossWeights":
        return cls(**check_document(doc, None, "loss weights", ValueError,
                                    fields=cls.__dataclass_fields__))


@dataclass
class Anchor:
    """Reference copies of the centers and latents being refined."""

    centers: np.ndarray
    latents: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 3)
        self.latents = np.asarray(self.latents, dtype=np.float64)

    @classmethod
    def from_field(cls, field: BasisField) -> "Anchor":
        return cls(field.centers.copy(), field.latents.copy())

    def check_matches(self, field: BasisField) -> None:
        if self.centers.shape != field.centers.shape or \
                self.latents.shape != field.latents.shape:
            raise FieldError(
                f"anchor shape {self.centers.shape}/{self.latents.shape} does not "
                f"match field {field.centers.shape}/{field.latents.shape}"
            )


@dataclass
class RefineInputs:
    """Point sets consumed by the post-fit refinement objective."""

    surface: PointCloud
    positive: PointCloud
    adjacency: PointCloud


# ---------------------------------------------------------------------------
# Tape-building losses


def loss_sdf_t(prog: FieldProgram, pts: np.ndarray, targets: np.ndarray) -> Var:
    """Blend-weighted absolute error of both selected bases (data term)."""
    blend = prog.blend(pts)
    return _sdf_from_blend(blend, targets)


def _sdf_from_blend(blend, targets: np.ndarray) -> Var:
    r_p = ad.absolute(ad.sub(blend.f_p, targets))
    r_q = ad.absolute(ad.sub(blend.f_q, targets))
    per = ad.add(ad.mul(blend.a_p, r_p), ad.mul(blend.a_q, r_q))
    return ad.vmean(per)


def loss_smooth_t(prog: FieldProgram, pts: np.ndarray) -> Var:
    """Mean |f_p - f_q|: penalizes disagreement of the two selected bases."""
    if prog.field.n_bases == 1:
        return prog.tape.constant(0.0)
    return _smooth_from_blend(prog.blend(pts))


def _smooth_from_blend(blend) -> Var:
    return ad.vmean(ad.absolute(ad.sub(blend.f_p, blend.f_q)))


def loss_sdf_euc_t(prog: FieldProgram, pts: np.ndarray, targets: np.ndarray) -> Var:
    """Absolute error of the Euclidean-nearest basis (ignores blend weights)."""
    f_k = prog.blend(pts, with_nearest=True).f_k
    return ad.vmean(ad.absolute(ad.sub(f_k, targets)))


def loss_reg_t(prog: FieldProgram) -> Var:
    """Mean L1 norm of the center offsets."""
    offs = prog.leaves["offsets"]
    n = prog.field.n_bases
    return ad.vsum(ad.absolute(offs)) * (1.0 / n)


def loss_inte_t(prog: FieldProgram, pts: np.ndarray, targets: np.ndarray,
                weights: LossWeights, epoch: int
                ) -> tuple[Var, dict[str, float]]:
    """Integrated fitting objective: the sdf term (as loss_sdf_t), the
    nearest basis's term (loss_sdf_euc_t), the smooth term (loss_smooth_t)
    times weights.smooth and the offset regularizer (loss_reg_t) times
    weights.reg in epoch 0 (0.0 later); also returns per-term floats for
    diagnostics.

    At N > 1 the blend's tail and the four terms are one tape node over
    the stacked pass (see _inte_node); a single basis composes them from
    its blend."""
    reg_w = weights.reg if epoch == 0 else 0.0
    if prog.field.n_bases > 1:
        return _inte_node(prog, pts, targets, weights.smooth, reg_w)
    blend = prog.blend(pts, with_nearest=True)
    l_sdf = _sdf_from_blend(blend, targets)
    l_euc = ad.vmean(ad.absolute(ad.sub(blend.f_k, targets)))
    l_smooth = prog.tape.constant(0.0)
    l_reg = loss_reg_t(prog)
    total = ad.add(ad.add(l_sdf, l_euc),
                   ad.add(l_smooth * weights.smooth, l_reg * reg_w))
    parts = {
        "sdf": float(l_sdf.value),
        "sdf_euc": float(l_euc.value),
        "smooth": float(l_smooth.value),
        "reg": float(l_reg.value),
    }
    return total, parts


def _inte_node(prog: FieldProgram, pts: np.ndarray, targets: np.ndarray,
               smooth_w: float, reg_w: float) -> tuple[Var, dict[str, float]]:
    """loss_inte_t at N > 1 as one tape node over (f_all, u2, offsets), the
    stacked pass's decoded rows and domain quadratic and the offsets.

    It computes what the chain of the blend's tail and the four loss terms
    computes for the total: the blend weights (field.blend_weights, run on
    a tape of constants), |f - t| of the p, q and nearest rows, |f_p -
    f_q|, |offsets|, their means, and total = (sdf + sdf_euc) + (smooth *
    smooth_w + reg * reg_w), each with that chain's numpy expression; it
    skips what no term reads (exp(-u2), the g_p/g_q rows and the blended
    sdf). It notes the chain's branch tokens in its order: the signs of
    f_p - t, f_q - t, f_k - t, f_p - f_q and the offsets.

    Its VJP computes the arrays the chain's VJPs compute and sums each
    slot in the order backward visits the chain: f_p takes the smooth term
    then the sdf term, f_all the f_k scatter, then the f_q rows, then the
    f_p rows, and u2 the u_q rows then the u_p rows. So the total, the
    parts and every gradient equal the chain's bit for bit."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(targets, dtype=np.float64)
    n = len(pts)
    (_, _, fallback, _), f_all, u2, k_row = prog.stacked(pts, with_nearest=True)
    offsets = prog.leaves["offsets"]
    fv, uv, ov = f_all.value, u2.value, offsets.value
    f_p, f_q = fv[:n], fv[n:2 * n]
    const = Tape()
    s_p, s_q, a_p, a_q = (w.value for w in blend_weights(
        const.constant(uv[:n]), const.constant(uv[n:]), fallback))
    diffs = (f_p - t, f_q - t, np.take(fv, k_row) - t, f_p - f_q, ov)
    signs = [np.sign(d) for d in diffs]
    if prog.tape.record_branches:
        for sign in signs:
            prog.tape.note_branch(np.asarray(sign, dtype=np.int8))
    r_p, r_q, r_k, r_pq, r_o = (np.abs(d) for d in diffs)
    inv_n, inv_bases = 1.0 / n, 1.0 / prog.field.n_bases
    smooth_w, reg_w = float(smooth_w), float(reg_w)
    l_sdf = np.sum(a_p * r_p + a_q * r_q) * inv_n
    l_euc = np.sum(r_k) * inv_n
    l_smooth = np.sum(r_pq) * inv_n
    l_reg = np.sum(r_o) * inv_bases
    total = (l_sdf + l_euc) + (l_smooth * smooth_w + l_reg * reg_w)
    parts = {"sdf": float(l_sdf), "sdf_euc": float(l_euc),
             "smooth": float(l_smooth), "reg": float(l_reg)}
    operands = (f_all, u2, offsets)
    need = [ad._reached(v) for v in operands]
    if not any(need):
        return Var(prog.tape, total), parts
    not_fallback, m = ~fallback, len(fv)

    # the closure holds arrays only (see ad.mlp)
    def backprop(g):
        c = g * inv_n  # the cotangent of each row of the sdf and nearest terms
        c_smooth, c_reg = (g * smooth_w) * inv_n, (g * reg_w) * inv_bases
        grads = [None] * 3
        if need[0]:
            g_pq = c_smooth * signs[3]
            g_p = g_pq + (c * a_p) * signs[0]
            g_q = -g_pq + (c * a_q) * signs[1]
            # bincount sums start at +0.0, so no row of the scatter is -0.0
            # and adding the zero rows of the two row slices changes no bit
            grads[0] = ad._scatter_add(c * signs[2], k_row, m)
            grads[0][n:2 * n] += g_q
            grads[0][:n] += g_p
        if need[1]:
            g_sp = (c * r_p) * not_fallback
            g_sq = (c * r_q) * not_fallback
            g_gap = ((g_sq * s_q) * (1.0 - s_q)) * -1.0 + (g_sp * s_p) * (1.0 - s_p)
            grads[1] = np.concatenate([-g_gap, g_gap])
            grads[1] += 0.0  # the other row slice's zeros: -0.0 to +0.0
        if need[2]:
            grads[2] = c_reg * signs[4]
        return grads

    return ad._record(prog.tape, total, [(v, lambda r, k=k: r[k])
                                         for k, v in enumerate(operands)],
                      pre=backprop), parts


def loss_face_t(prog: FieldProgram, pts: np.ndarray, eps: float,
                convention: str = "outside") -> Var:
    """Squared hinge keeping |sdf| within eps on surface points."""
    s = prog.blend(pts).sdf
    t = ad.sub(ad.absolute(s), eps)
    h = ad.maximum(t, 0.0) if convention == "outside" else ad.minimum(t, 0.0)
    return ad.vmean(ad.mul(h, h))


def loss_pos_t(prog: FieldProgram, pts: np.ndarray, eps: float,
               convention: str = "outside") -> Var:
    """Squared hinge keeping sdf positive (with margin) on free-space points."""
    s = prog.blend(pts).sdf
    if convention == "outside":
        h = ad.maximum(ad.sub(eps, s), 0.0)
    else:
        h = ad.minimum(ad.sub(ad.neg(s), eps), 0.0)
    return ad.vmean(ad.mul(h, h))


ADJ_EXPONENT_FLOOR = 600.0
"""Adjacency rows whose weight exponent ``sharp_surface·m² +
sharp_balance·dg²`` exceeds this floor add exactly 0.0 to `loss_adj_t`
and send it exactly zero gradient.

The floor is far below one ulp of any loss sum it could change: a dropped
row's term is ``w·diff²`` with ``w < e^-600 ≈ 2.7e-261`` (``diff`` is a
difference of two sdf values, of order 1), and a float64 sum moves only
for an addend above half an ulp, about ``1.1e-16`` of the sum. So no sum
above about ``1e-244`` changes; only when every row is dropped does a loss
of about 1e-261 read 0.0 instead. The floor is also far above the smallest
normal float64, 2.2e-308: a kept row's weight is at least ``e^-600``, and
its gradient chain (the ``1/n`` of the mean, ``diff``, ``m``, the decoder
weights) scales that by factors nowhere near ``1e-47``. Without the floor
those rows' gradients fall into the subnormal range, where every
multiply-add of the decoder VJP GEMMs takes a slow path: on the bench
checkpoint about a third of the rows, at about 4.5× the cost per row of the
other blends' GEMMs.

Pre-filter: the balance part ``sharp_balance·(g_p − g_q)²`` alone is known
from top-2 selection, before any decoder row runs, and ``sharp_surface·m²``
is never negative, so a point whose balance part exceeds the floor is
dropped without being blended. Selection computes the weights with
`rbf_matrix`, the tape with `domain_quadratic`, which round differently; so
the pre-filter drops a point only above the floor plus
ADJ_PREFILTER_SLACK and leaves the points near the floor to the tape's own
test. A point whose balance part is not finite (a NaN weight from
non-finite domain parameters) is always blended, so its NaN reaches the
loss. A non-finite decoder value at a point whose balance part clears the
floor by the slack no longer does: blended, its term ``e^-600·inf`` would
be inf or NaN, which the tape's test keeps, but the point is never
decoded. Only the other terms of `loss_opt_t`, which decode the same
decoder at their own points, can then stop the optimizer on it."""

ADJ_PREFILTER_SLACK = 1.0
"""Margin of the adjacency pre-filter over ADJ_EXPONENT_FLOOR. The two
evaluations of a selected weight ``g = e^-u`` differ by the rounding of
``u = ||A (x − c)||²``, at most a few ulps of ``|A|·(|x| + |c|)`` in each
component of ``A (x − c)``, so by ``δg ≲ 1e-14·s`` for a domain scale
``s`` and coordinates of order 1 (``g·||A (x − c)|| ≤ 0.43``). Then the two
balance parts, ``b·dg²`` with ``|dg| ≤ 1``, differ by at most
``2·b·δdg ≲ 5e-14·b·s``: under 1e-7 at the default ``b = 1000`` and
scales up to 1000, and under the slack while ``b·s`` stays below 1e13.
Measured: at most 1e-12 on the adjacency points of the bench checkpoint
and on random fields with scales up to 1161."""


def loss_adj_t(prog: FieldProgram, pts: np.ndarray, weights: LossWeights) -> Var:
    """Weighted agreement of adjacent bases, sharpest near the surface and
    where the two domain weights are balanced.

    Rows whose weight is below ``e^-ADJ_EXPONENT_FLOOR`` are left out: their
    term and gradient are exactly 0.0, a contribution below any float64 sum
    it could change, and left in they would drive the backward pass into
    subnormal arithmetic. Points whose balance part alone clears the floor
    by ADJ_PREFILTER_SLACK are dropped before they are blended, when that
    saves a whole ad.ROW_BLOCK (see ADJ_EXPONENT_FLOOR for what it means
    for non-finite values); the others are blended in whole blocks, padded
    with copies of the last, as `sdf_batch_diag` pads, so each gets the
    bits it gets in a blend of every point when n is a whole number of
    blocks (at other n, a blend of every point may round its trailing rows
    otherwise; see ad.mlp). Their terms go back into n zero slots, so the
    mean adds the same n values in the same order."""
    if prog.field.n_bases == 1:
        return prog.tape.constant(0.0)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    top2 = prog.select(pts)
    balance = weights.adj_sharp_balance * (top2.g_p - top2.g_q) ** 2
    kept = np.flatnonzero(~(np.isfinite(balance) & (
        balance > ADJ_EXPONENT_FLOOR + ADJ_PREFILTER_SLACK)))
    pad = -len(kept) % ad.ROW_BLOCK
    if len(kept) + pad >= n:  # no whole block to save
        kept, pad = np.arange(n), 0
    prog.tape.note_branch(kept)
    if not len(kept):
        return prog.tape.constant(0.0)
    rows = np.concatenate([kept, np.repeat(kept[-1:], pad)])
    blend = prog.blend(pts[rows], top2=tuple(None if a is None else a[rows]
                                             for a in top2))
    diff = ad.sub(blend.f_p, blend.f_q)
    m = ad.minimum(ad.absolute(blend.f_p), ad.absolute(blend.f_q))
    e1 = ad.neg(ad.mul(m, m) * weights.adj_sharp_surface)
    dg = ad.sub(blend.g_p, blend.g_q)
    e2 = ad.neg(ad.mul(dg, dg) * weights.adj_sharp_balance)
    term = ad.mul(ad.mul(ad.exp(e1), ad.exp(e2)), ad.mul(diff, diff))
    drop = (e1.value + e2.value < -ADJ_EXPONENT_FLOOR) & np.isfinite(term.value)
    terms = ad.rows(ad.where(~drop, term, 0.0), 0, len(kept))
    return ad.vmean(ad.scatter_rows(terms, kept, n))


def loss_stable_t(prog: FieldProgram, anchor: Anchor) -> Var:
    """Mean squared drift of centers and latents from their anchors."""
    anchor.check_matches(prog.field)
    dc = ad.sub(prog.leaves["centers"], anchor.centers)
    dz = ad.sub(prog.leaves["latents"], anchor.latents)
    n = prog.field.n_bases
    return (ad.vsum(ad.mul(dc, dc)) + ad.vsum(ad.mul(dz, dz))) * (1.0 / n)


def loss_opt_t(prog: FieldProgram, inputs: RefineInputs, weights: LossWeights,
               anchor: Anchor) -> tuple[Var, dict[str, float]]:
    """Refinement objective: surface + free-space hinges, adjacency
    agreement, and drift control."""
    conv = weights.hinge_convention
    l_face = loss_face_t(prog, inputs.surface.points, weights.hinge_eps, conv)
    l_pos = loss_pos_t(prog, inputs.positive.points, weights.hinge_eps, conv)
    l_adj = loss_adj_t(prog, inputs.adjacency.points, weights)
    l_stable = loss_stable_t(prog, anchor)
    total = ad.add(ad.add(l_face * weights.face, l_pos * weights.pos),
                   ad.add(l_adj * weights.adj, l_stable * weights.stable))
    parts = {
        "face": float(l_face.value),
        "pos": float(l_pos.value),
        "adj": float(l_adj.value),
        "stable": float(l_stable.value),
    }
    return total, parts


# ---------------------------------------------------------------------------
# Float wrappers (documented operation signatures)


def loss_sdf(field: BasisField, samples: SampleSet) -> float:
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    return float(loss_sdf_t(FieldProgram.constant(field), samples.points,
                            samples.targets).value)


def loss_smooth(field: BasisField, samples: SampleSet) -> float:
    return float(loss_smooth_t(FieldProgram.constant(field), samples.points).value)


def loss_sdf_euc(field: BasisField, samples: SampleSet) -> float:
    return float(loss_sdf_euc_t(FieldProgram.constant(field), samples.points,
                                samples.targets).value)


def loss_reg(field: BasisField) -> float:
    return float(loss_reg_t(FieldProgram.constant(field)).value)


def loss_inte(field: BasisField, samples: SampleSet, weights: LossWeights,
              epoch: int) -> float:
    total, _ = loss_inte_t(FieldProgram.constant(field), samples.points,
                           samples.targets, weights, epoch)
    return float(total.value)


def loss_face(field: BasisField, surface_pts: PointCloud, eps: float,
              convention: str = "outside") -> float:
    return float(loss_face_t(FieldProgram.constant(field), surface_pts.points, eps,
                             convention).value)


def loss_pos(field: BasisField, pos_pts: PointCloud, eps: float,
             convention: str = "outside") -> float:
    return float(loss_pos_t(FieldProgram.constant(field), pos_pts.points, eps,
                            convention).value)


def loss_adj(field: BasisField, samples: PointCloud,
             weights: LossWeights | None = None) -> float:
    weights = weights or LossWeights()
    return float(loss_adj_t(FieldProgram.constant(field), samples.points,
                            weights).value)


def loss_stable(field: BasisField, anchor: Anchor) -> float:
    return float(loss_stable_t(FieldProgram.constant(field), anchor).value)


def loss_opt(field: BasisField, inputs: RefineInputs, weights: LossWeights,
             anchor: Anchor) -> float:
    total, _ = loss_opt_t(FieldProgram.constant(field), inputs, weights, anchor)
    return float(total.value)


def loss_chamfer(a: PointCloud, b: PointCloud) -> float:
    """Two-sided mean of unsquared nearest-neighbor distances."""
    d_ab, d_ba = nearest_distances(a, b)
    return float(d_ab.mean() + d_ba.mean())
