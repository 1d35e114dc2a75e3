"""Adaptive local basis representation: anisotropic RBF domains, a shared
MLP decoder, top-2 blending, and domain-based downsampling.

A field is a set of local bases. Basis ``i`` has a center, a latent code,
a log-scale vector, a 6-number rotation parameterization and a center
offset. Its domain weight at query point ``x`` is::

    g_i(x) = exp(-|| A_i (x - c_i) ||^2),   A_i = diag(exp(log_scale_i)) @ R_i

where ``c_i = center_i + offset_i`` is the effective center (the offset
shifts both the domain and the decoder input). The field value at ``x``
blends the two bases with the largest ``g``::

    sdf(x) = a_p f_p(x) + a_q f_q(x),   a_i = g_i / (g_p + g_q)

with ``f_i(x)`` the shared decoder applied to ``concat(x - c_i, latent_i)``.
If ``g_p + g_q`` underflows to zero the evaluation falls back to the basis
whose effective center is Euclidean-nearest (weight 1) and counts the event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamVector, Tape, Var
from .errors import (CheckpointError, FieldError, check_array, check_document,
                     check_json, check_number, read_json)

CHECKPOINT_SCHEMA_VERSION = 1

# Surfacing / evaluation domain used when a field must declare bounds.
DEFAULT_FIELD_BOUNDS = (np.full(3, -0.55), np.full(3, 0.55))

# Inference block sizing (BasisField.inference_block): a decoder activation
# of about a core's L2 cache, 2048 points at width 48; never below one
# ad.ROW_BLOCK, where per-block tape overhead would dominate.
INFERENCE_BLOCK_BYTES = 3 * 2 ** 19  # 1.5 MiB

# Sign certificates (BasisField.box_signs): boxes per candidate pass, and the
# domain quadratic above which exp(-u) may leave the normal float64 range, so
# selection may fall back to any basis.
CERTIFY_BOX_CHUNK = 2048
CERTIFY_U_CAP = 700.0


# ---------------------------------------------------------------------------
# Rotations


def rotation_from_6d(r_raw: np.ndarray) -> np.ndarray:
    """Gram-Schmidt a 6-vector into a proper rotation matrix.

    Columns are (b1, b2, b1 x b2) with b1 the normalized first 3-vector and
    b2 the normalized rejection of the second. Raises FieldError on
    degenerate input (norms below 1e-12).
    """
    R = rotations_from_6d(np.asarray(r_raw, dtype=np.float64).reshape(1, 6))
    return R[0]


def rotations_from_6d(r_raw: np.ndarray) -> np.ndarray:
    """Vectorized rotation_from_6d over an (N, 6) stack; errors name the row."""
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


IDENTITY_ROT6 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Data types


@dataclass
class LocalBasis:
    """One local basis: center, latent code, raw domain parameters, offset."""

    center: np.ndarray
    latent: np.ndarray
    log_scale: np.ndarray
    rot6: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.latent = np.asarray(self.latent, dtype=np.float64).reshape(-1)
        self.log_scale = np.asarray(self.log_scale, dtype=np.float64).reshape(3)
        self.rot6 = np.asarray(self.rot6, dtype=np.float64).reshape(6)
        self.offset = np.asarray(self.offset, dtype=np.float64).reshape(3)
        for name in ("center", "latent", "log_scale", "rot6", "offset"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise FieldError(f"basis {name} contains non-finite values")

    @property
    def effective_center(self) -> np.ndarray:
        return self.center + self.offset


class Top2(tuple):
    """Top-2 selection of a batch of points: unpacks as (p, q, fallback,
    nearest), and carries the selected domain weights g_p = g_p(x) and
    g_q = g_q(x) as rbf_matrix computes them, both 0 on fallback rows (None
    for a single-basis field, which computes no weight)."""

    def __new__(cls, p, q, fallback, nearest, g_p=None, g_q=None):
        top2 = super().__new__(cls, (p, q, fallback, nearest))
        top2.g_p, top2.g_q = g_p, g_q
        return top2


class Decoder:
    """Shared MLP: input concat(x - center, latent) -> one scalar distance.

    Hidden activation is ReLU, output is linear. `skip_at` lists hidden
    layers whose input is re-concatenated with the original input (the
    deep-SDF style skip), e.g. skip_at=(4,) for the 8x512 configuration.
    """

    def __init__(self, d_z: int, widths: tuple[int, ...] = (128, 128, 128, 128),
                 skip_at: tuple[int, ...] = (),
                 weights: list[np.ndarray] | None = None,
                 biases: list[np.ndarray] | None = None):
        self.d_z = int(d_z)
        self.widths = tuple(int(w) for w in widths)
        self.skip_at = tuple(int(i) for i in skip_at)
        self.in_dim = 3 + self.d_z
        self.layer_in, self.layer_out = self.layer_shapes(self.d_z, self.widths,
                                                          self.skip_at)
        if weights is None:
            self.weights = [np.zeros((i, o)) for i, o in zip(self.layer_in, self.layer_out)]
            self.biases = [np.zeros(o) for o in self.layer_out]
        else:
            self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
            self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
            if not len(self.weights) == len(self.biases) == len(self.layer_in):
                raise FieldError(
                    f"decoder needs {len(self.layer_in)} layers, got "
                    f"{len(self.weights)} weights and {len(self.biases)} biases"
                )
            for w, b, i, o in zip(self.weights, self.biases, self.layer_in, self.layer_out):
                if w.shape != (i, o) or b.shape != (o,):
                    raise FieldError(
                        f"decoder layer shape mismatch: got {w.shape}/{b.shape}, "
                        f"expected {(i, o)}/{(o,)}"
                    )

    @staticmethod
    def layer_shapes(d_z: int, widths: tuple[int, ...], skip_at: tuple[int, ...]
                     ) -> tuple[list[int], list[int]]:
        """Input and output width of every layer, without allocating them."""
        in_dim = 3 + d_z
        dims = [in_dim, *widths, 1]
        return ([dims[i] + (in_dim if i in skip_at else 0)
                 for i in range(len(dims) - 1)], dims[1:])

    @classmethod
    def init(cls, d_z: int, widths=(128, 128, 128, 128), skip_at=(),
             rng: np.random.Generator | None = None) -> "Decoder":
        """Kaiming-scaled random weights, zero biases."""
        rng = rng or np.random.default_rng(0)
        dec = cls(d_z, widths, skip_at)
        n_layers = len(dec.layer_in)
        for i, (fan_in, fan_out) in enumerate(zip(dec.layer_in, dec.layer_out)):
            scale = np.sqrt(2.0 / fan_in) if i < n_layers - 1 else np.sqrt(1.0 / fan_in)
            dec.weights[i] = rng.normal(0.0, scale, size=(fan_in, fan_out))
            dec.biases[i] = np.zeros(fan_out)
        return dec

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Decoder":
        return Decoder(self.d_z, self.widths, self.skip_at,
                       [w.copy() for w in self.weights],
                       [b.copy() for b in self.biases])


DOMAIN_PARAM_NAMES = ("centers", "latents", "log_scales", "rot6s", "offsets")


class BasisField:
    """A set of local bases plus one shared decoder; the complete shape."""

    def __init__(self, centers, latents, log_scales, rot6s, offsets,
                 decoder: Decoder):
        self.centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        n = self.centers.shape[0]
        if n < 1:
            raise FieldError("a field needs at least one basis")
        self.latents = np.asarray(latents, dtype=np.float64).reshape(n, -1)
        self.log_scales = np.asarray(log_scales, dtype=np.float64).reshape(n, 3)
        self.rot6s = np.asarray(rot6s, dtype=np.float64).reshape(n, 6)
        self.offsets = np.asarray(offsets, dtype=np.float64).reshape(n, 3)
        if self.latents.shape[1] != decoder.d_z:
            raise FieldError(
                f"latent width {self.latents.shape[1]} != decoder d_z {decoder.d_z}"
            )
        self.decoder = decoder

    # -- structure ---------------------------------------------------------

    @property
    def n_bases(self) -> int:
        return self.centers.shape[0]

    @property
    def d_z(self) -> int:
        return self.latents.shape[1]

    def basis(self, i: int) -> LocalBasis:
        return LocalBasis(self.centers[i], self.latents[i], self.log_scales[i],
                          self.rot6s[i], self.offsets[i])

    @property
    def effective_centers(self) -> np.ndarray:
        return self.centers + self.offsets

    def take(self, indices) -> "BasisField":
        """Sub-field with the given bases, decoder shared."""
        idx = np.asarray(indices, dtype=np.int64)
        return BasisField(self.centers[idx], self.latents[idx],
                         self.log_scales[idx], self.rot6s[idx],
                         self.offsets[idx], self.decoder)

    def copy(self) -> "BasisField":
        return BasisField(self.centers.copy(), self.latents.copy(),
                          self.log_scales.copy(), self.rot6s.copy(),
                          self.offsets.copy(), self.decoder.copy())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (DEFAULT_FIELD_BOUNDS[0].copy(), DEFAULT_FIELD_BOUNDS[1].copy())

    # -- parameter vector ----------------------------------------------------

    def to_params(self) -> ParamVector:
        arrays = {
            "centers": self.centers, "latents": self.latents,
            "log_scales": self.log_scales, "rot6s": self.rot6s,
            "offsets": self.offsets,
        }
        for i, (w, b) in enumerate(zip(self.decoder.weights, self.decoder.biases)):
            arrays[f"dec_w{i}"] = w
            arrays[f"dec_b{i}"] = b
        return ParamVector.from_arrays(arrays)

    def with_params(self, pv: ParamVector) -> "BasisField":
        dec = Decoder(self.decoder.d_z, self.decoder.widths, self.decoder.skip_at,
                      [pv.view(f"dec_w{i}").copy() for i in range(self.decoder.n_layers)],
                      [pv.view(f"dec_b{i}").copy() for i in range(self.decoder.n_layers)])
        return BasisField(pv.view("centers").copy(), pv.view("latents").copy(),
                          pv.view("log_scales").copy(), pv.view("rot6s").copy(),
                          pv.view("offsets").copy(), dec)

    # -- evaluation ----------------------------------------------------------

    def _domain_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked A_i rows as one (3, 3N) matrix plus A_i c_i offsets (N, 3).

        With these, ||A_i (x - c_i)||^2 for every basis is one dgemm:
        (X @ A_stack).reshape(B, N, 3) minus the offsets.
        """
        R = rotations_from_6d(self.rot6s)
        A = np.exp(self.log_scales)[:, :, None] * R  # (N, 3, 3)
        # a_stack[j, 3n+i] = A[n, i, j] so that X @ a_stack applies every A_n
        a_stack = A.transpose(2, 0, 1).reshape(3, -1)
        c_mapped = np.einsum("nij,nj->ni", A, self.effective_centers)
        return a_stack, c_mapped

    def rbf_matrix(self, pts: np.ndarray, maps=None) -> np.ndarray:
        """All domain weights out[b, i] = g_i(pts[b]), (B, N); `maps`: _domain_maps()."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        a_stack, c_mapped = self._domain_maps() if maps is None else maps
        w = (pts @ a_stack).reshape(len(pts), self.n_bases, 3)
        w -= c_mapped[None, :, :]
        w *= w
        u = _sum3(w)
        return np.exp(np.negative(u, out=u), out=u)

    def nearest_center_index(self, pts: np.ndarray) -> np.ndarray:
        """Index of the Euclidean-nearest effective center per point."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        c = self.effective_centers
        d2 = pts @ (-2.0 * c.T)
        d2 += np.sum(c * c, axis=1)[None, :]
        d2 += _sum3(pts * pts)[:, None]
        return np.argmin(d2, axis=1)

    def select_top2_nearest(self, pts: np.ndarray, maps=None) -> Top2:
        """Top-2 basis indices per point, the underflow-fallback mask and the
        Euclidean-nearest basis index, unpacked as a 4-tuple (see Top2, which
        also carries the two selected domain weights); `maps` as in
        rbf_matrix.

        Ties break to the lower index. For N == 1 every slot is 0. On
        fallback rows (g_p + g_q underflowed to zero) both top-2 slots hold
        the Euclidean-nearest basis.
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        n_pts = len(pts)
        if self.n_bases == 1:
            zeros = np.zeros(n_pts, dtype=np.int64)
            return Top2(zeros, zeros.copy(), np.zeros(n_pts, dtype=bool),
                        zeros.copy())
        g = self.rbf_matrix(pts, maps)
        nearest = self.nearest_center_index(pts).astype(np.int64)
        p = np.argmax(g, axis=1)
        rows = np.arange(n_pts)
        gp = g[rows, p]
        g[rows, p] = -np.inf  # g is scratch from here on
        q = np.argmax(g, axis=1)
        gq = g[rows, q]  # true second-max: q != p, all other entries >= 0
        fallback = (gp + gq) == 0.0
        if fallback.any():
            p = p.copy()
            p[fallback] = nearest[fallback]
            q[fallback] = nearest[fallback]
        return Top2(p.astype(np.int64), q.astype(np.int64), fallback, nearest,
                    gp, gq)

    def inference_block(self) -> int:
        """Points per inference block: one decoder activation (two blend
        rows per point, widest layer, float64) stays near INFERENCE_BLOCK_BYTES,
        so each block's activations are reused from cache, not memory.

        A multiple of ad.ROW_BLOCK: only whole row blocks give every point
        the value it gets in any other whole block."""
        widest = max(self.decoder.layer_in + self.decoder.layer_out)
        block = INFERENCE_BLOCK_BYTES // (2 * widest * 8)
        return max(ad.ROW_BLOCK, block - block % ad.ROW_BLOCK)

    def sdf_batch_diag(self, pts: np.ndarray) -> tuple[np.ndarray, int]:
        """Blended signed distance for (B, 3) points plus fallback count.

        Evaluates the blend on one tape of constants, which keeps no
        gradient closures, `inference_block()` points at a time (sized to
        stay in cache), cutting the tape back to its per-field nodes after
        each block. The last block is padded with copies of its last point
        to whole ad.ROW_BLOCKs, so every point gets the value it gets in
        any other call, bit for bit (see inference_block).
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        chunk = self.inference_block()
        out = np.empty(len(pts))
        n_fallback = 0
        tape = Tape()
        prog = FieldProgram(tape, self.to_params().leaves(tape, trainable=set()), self)
        mark = len(tape.nodes)
        for lo in range(0, len(pts), chunk):
            block = pts[lo:lo + chunk]
            m = len(block)
            if lo + chunk >= len(pts):
                pad = -m % ad.ROW_BLOCK
                block = np.concatenate([block, np.repeat(block[-1:], pad, axis=0)])
            res = prog.blend(block)
            out[lo:lo + m] = res.sdf.value[:m]
            n_fallback += int(np.count_nonzero(res.fallback[:m]))
            tape.truncate(mark)
        return out, n_fallback

    def sdf_batch(self, pts: np.ndarray) -> np.ndarray:
        """Blended signed distance for (B, 3) points.

        Inference runs on a tape of constants in cache-sized blocks of points;
        see sdf_batch_diag.
        """
        return self.sdf_batch_diag(pts)[0]

    # alias used by metric/surfacing code that accepts scene or field
    def sdf(self, pts: np.ndarray) -> np.ndarray:
        return self.sdf_batch(pts)

    def box_signs(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Certified sign of the field over K closed boxes [lo[k], hi[k]].

        Returns int8 (K,): +1 where `sdf_batch` gives a finite value >= 0 at
        every point of the box, -1 where it gives a finite value < 0, and 0
        where neither is proven.

        Candidates: A_i (x - c_i) is affine, so each component has an exact
        interval over a box, and ||A_i (x - c_i)||^2 lies in [u_min_i,
        u_max_i]. Two bases have u <= the second-smallest u_max everywhere
        in the box, so a basis with a larger u_min is never in the top 2.
        Past CERTIFY_U_CAP the weights exp(-u) may be subnormal or zero and
        selection may fall back to any basis, so every basis is a candidate.
        The intervals are widened by the rounding of the evaluated A x - A c
        and of the sum of squares, and by 1e-12 so that a gap in u is a
        strict gap in the evaluated exp(-u).

        Decoder bounds: lower and upper affine forms in the box coordinates
        go through every layer for each (box, candidate) pair; layer 1 is
        exact, a ReLU whose input interval [l, u] contains 0 takes the chord
        u/(u-l) (U - l) as its upper form and L (if u > -l) or 0 as its
        lower form, and skip layers concatenate the input form. A pair whose
        bound is finite but clears neither the margin nor minus the margin
        is then bounded again by back-substitution: the output row +-W_L
        goes back through the same relaxations (the chord from above, z or
        0 from below, chosen by the sign of each coefficient), each skip
        layer adds its input slice to the input coefficients, and the
        result over t in [-1, 1]^3 is intersected with the forward bound.

        Sign: sdf = a_p f_p + a_q f_q with a_p, a_q >= 0 and one of them
        >= 1/2 (one basis at weight 1 on fallback rows), so if every
        candidate's f lies above a margin the evaluated sdf is >= 0, and if
        every one lies below minus the margin it is < 0, whichever two are
        selected. The margin covers float64 rounding in the bound passes
        and in the evaluated decoder. Let S be the decoder run on
        |x - c_i| (bounded over all K boxes) and |z_i| with |W| and |b|.
        Every value, form coefficient sum and interval end of layer k is at
        most 2^k S_k in magnitude (a chord adds at most |l| to |U|), each
        matmul adds a rounding error of at most gamma_n times that
        magnitude (gamma_n = n eps / (1 - n eps), n = fan-in + 5, any BLAS
        order or FMA), and errors grow at most twofold per layer through a
        chord, so the forward pass and the evaluated decoder err by less
        than 4^(L+1) gamma_n S_out for L layers, and each interval end of
        hidden layer k by less than delta_k = 4^(k+1) gamma_n S_k; this
        holds for any weight scale, since S scales with the weights.

        Back-substitution, with the same margin. (a) Rounded [l, u]: the
        relaxations come from the computed ends of hidden layer k, which the
        exact pre-activation z passes by at most delta_k (which also covers
        the rounding of s and s min(l, 0), a few eps times
        |l| + |u| <= 2^(k+1) S_k). The lower relaxations z and 0 hold
        for every z. The upper chord s (z - l), 0 <= s <= 1, lies above
        ReLU on [l, u] and at most delta_k below it within delta_k of
        [l, u] (its slope differs from ReLU's by at most 1); a neuron taken
        as stable (s = 1 from l >= 0, s = 0 from u <= 0) that is not falls
        short by at most delta_k the same way. Every slope lies in [0, 1],
        so |lambda_k| <= |W_L| ... |W_k+1| and the shortfalls cost at most
        sum_k |lambda_k| delta_k <= sum_k 4^(k+1) gamma_n S_out
        < 4^L gamma_n S_out / 3. (b) Rounded backward arithmetic: a
        computed row mu = W lambda + e, |e| <= gamma_n |W| |lambda|, is used
        as if exact, which moves the bound by e h, at most gamma_n S_out
        since |h| <= S at every point of the box; the bias dot, the
        chord-drop sum (|s min(l, 0)| <= 2^k S_k) and the slope products
        add at most (2 + 2^k) gamma_n S_out more at layer k, and the
        concretisation 2 gamma_n S_out, so (3 L + 2^L + 1) gamma_n S_out in
        all. With the evaluated decoder's L (1 + gamma_n)^L gamma_n S_out
        the total stays below (4^L / 3 + 2^L + 5 L + 1) gamma_n S_out,
        which is less than 4^(L+1) gamma_n S_out for every L >= 1.

        A NaN anywhere keeps a basis as a candidate, a pair with a
        non-finite forward bound or interval end is never back-substituted,
        and a non-finite bound or margin never certifies.
        """
        lo = np.asarray(lo, dtype=np.float64).reshape(-1, 3)
        hi = np.asarray(hi, dtype=np.float64).reshape(-1, 3)
        out = np.zeros(len(lo), dtype=np.int8)
        if not len(lo):
            return out
        mid = 0.5 * (lo + hi)
        # widened so that mid +- rad covers [lo, hi] despite rounding
        rad = np.maximum(hi - mid, mid - lo) * (1.0 + 2.0 ** -40)
        maps = self._domain_maps() if self.n_bases > 1 else None
        margin = self._decoder_margin(lo.min(axis=0), hi.max(axis=0))
        layers = self._bound_layers()
        # (box, basis) pairs per bound pass: the four [L | U] forms of the
        # widest layer fill about INFERENCE_BLOCK_BYTES, as inference_block
        # sizes points, so each pass works from cache
        widest = max(self.decoder.layer_in + self.decoder.layer_out)
        pair_chunk = max(1, INFERENCE_BLOCK_BYTES // (4 * 2 * widest * 8))
        for k0 in range(0, len(lo), CERTIFY_BOX_CHUNK):
            sl = slice(k0, k0 + CERTIFY_BOX_CHUNK)
            mid_k, rad_k, signs = mid[sl], rad[sl], out[sl]
            box, basis = np.nonzero(self._box_candidates(mid_k, rad_k, maps))
            pos = np.zeros(len(box), dtype=bool)
            neg = np.zeros(len(box), dtype=bool)
            for p0 in range(0, len(box), pair_chunk):
                ps = slice(p0, p0 + pair_chunk)
                m = margin[basis[ps]]
                f_lo, f_hi = self._decoder_bounds(mid_k[box[ps]], rad_k[box[ps]],
                                                  basis[ps], layers, m)
                finite = np.isfinite(f_lo) & np.isfinite(f_hi)
                pos[ps] = finite & (f_lo > m)
                neg[ps] = finite & (f_hi < -m)
            n_cand = np.bincount(box, minlength=len(mid_k))
            signs[np.bincount(box, weights=pos, minlength=len(mid_k)) == n_cand] = 1
            signs[np.bincount(box, weights=neg, minlength=len(mid_k)) == n_cand] = -1
        return out

    def _box_candidates(self, mid: np.ndarray, rad: np.ndarray, maps
                        ) -> np.ndarray:
        """(K, N) mask of the bases that top-2 selection may pick somewhere
        in the boxes mid[k] +- rad[k]; see box_signs."""
        if maps is None:
            return np.ones((len(mid), 1), dtype=bool)
        a_stack, c_mapped = maps
        a_abs = np.abs(a_stack)
        eps = np.finfo(np.float64).eps
        w_mid = (mid @ a_stack).reshape(len(mid), self.n_bases, 3) - c_mapped
        # rounding of the evaluated x @ a_stack - c_mapped and of these sums
        slack = ((np.abs(mid) + rad) @ a_abs).reshape(w_mid.shape) + np.abs(c_mapped)
        w_rad = (rad @ a_abs).reshape(w_mid.shape) + 32 * eps * slack
        w_lo, w_hi = w_mid - w_rad, w_mid + w_rad
        sq_hi = np.maximum(w_lo * w_lo, w_hi * w_hi)
        sq_lo = np.where(w_lo > 0, w_lo * w_lo, np.where(w_hi < 0, w_hi * w_hi, 0.0))
        u_lo = _sum3(sq_lo) * (1.0 - 2.0 ** -48) - 1e-12
        u_hi = _sum3(sq_hi) * (1.0 + 2.0 ** -48) + 1e-12
        second = np.partition(u_hi, 1, axis=1)[:, 1:2]
        return ~(u_lo > second) | (second > CERTIFY_U_CAP)

    def _decoder_margin(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per-basis rounding margin of box_signs over points in [lo, hi]."""
        dec = self.decoder
        c = self.effective_centers
        s_in = np.concatenate([np.maximum(np.abs(lo - c), np.abs(hi - c)),
                               np.abs(self.latents)], axis=1)
        s = s_in
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (w, b) in enumerate(zip(dec.weights, dec.biases)):
                if k in dec.skip_at:
                    s = np.concatenate([s, s_in], axis=1)
                s = s @ np.abs(w) + np.abs(b)
        n_eps = (max(dec.layer_in) + 5) * np.finfo(np.float64).eps
        gamma = n_eps / (1.0 - n_eps)
        return 4.0 ** (dec.n_layers + 1) * gamma * s[:, 0]

    def _bound_layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """([[W+, W-], [W-, W+]], [b, b]) per decoder layer, the `layers`
        of _decoder_bounds."""
        return [(np.block([[np.maximum(w, 0.0), np.minimum(w, 0.0)],
                           [np.minimum(w, 0.0), np.maximum(w, 0.0)]]),
                 np.concatenate([b, b]))
                for w, b in zip(self.decoder.weights, self.decoder.biases)]

    def _decoder_bounds(self, mid: np.ndarray, rad: np.ndarray,
                        basis: np.ndarray, layers, margin: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bound of decoder basis[p] over the box mid[p] +-
        rad[p], from affine forms in t in [-1, 1]^3 (x = mid + rad * t):
        entries 0-2 of a (4, P, width) form hold the t coefficients, entry 3
        the constant. `layers`: _bound_layers(), so one matmul on [L | U]
        gives the next [L | U]. The pairs whose finite bound clears neither
        margin[p] nor -margin[p] are then tightened by _back_substitute
        (margin +inf tightens every finite pair, -inf none)."""
        dec = self.decoder
        n = len(basis)
        x = np.zeros((4, n, dec.in_dim))
        x[(0, 1, 2), :, (0, 1, 2)] = rad.T
        x[3, :, :3] = mid - self.effective_centers[basis]
        x[3, :, 3:] = self.latents[basis]
        lu = np.concatenate([x, x], axis=2)
        relax = []  # per hidden layer: chord slope, chord drop, lower slope
        finite = np.ones(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k, (w2, b2) in enumerate(layers):
                if k in dec.skip_at:
                    half = lu.shape[2] // 2
                    lu = np.concatenate([lu[..., :half], x, lu[..., half:], x],
                                        axis=2)
                lu = (lu.reshape(4 * n, -1) @ w2).reshape(4, n, -1)
                lu[3] += b2
                half = lu.shape[2] // 2
                spread = np.abs(lu[0])
                spread += np.abs(lu[1])
                spread += np.abs(lu[2])
                l = lu[3, :, :half] - spread[:, :half]
                u = lu[3, :, half:] + spread[:, half:]
                if k == dec.n_layers - 1:
                    break
                finite &= np.isfinite(l + u).all(axis=1)
                # ReLU: slope 1 where l >= 0, 0 where u <= 0, else the chord
                # u/(u-l) through (l, 0); a NaN bound stays NaN
                slope = np.clip(u / np.maximum(u - l, np.finfo(np.float64).tiny),
                                0.0, 1.0)
                drop = slope * np.minimum(l, 0.0)
                lu[..., half:] *= slope
                lu[3, :, half:] -= drop
                # L and 0 both bound a ReLU from below; take L where u > -l,
                # the choice of smaller relaxation area
                lower = u > -l
                lu[..., :half] *= lower
                relax.append((slope, drop, lower))
            f_lo, f_hi = l[:, 0], u[:, 0]
            tight = (finite & np.isfinite(f_lo) & np.isfinite(f_hi)
                     & ~(f_lo > margin) & ~(f_hi < -margin))
            if tight.any():
                b_lo, b_hi = self._back_substitute(
                    x[3, tight], rad[tight],
                    [[r[tight] for r in rel] for rel in relax])
                f_lo[tight] = np.maximum(f_lo[tight], b_lo)
                f_hi[tight] = np.minimum(f_hi[tight], b_hi)
        return f_lo, f_hi

    def _back_substitute(self, x_mid: np.ndarray, rad: np.ndarray, relax
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper decoder bound per pair over the inputs x_mid[p] +
        (rad[p] * t, 0), t in [-1, 1]^3, from the output rows +W_L and -W_L
        carried back through the hidden-layer relaxations `relax` of
        _decoder_bounds; see box_signs. Row 0 bounds f from above, row 1
        bounds -f from above."""
        dec = self.decoder
        n = len(x_mid)
        coef = np.repeat([[[1.0]], [[-1.0]]], n, axis=1)
        const = np.zeros((2, n))
        coef_in = np.zeros((2, n, dec.in_dim))
        for k in range(dec.n_layers - 1, -1, -1):
            const += coef @ dec.biases[k]
            coef = (coef.reshape(2 * n, -1) @ dec.weights[k].T).reshape(2, n, -1)
            if k in dec.skip_at:
                coef_in += coef[..., -dec.in_dim:]
                coef = coef[..., :-dec.in_dim]
            if k == 0:
                coef_in += coef
                break
            # the chord bounds a positive coefficient's ReLU from above, the
            # lower slope a negative one's; a NaN coefficient stays NaN
            slope, drop, lower = relax[k - 1]
            up = np.maximum(coef, 0.0)
            down = np.minimum(coef, 0.0)
            const -= np.einsum("ijk,jk->ij", up, drop)
            coef = up * slope + down * lower
        bound = const + np.einsum("ijk,jk->ij", coef_in, x_mid)
        bound += np.einsum("ijk,jk->ij", np.abs(coef_in[..., :3]), rad)
        return -bound[1], bound[0]

    # -- checkpoint I/O --------------------------------------------------------

    def to_json_dict(self) -> dict:
        dec = self.decoder
        return {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "d_z": self.d_z,
            "decoder": {
                "widths": list(dec.widths),
                "skip_at": list(dec.skip_at),
                "weights": [w.ravel().tolist() for w in dec.weights],
                "biases": [b.tolist() for b in dec.biases],
            },
            "bases": [
                {
                    "mu": self.centers[i].tolist(),
                    "z": self.latents[i].tolist(),
                    "s_raw": self.log_scales[i].tolist(),
                    "r_raw": self.rot6s[i].tolist(),
                    "delta": self.offsets[i].tolist(),
                }
                for i in range(self.n_bases)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BasisField":
        """Field from a checkpoint document, validated where it is loaded.

        Raises CheckpointError on an unknown version, an object or list
        where the schema has the other kind or a number, a decoder with the
        wrong number of layers, an array of the wrong shape, or any
        non-finite value.
        """
        check_document(doc, CHECKPOINT_SCHEMA_VERSION, "checkpoint",
                       CheckpointError)
        dd = check_json(doc["decoder"], dict, "checkpoint decoder", CheckpointError)
        for key in ("widths", "skip_at", "weights", "biases"):
            check_json(dd.get(key, []), list, f"checkpoint decoder {key}",
                       CheckpointError)
        # checked before any array of these sizes exists
        d_z = check_number(doc["d_z"], "checkpoint d_z", 0, integer=True,
                           error=CheckpointError)
        widths = tuple(check_number(w, "checkpoint decoder widths entries", 1,
                                    integer=True, error=CheckpointError)
                       for w in dd["widths"])
        skip_at = tuple(check_number(i, "checkpoint decoder skip_at entries", 0,
                                     integer=True, error=CheckpointError)
                        for i in dd.get("skip_at", ()))
        for i in skip_at:  # FitConfig.decoder_skip's rule: names a layer
            if i > len(widths):
                raise CheckpointError(
                    f"checkpoint decoder skip_at entry {i} names no layer "
                    f"(0..{len(widths)})")
        layer_in, layer_out = Decoder.layer_shapes(d_z, widths, skip_at)
        for key in ("weights", "biases"):
            if len(dd[key]) != len(layer_in):
                raise CheckpointError(
                    f"checkpoint decoder has {len(dd[key])} {key} layers, "
                    f"expected {len(layer_in)}"
                )
        weights = [
            check_array(w, (i * o,), f"checkpoint decoder weights[{k}]",
                        CheckpointError).reshape(i, o)
            for k, (w, i, o) in enumerate(zip(dd["weights"], layer_in, layer_out))
        ]
        biases = [
            check_array(b, (o,), f"checkpoint decoder biases[{k}]", CheckpointError)
            for k, (b, o) in enumerate(zip(dd["biases"], layer_out))
        ]
        dec = Decoder(d_z, widths, skip_at, weights, biases)
        bases = check_json(doc["bases"], list, "checkpoint bases", CheckpointError)
        for k, b in enumerate(bases):
            check_json(b, dict, f"checkpoint bases[{k}]", CheckpointError)
        n = len(bases)
        arrays = [
            check_array([b[key] for b in bases], (n, width),
                        f"checkpoint bases {key!r}", CheckpointError)
            for key, width in (("mu", 3), ("z", d_z), ("s_raw", 3),
                               ("r_raw", 6), ("delta", 3))
        ]
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.exp(arrays[2]))):
                raise CheckpointError("checkpoint bases 's_raw' overflows exp: "
                                      "domain scales must be finite")
        return cls(*arrays, dec)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "BasisField":
        return cls.from_json_dict(read_json(path, "checkpoint", CheckpointError))


def _sum3(sq: np.ndarray) -> np.ndarray:
    """sq.sum(axis=-1) over a trailing axis of length 3, as two adds.

    numpy's reduce over so short an axis costs about 8x the adds. It starts
    from +0.0 and adds in order, so the bits are the same wherever the
    summands are >= +0.0 (squares); only there may this replace it: for
    [-0.0, -0.0, -0.0] the adds give -0.0 and the reduce +0.0.
    """
    out = sq[..., 0] + sq[..., 1]
    out += sq[..., 2]
    return out


# ---------------------------------------------------------------------------
# Spec-level single-point operations


def domain_transform(basis: LocalBasis) -> np.ndarray:
    """A = diag(exp(log_scale)) @ R for one basis."""
    return np.diag(np.exp(basis.log_scale)) @ rotation_from_6d(basis.rot6)


def rbf_weight(basis: LocalBasis, x) -> float:
    """exp(-||A (x - effective_center)||^2); equals 1 at the center."""
    d = np.asarray(x, dtype=np.float64).reshape(3) - basis.effective_center
    w = domain_transform(basis) @ d
    return float(np.exp(-np.dot(w, w)))


def top2(field: BasisField, x) -> tuple[int, int]:
    """Indices of the two largest domain weights (ties to lower index)."""
    p, q, _, _ = field.select_top2_nearest(
        np.asarray(x, dtype=np.float64).reshape(1, 3))
    return int(p[0]), int(q[0])


def decoder_eval(field: BasisField, i: int, x) -> float:
    """Local signed distance of basis i at x (decoder sees x - c_i).

    Decodes a whole ad.ROW_BLOCK of copies of x, as sdf_batch pads its
    blocks, so the value has the bits the blend decodes for x."""
    tape = Tape()
    prog = FieldProgram(tape, field.to_params().leaves(tape, trainable=set()), field)
    x = np.repeat(np.asarray(x, dtype=np.float64).reshape(1, 3),
                  ad.ROW_BLOCK, axis=0)
    return float(prog.decode(x, np.full(ad.ROW_BLOCK, i)).value[0])


def sdf_eval(field: BasisField, x) -> float:
    """Blended signed distance at a single point."""
    return float(field.sdf_batch(np.asarray(x, dtype=np.float64).reshape(1, 3))[0])


def domain_downsample(field: BasisField, n_keep: int) -> np.ndarray:
    """Greedy removal of the most-covered bases; returns surviving indices.

    Coverage score s(j) sums the other alive bases' domain weights at
    effective center j. The basis with the highest score is removed and the
    scores of the survivors are decremented incrementally, repeating until
    n_keep remain. Ties break to the lower index; survivors keep their
    original order.
    """
    n = field.n_bases
    if not 1 <= n_keep <= n:
        raise ValueError(f"n_keep={n_keep} out of range for {n} bases")
    if n_keep == n:
        return np.arange(n, dtype=np.int64)
    centers = field.effective_centers
    M = field.rbf_matrix(centers)  # M[j, i] = g_i(c_j)
    s = M.sum(axis=1) - np.diagonal(M)
    alive = np.ones(n, dtype=bool)
    for _ in range(n - n_keep):
        masked = np.where(alive, s, -np.inf)
        k = int(np.argmax(masked))  # ties: lowest index
        alive[k] = False
        s = s - M[:, k]
    return np.flatnonzero(alive).astype(np.int64)


# ---------------------------------------------------------------------------
# Differentiable evaluation


@dataclass
class BlendResult:
    """Tape variables for one batched blend evaluation."""

    sdf: Var
    f_p: Var
    f_q: Var
    g_p: Var
    g_q: Var
    a_p: Var
    a_q: Var
    p: np.ndarray
    q: np.ndarray
    fallback: np.ndarray
    f_k: Var | None  # Euclidean-nearest basis value, with_nearest only


class FieldProgram:
    """Builds the field's forward computation on a tape.

    `leaves` maps parameter names (see BasisField.to_params) to tape
    variables; constants and trainable leaves are both allowed, so the same
    program serves fitting, frozen-parameter refinement and plain inference.
    """

    def __init__(self, tape: Tape, leaves: dict[str, Var], field: BasisField):
        self.tape = tape
        self.leaves = leaves
        self.field = field
        # per-field values, built once per program ahead of any per-point node
        self.eff_centers = ad.add(leaves["centers"], leaves["offsets"])
        self.rot_cols = _rotation_columns(leaves["rot6s"])
        self.scales = ad.exp(leaves["log_scales"])
        self.maps = field._domain_maps() if field.n_bases > 1 else None
        self.n_fallback_total = 0

    def centered(self, pts: np.ndarray, idx: np.ndarray) -> Var:
        """x - c of basis idx[b] at pts[b], (B, 3): the input of both
        decode and domain_quadratic."""
        return ad.sub(self.tape.constant(pts), ad.gather_rows(self.eff_centers, idx))

    def decode(self, pts: np.ndarray, idx: np.ndarray, d: Var | None = None) -> Var:
        """Decoder output of basis idx[b] at pts[b]; shape (B,). `d`:
        centered(pts, idx), if already built. The decoder is one tape node
        (ad.mlp), whose backward pass runs on the rows with a nonzero
        cotangent only when its weights are not trained."""
        d = self.centered(pts, idx) if d is None else d
        z = ad.gather_rows(self.leaves["latents"], idx)
        dec = self.field.decoder
        h = ad.mlp(ad.concat([d, z], axis=1),
                   [self.leaves[f"dec_w{i}"] for i in range(dec.n_layers)],
                   [self.leaves[f"dec_b{i}"] for i in range(dec.n_layers)],
                   dec.skip_at)
        return ad.vsum(h, axis=1)  # (B, 1) -> (B,)

    def domain_quadratic(self, pts: np.ndarray, idx: np.ndarray,
                         d: Var | None = None) -> Var:
        """u = ||A (x - c)||^2 of basis idx[b] at pts[b]; g = exp(-u). `d`
        as in decode."""
        b1, b2, b3 = self.rot_cols
        d = self.centered(pts, idx) if d is None else d
        dx = ad.cols(d, 0, 1)
        dy = ad.cols(d, 1, 2)
        dz = ad.cols(d, 2, 3)
        rd = ad.add(ad.add(ad.mul(dx, ad.gather_rows(b1, idx)),
                           ad.mul(dy, ad.gather_rows(b2, idx))),
                    ad.mul(dz, ad.gather_rows(b3, idx)))
        w = ad.mul(ad.gather_rows(self.scales, idx), rd)
        return ad.vsum(ad.mul(w, w), axis=1)

    def rbf(self, pts: np.ndarray, idx: np.ndarray) -> Var:
        """Domain weight of basis idx[b] at pts[b]; shape (B,)."""
        return ad.exp(ad.neg(self.domain_quadratic(pts, idx)))

    def select(self, pts: np.ndarray, with_nearest: bool = False) -> Top2:
        """Top-2 selection of `pts` for a blend: counts its fallbacks and
        notes p, q, the fallback mask and, `with_nearest`, the nearest basis
        as branch tokens."""
        top2 = self.field.select_top2_nearest(pts, self.maps)
        p, q, fallback, nearest = top2
        self.n_fallback_total += int(fallback.sum())
        self.tape.note_branch(p)
        self.tape.note_branch(q)
        self.tape.note_branch(fallback.astype(np.int8))
        if with_nearest:
            self.tape.note_branch(nearest)
        return top2

    def blend(self, pts: np.ndarray, with_nearest: bool = False,
              top2: tuple | None = None) -> BlendResult:
        """Top-2 blended field value over a batch of points. `with_nearest`
        also gives the Euclidean-nearest basis value (`f_k`) from the same
        stacked decoder pass, which decodes each (point, basis) pair once:
        rows of p, rows of q, then rows of the nearest basis only where it
        is neither p nor q. `top2`: the (p, q, fallback, nearest) of `pts`
        if the caller has already selected them through `select`."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        n = len(pts)
        p, q, fallback, nearest = (self.select(pts, with_nearest)
                                   if top2 is None else top2)
        tape = self.tape
        if self.field.n_bases == 1:
            f_p = self.decode(pts, p)
            g_p = self.rbf(pts, p)
            one = tape.constant(np.ones(n))
            zero = tape.constant(np.zeros(n))
            return BlendResult(sdf=f_p, f_p=f_p, f_q=f_p, g_p=g_p, g_q=g_p,
                               a_p=one, a_q=zero, p=p, q=q, fallback=fallback,
                               f_k=f_p if with_nearest else None)
        # one stacked pass through decoder and domains for all slots
        pts_r, idx_r = np.concatenate([pts, pts]), np.concatenate([p, q])
        if with_nearest:
            extra = np.flatnonzero((nearest != p) & (nearest != q))
            pts_r = np.concatenate([pts_r, pts[extra]])
            idx_r = np.concatenate([idx_r, nearest[extra]])
            k_row = np.where(nearest == p, 0, n) + np.arange(n)
            k_row[extra] = 2 * n + np.arange(len(extra))
        d = self.centered(pts_r, idx_r)
        f_all = self.decode(pts_r, idx_r, d)
        u2 = self.domain_quadratic(pts_r[:2 * n], idx_r[:2 * n],
                                   d if len(idx_r) == 2 * n else ad.rows(d, 0, 2 * n))
        g2 = ad.exp(ad.neg(u2))
        f_p, f_q = ad.rows(f_all, 0, n), ad.rows(f_all, n, 2 * n)
        f_k = ad.gather_rows(f_all, k_row) if with_nearest else None
        g_p, g_q = ad.rows(g2, 0, n), ad.rows(g2, n, 2 * n)
        u_p, u_q = ad.rows(u2, 0, n), ad.rows(u2, n, 2 * n)
        # g_p/(g_p+g_q) computed in log space: stable when both g underflow
        gap = ad.sub(u_q, u_p)
        a_p = ad.where(fallback, 1.0, ad.sigmoid(gap))
        a_q = ad.where(fallback, 0.0, ad.sigmoid(ad.neg(gap)))
        sdf = ad.add(ad.mul(a_p, f_p), ad.mul(a_q, f_q))
        return BlendResult(sdf=sdf, f_p=f_p, f_q=f_q, g_p=g_p, g_q=g_q,
                           a_p=a_p, a_q=a_q, p=p, q=q, fallback=fallback,
                           f_k=f_k)


def _rotation_columns(r: Var) -> tuple[Var, Var, Var]:
    """Rotation columns (N, 3) each of an (N, 6) stack, as rotations_from_6d."""
    a1 = ad.cols(r, 0, 3)
    a2 = ad.cols(r, 3, 6)
    n1 = ad.sqrt(ad.vsum(ad.mul(a1, a1), axis=1, keepdims=True))
    b1 = ad.div(a1, n1)
    proj = ad.vsum(ad.mul(b1, a2), axis=1, keepdims=True)
    res = ad.sub(a2, ad.mul(proj, b1))
    n2 = ad.sqrt(ad.vsum(ad.mul(res, res), axis=1, keepdims=True))
    b2 = ad.div(res, n2)
    return b1, b2, _cross_rows(b1, b2)


def _cross_rows(a: Var, b: Var) -> Var:
    ax, ay, az = (ad.cols(a, i, i + 1) for i in range(3))
    bx, by, bz = (ad.cols(b, i, i + 1) for i in range(3))
    return ad.concat([
        ad.sub(ad.mul(ay, bz), ad.mul(az, by)),
        ad.sub(ad.mul(az, bx), ad.mul(ax, bz)),
        ad.sub(ad.mul(ax, by), ad.mul(ay, bx)),
    ], axis=1)
