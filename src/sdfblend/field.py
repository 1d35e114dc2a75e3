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
        prog = FieldProgram.constant(self)
        tape = prog.tape
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
    prog = FieldProgram.constant(field)
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

    @classmethod
    def constant(cls, field: BasisField) -> "FieldProgram":
        """The program of `field` on a new tape with every parameter a
        constant: values only, no gradient closures or branch tokens."""
        tape = Tape()
        return cls(tape, field.to_params().leaves(tape, trainable=set()), field)

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
