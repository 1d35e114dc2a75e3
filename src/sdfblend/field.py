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
from .errors import CheckpointError, FieldError

CHECKPOINT_SCHEMA_VERSION = 1

# Surfacing / evaluation domain used when a field must declare bounds.
DEFAULT_FIELD_BOUNDS = (np.full(3, -0.55), np.full(3, 0.55))

# Inference block sizing (BasisField.inference_block): a decoder activation
# of about a core's L2 cache, 2048 points at width 48; never below the floor,
# where per-block tape overhead would dominate.
INFERENCE_BLOCK_BYTES = 3 * 2 ** 19  # 1.5 MiB
MIN_INFERENCE_BLOCK = 256


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
        dims = [self.in_dim, *self.widths, 1]
        self.layer_in = [
            dims[i] + (self.in_dim if i in self.skip_at else 0)
            for i in range(len(dims) - 1)
        ]
        self.layer_out = dims[1:]
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

    def forward(self, inp: np.ndarray) -> np.ndarray:
        """Plain numpy forward pass over (B, 3 + d_z) inputs."""
        h = inp
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i in self.skip_at:
                h = np.concatenate([h, inp], axis=1)
            h = h @ w + b
            if i < self.n_layers - 1:
                h = np.where(h > 0.0, h, 0.0)
        return h[:, 0]

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

    def rbf_matrix(self, pts: np.ndarray) -> np.ndarray:
        """All domain weights: out[b, i] = g_i(pts[b]). Shape (B, N)."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        a_stack, c_mapped = self._domain_maps()
        w = (pts @ a_stack).reshape(len(pts), self.n_bases, 3)
        w -= c_mapped[None, :, :]
        w *= w
        return np.exp(-w.sum(axis=2))

    def _center_dist2(self, pts: np.ndarray) -> np.ndarray:
        """Squared Euclidean distance to every effective center, shape (B, N)."""
        c = self.effective_centers
        d2 = pts @ (-2.0 * c.T)
        d2 += np.sum(c * c, axis=1)[None, :]
        d2 += np.sum(pts * pts, axis=1)[:, None]
        return d2

    def nearest_center_index(self, pts: np.ndarray) -> np.ndarray:
        """Index of the Euclidean-nearest effective center per point."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        return np.argmin(self._center_dist2(pts), axis=1)

    def select_top2(self, pts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-2 basis indices per point plus the underflow-fallback mask.

        Ties break to the lower index. For N == 1 both slots are 0. On
        fallback rows (g_p + g_q underflowed to zero) both slots hold the
        Euclidean-nearest basis.
        """
        p, q, fallback, _ = self.select_top2_nearest(pts)
        return p, q, fallback

    def select_top2_nearest(self, pts: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
        """select_top2 plus the Euclidean-nearest index, sharing the work."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        n_pts = len(pts)
        if self.n_bases == 1:
            zeros = np.zeros(n_pts, dtype=np.int64)
            return zeros, zeros.copy(), np.zeros(n_pts, dtype=bool), zeros.copy()
        g = self.rbf_matrix(pts)
        nearest = np.argmin(self._center_dist2(pts), axis=1).astype(np.int64)
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
        return p.astype(np.int64), q.astype(np.int64), fallback, nearest

    def inference_block(self) -> int:
        """Points per inference block: one decoder activation (two blend
        rows per point, widest layer, float64) stays near INFERENCE_BLOCK_BYTES,
        so each block's activations are reused from cache, not memory."""
        widest = max(self.decoder.layer_in + self.decoder.layer_out)
        return max(MIN_INFERENCE_BLOCK,
                   INFERENCE_BLOCK_BYTES // (2 * widest * 8))

    def sdf_batch_diag(self, pts: np.ndarray, chunk: int | None = None
                       ) -> tuple[np.ndarray, int]:
        """Blended signed distance for (B, 3) points plus fallback count.

        Evaluates the blend on a no-grad tape, `chunk` points at a time
        (default: `inference_block()`, sized to stay in cache).
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        chunk = self.inference_block() if chunk is None else int(chunk)
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        out = np.empty(len(pts))
        n_fallback = 0
        pv = self.to_params()
        for lo in range(0, len(pts), chunk):
            sl = slice(lo, min(lo + chunk, len(pts)))
            tape = Tape(no_grad=True)
            prog = FieldProgram(tape, pv.leaves(tape, trainable=set()), self)
            blend = prog.blend(pts[sl])
            out[sl] = blend.sdf.value
            n_fallback += blend.n_fallback
        return out, n_fallback

    def sdf_batch(self, pts: np.ndarray, chunk: int | None = None) -> np.ndarray:
        """Blended signed distance for (B, 3) points.

        Inference runs on a no-grad tape in cache-sized blocks of points;
        see sdf_batch_diag.
        """
        return self.sdf_batch_diag(pts, chunk)[0]

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

        Raises CheckpointError on an unknown version, a decoder with the
        wrong number of layers, an array of the wrong shape, or any
        non-finite value.
        """
        version = doc.get("version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version!r}")
        d_z = int(doc["d_z"])
        dd = doc["decoder"]
        dec = Decoder(d_z, tuple(dd["widths"]), tuple(dd.get("skip_at", ())))
        for key in ("weights", "biases"):
            if len(dd[key]) != dec.n_layers:
                raise CheckpointError(
                    f"checkpoint decoder has {len(dd[key])} {key} layers, "
                    f"expected {dec.n_layers}"
                )
        weights = [
            _checkpoint_array(w, (i * o,), f"decoder weights[{k}]").reshape(i, o)
            for k, (w, i, o) in enumerate(zip(dd["weights"], dec.layer_in,
                                              dec.layer_out))
        ]
        biases = [
            _checkpoint_array(b, (o,), f"decoder biases[{k}]")
            for k, (b, o) in enumerate(zip(dd["biases"], dec.layer_out))
        ]
        dec = Decoder(d_z, dec.widths, dec.skip_at, weights, biases)
        bases = doc["bases"]
        n = len(bases)
        arrays = [
            _checkpoint_array([b[key] for b in bases], (n, width), f"bases {key!r}")
            for key, width in (("mu", 3), ("z", d_z), ("s_raw", 3),
                               ("r_raw", 6), ("delta", 3))
        ]
        return cls(*arrays, dec)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "BasisField":
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {e}") from e
        return cls.from_json_dict(doc)


def _checkpoint_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """`value` as a finite float64 array of exactly `shape`, else CheckpointError."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint {what} is not a numeric array: {e}") from e
    if arr.shape != shape:
        raise CheckpointError(
            f"checkpoint {what} has shape {arr.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"checkpoint {what} holds non-finite values")
    return arr


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
    p, q, _ = field.select_top2(np.asarray(x, dtype=np.float64).reshape(1, 3))
    return int(p[0]), int(q[0])


def decoder_eval(field: BasisField, i: int, x) -> float:
    """Local signed distance of basis i at x (decoder sees x - c_i)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, 3)
    d = x - field.effective_centers[i][None, :]
    inp = np.concatenate([d, field.latents[i][None, :]], axis=1)
    return float(field.decoder.forward(inp)[0])


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
    n_fallback: int


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
        self.eff_centers = ad.add(leaves["centers"], leaves["offsets"])
        self.n_fallback_total = 0
        self._rot_cols: tuple[Var, Var, Var] | None = None
        self._scales: Var | None = None

    def decode(self, pts: np.ndarray, idx: np.ndarray) -> Var:
        """Decoder output of basis idx[b] at pts[b]; shape (B,)."""
        c = ad.gather_rows(self.eff_centers, idx)
        z = ad.gather_rows(self.leaves["latents"], idx)
        d = ad.sub(self.tape.constant(pts), c)
        inp = ad.concat([d, z], axis=1)
        h = inp
        dec = self.field.decoder
        for i in range(dec.n_layers):
            if i in dec.skip_at:
                h = ad.concat([h, inp], axis=1)
            h = ad.add(ad.matmul(h, self.leaves[f"dec_w{i}"]), self.leaves[f"dec_b{i}"])
            if i < dec.n_layers - 1:
                h = ad.relu(h)
        return ad.vsum(h, axis=1)  # (B, 1) -> (B,)

    def _rotation_columns(self) -> tuple[Var, Var, Var]:
        """Per-basis rotation columns (N, 3) each; built once per tape."""
        if self._rot_cols is None:
            r = self.leaves["rot6s"]
            a1 = ad.cols(r, 0, 3)
            a2 = ad.cols(r, 3, 6)
            n1 = ad.sqrt(ad.vsum(ad.mul(a1, a1), axis=1, keepdims=True))
            b1 = ad.div(a1, n1)
            proj = ad.vsum(ad.mul(b1, a2), axis=1, keepdims=True)
            res = ad.sub(a2, ad.mul(proj, b1))
            n2 = ad.sqrt(ad.vsum(ad.mul(res, res), axis=1, keepdims=True))
            b2 = ad.div(res, n2)
            b3 = _cross_rows(b1, b2)
            self._rot_cols = (b1, b2, b3)
        return self._rot_cols

    def _scale_factors(self) -> Var:
        if self._scales is None:
            self._scales = ad.exp(self.leaves["log_scales"])
        return self._scales

    def domain_quadratic(self, pts: np.ndarray, idx: np.ndarray) -> Var:
        """u = ||A (x - c)||^2 of basis idx[b] at pts[b]; g = exp(-u)."""
        b1, b2, b3 = self._rotation_columns()
        c = ad.gather_rows(self.eff_centers, idx)
        d = ad.sub(self.tape.constant(pts), c)
        dx = ad.cols(d, 0, 1)
        dy = ad.cols(d, 1, 2)
        dz = ad.cols(d, 2, 3)
        rd = ad.add(ad.add(ad.mul(dx, ad.gather_rows(b1, idx)),
                           ad.mul(dy, ad.gather_rows(b2, idx))),
                    ad.mul(dz, ad.gather_rows(b3, idx)))
        w = ad.mul(ad.gather_rows(self._scale_factors(), idx), rd)
        return ad.vsum(ad.mul(w, w), axis=1)

    def rbf(self, pts: np.ndarray, idx: np.ndarray) -> Var:
        """Domain weight of basis idx[b] at pts[b]; shape (B,)."""
        return ad.exp(ad.neg(self.domain_quadratic(pts, idx)))

    def blend(self, pts: np.ndarray) -> BlendResult:
        """Top-2 blended field value over a batch of points."""
        return self._blend_impl(pts, with_nearest=False)[0]

    def blend_with_nearest(self, pts: np.ndarray) -> tuple[BlendResult, Var]:
        """Blend plus the Euclidean-nearest basis value (one stacked pass)."""
        return self._blend_impl(pts, with_nearest=True)

    def _blend_impl(self, pts: np.ndarray, with_nearest: bool
                    ) -> tuple[BlendResult, Var | None]:
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        n = len(pts)
        p, q, fallback, nearest = self.field.select_top2_nearest(pts)
        self.n_fallback_total += int(fallback.sum())
        tape = self.tape
        tape.note_branch(p)
        tape.note_branch(q)
        tape.note_branch(fallback.astype(np.int8))
        if with_nearest:
            tape.note_branch(nearest)
        if self.field.n_bases == 1:
            f_p = self.decode(pts, p)
            g_p = self.rbf(pts, p)
            one = tape.constant(np.ones(n))
            zero = tape.constant(np.zeros(n))
            blend = BlendResult(sdf=f_p, f_p=f_p, f_q=f_p, g_p=g_p, g_q=g_p,
                                a_p=one, a_q=zero, p=p, q=q,
                                fallback=fallback, n_fallback=0)
            return blend, (f_p if with_nearest else None)
        # one stacked pass through decoder and domains for all slots
        reps = 3 if with_nearest else 2
        pts_r = np.concatenate([pts] * reps, axis=0)
        idx_r = np.concatenate([p, q, nearest] if with_nearest else [p, q])
        f_all = self.decode(pts_r, idx_r)
        u2 = self.domain_quadratic(pts_r[:2 * n], idx_r[:2 * n])
        g2 = ad.exp(ad.neg(u2))
        f_p, f_q = ad.rows(f_all, 0, n), ad.rows(f_all, n, 2 * n)
        f_k = ad.rows(f_all, 2 * n, 3 * n) if with_nearest else None
        g_p, g_q = ad.rows(g2, 0, n), ad.rows(g2, n, 2 * n)
        u_p, u_q = ad.rows(u2, 0, n), ad.rows(u2, n, 2 * n)
        # g_p/(g_p+g_q) computed in log space: stable when both g underflow
        gap = ad.sub(u_q, u_p)
        a_p = ad.where(fallback, 1.0, ad.sigmoid(gap))
        a_q = ad.where(fallback, 0.0, ad.sigmoid(ad.neg(gap)))
        sdf = ad.add(ad.mul(a_p, f_p), ad.mul(a_q, f_q))
        blend = BlendResult(sdf=sdf, f_p=f_p, f_q=f_q, g_p=g_p, g_q=g_q,
                            a_p=a_p, a_q=a_q, p=p, q=q, fallback=fallback,
                            n_fallback=int(fallback.sum()))
        return blend, f_k


def _cross_rows(a: Var, b: Var) -> Var:
    ax, ay, az = (ad.cols(a, i, i + 1) for i in range(3))
    bx, by, bz = (ad.cols(b, i, i + 1) for i in range(3))
    return ad.concat([
        ad.sub(ad.mul(ay, bz), ad.mul(az, by)),
        ad.sub(ad.mul(az, bx), ad.mul(ax, bz)),
        ad.sub(ad.mul(ax, by), ad.mul(ay, bx)),
    ], axis=1)
