"""Sign certificates: the sign of a BasisField proven over boxes.

box_signs(field, lo, hi) proves, box by box, that the blended field has
one sign over the whole box, so that surfacing need not evaluate the grid
corners inside it. The proof, for the functions below:

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

from __future__ import annotations

import numpy as np

from .field import INFERENCE_BLOCK_BYTES, BasisField, _sum3

# Sign certificates (box_signs): boxes per candidate pass, and the
# domain quadratic above which exp(-u) may leave the normal float64 range, so
# selection may fall back to any basis.
CERTIFY_BOX_CHUNK = 2048
CERTIFY_U_CAP = 700.0


def box_signs(field: BasisField, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Certified sign of the field over K closed boxes [lo[k], hi[k]].

    Returns int8 (K,): +1 where `sdf_batch` gives a finite value >= 0 at
    every point of the box, -1 where it gives a finite value < 0, and 0
    where neither is proven.

    The proof is in the module docstring.
    """
    lo = np.asarray(lo, dtype=np.float64).reshape(-1, 3)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1, 3)
    out = np.zeros(len(lo), dtype=np.int8)
    if not len(lo):
        return out
    mid = 0.5 * (lo + hi)
    # widened so that mid +- rad covers [lo, hi] despite rounding
    rad = np.maximum(hi - mid, mid - lo) * (1.0 + 2.0 ** -40)
    maps = field._domain_maps() if field.n_bases > 1 else None
    margin = _decoder_margin(field, lo.min(axis=0), hi.max(axis=0))
    layers = _bound_layers(field)
    # (box, basis) pairs per bound pass: the four [L | U] forms of the
    # widest layer fill about INFERENCE_BLOCK_BYTES, as inference_block
    # sizes points, so each pass works from cache
    widest = max(field.decoder.layer_in + field.decoder.layer_out)
    pair_chunk = max(1, INFERENCE_BLOCK_BYTES // (4 * 2 * widest * 8))
    for k0 in range(0, len(lo), CERTIFY_BOX_CHUNK):
        sl = slice(k0, k0 + CERTIFY_BOX_CHUNK)
        mid_k, rad_k, signs = mid[sl], rad[sl], out[sl]
        box, basis = np.nonzero(_box_candidates(field, mid_k, rad_k, maps))
        pos = np.zeros(len(box), dtype=bool)
        neg = np.zeros(len(box), dtype=bool)
        for p0 in range(0, len(box), pair_chunk):
            ps = slice(p0, p0 + pair_chunk)
            m = margin[basis[ps]]
            f_lo, f_hi = _decoder_bounds(field, mid_k[box[ps]], rad_k[box[ps]],
                                         basis[ps], layers, m)
            finite = np.isfinite(f_lo) & np.isfinite(f_hi)
            pos[ps] = finite & (f_lo > m)
            neg[ps] = finite & (f_hi < -m)
        n_cand = np.bincount(box, minlength=len(mid_k))
        signs[np.bincount(box, weights=pos, minlength=len(mid_k)) == n_cand] = 1
        signs[np.bincount(box, weights=neg, minlength=len(mid_k)) == n_cand] = -1
    return out


def _box_candidates(field: BasisField, mid: np.ndarray, rad: np.ndarray, maps
                    ) -> np.ndarray:
    """(K, N) mask of the bases that top-2 selection may pick somewhere
    in the boxes mid[k] +- rad[k]; see box_signs."""
    if maps is None:
        return np.ones((len(mid), 1), dtype=bool)
    a_stack, c_mapped = maps
    a_abs = np.abs(a_stack)
    eps = np.finfo(np.float64).eps
    w_mid = (mid @ a_stack).reshape(len(mid), field.n_bases, 3) - c_mapped
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


def _decoder_margin(field: BasisField, lo: np.ndarray, hi: np.ndarray
                    ) -> np.ndarray:
    """Per-basis rounding margin of box_signs over points in [lo, hi]."""
    dec = field.decoder
    c = field.effective_centers
    s_in = np.concatenate([np.maximum(np.abs(lo - c), np.abs(hi - c)),
                           np.abs(field.latents)], axis=1)
    s = s_in
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w, b) in enumerate(zip(dec.weights, dec.biases)):
            if k in dec.skip_at:
                s = np.concatenate([s, s_in], axis=1)
            s = s @ np.abs(w) + np.abs(b)
    n_eps = (max(dec.layer_in) + 5) * np.finfo(np.float64).eps
    gamma = n_eps / (1.0 - n_eps)
    return 4.0 ** (dec.n_layers + 1) * gamma * s[:, 0]


def _bound_layers(field: BasisField) -> list[tuple[np.ndarray, np.ndarray]]:
    """([[W+, W-], [W-, W+]], [b, b]) per decoder layer, the `layers`
    of _decoder_bounds."""
    return [(np.block([[np.maximum(w, 0.0), np.minimum(w, 0.0)],
                       [np.minimum(w, 0.0), np.maximum(w, 0.0)]]),
             np.concatenate([b, b]))
            for w, b in zip(field.decoder.weights, field.decoder.biases)]


def _decoder_bounds(field: BasisField, mid: np.ndarray, rad: np.ndarray,
                    basis: np.ndarray, layers, margin: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bound of decoder basis[p] over the box mid[p] +-
    rad[p], from affine forms in t in [-1, 1]^3 (x = mid + rad * t):
    entries 0-2 of a (4, P, width) form hold the t coefficients, entry 3
    the constant. `layers`: _bound_layers(), so one matmul on [L | U]
    gives the next [L | U]. The pairs whose finite bound clears neither
    margin[p] nor -margin[p] are then tightened by _back_substitute
    (margin +inf tightens every finite pair, -inf none)."""
    dec = field.decoder
    n = len(basis)
    x = np.zeros((4, n, dec.in_dim))
    x[(0, 1, 2), :, (0, 1, 2)] = rad.T
    x[3, :, :3] = mid - field.effective_centers[basis]
    x[3, :, 3:] = field.latents[basis]
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
            b_lo, b_hi = _back_substitute(
                field,
                x[3, tight], rad[tight],
                [[r[tight] for r in rel] for rel in relax])
            f_lo[tight] = np.maximum(f_lo[tight], b_lo)
            f_hi[tight] = np.minimum(f_hi[tight], b_hi)
    return f_lo, f_hi


def _back_substitute(field: BasisField, x_mid: np.ndarray, rad: np.ndarray,
                     relax) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper decoder bound per pair over the inputs x_mid[p] +
    (rad[p] * t, 0), t in [-1, 1]^3, from the output rows +W_L and -W_L
    carried back through the hidden-layer relaxations `relax` of
    _decoder_bounds; see box_signs. Row 0 bounds f from above, row 1
    bounds -f from above."""
    dec = field.decoder
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
