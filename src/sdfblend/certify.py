"""Sign certificates: the sign of a BasisField proven over boxes.

box_signs(field, edges) proves, sub-box by sub-box, that the blended
field has one sign over the whole sub-box, so that surfacing need not
evaluate the grid corners inside it. One bound pass per box bounds its
candidates over the whole box, and a pair that clears no margin there is
bounded again over each sub-box of the box. The proof, for the functions
below:

Candidates: A_i (x - c_i) is affine, so each component has an exact
interval over a box, and ||A_i (x - c_i)||^2 lies in [u_min_i,
u_max_i]. Two bases have u <= the second-smallest u_max everywhere
in the box, so a basis with a larger u_min is never in the top 2.
Past CERTIFY_U_CAP the weights exp(-u) may be subnormal or zero and
selection may fall back to any basis, so every basis is a candidate.
The intervals are widened by the rounding of the evaluated A x - A c
and of the sum of squares, and by 1e-12 so that a gap in u is a
strict gap in the evaluated exp(-u).

Dominance: a candidate i is dropped when two other bases j each have a
smaller u at every point of the box. With the stored A_i and A_i c_i,
u_i(x) = ||A_i x - A_i c_i||^2 is an exact quadratic: with d = x -
mid, w = A mid - A c, h = A^T w, G = A^T A and D = u_j - u_i, D(x) =
D(mid) + 2 (h_j - h_i) . d + d^T (G_j - G_i) d, so over |d| <= rad it
is at most D(mid) + 2 sum_a rad_a |h_j - h_i|_a + sum_a max(dG_aa, 0)
rad_a^2 + sum_{a != b} |dG_ab| rad_a rad_b. With s = (|mid| + rad) |A|
+ |A c| per basis and component, |w(x)| <= s at every x of the box,
sum_a rad_a |h_a| <= ||s||^2 and sum_ab |G_ab| rad_a rad_b <= ||s||^2,
so u anywhere in the box is at most ||s||^2 and each term of the bound
at most 2 (||s_i||^2 + ||s_j||^2) in magnitude. The evaluated A x - A
c errs by at most 4 eps s, so the evaluated u_i and u_j at any point
of the box, and the computed bound, err by less than 64 eps (||s_i||^2
+ ||s_j||^2) in all. A computed bound below minus 2^-42 (||s_i||^2 +
||s_j||^2) and minus 1e-12 thus puts the evaluated u_j below the
evaluated u_i by more than 1e-12 everywhere in the box; if also
u_max_j <= CERTIFY_U_CAP, exp(-u_j) is normal and strictly above
exp(-u_i) there. Two such j outrank i at every point and keep g_p +
g_q > 0, so no point falls back and i is never in the top 2. The j
tried are the DOMINANCE_POOL bases of least evaluated u(mid); either
of the two bases of least u(mid) has a computed D(mid) >= 0 against
every other basis but one, so it is not tried. A NaN makes a bound or
u_max_j NaN, and no NaN comparison drops a basis.

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

Sub-boxes, with the same margin. The
back-substituted bound of a pair is a linear form c + g . d in the
offset d = x - mid, valid over the whole box; over a sub-box it is
concretised in t = d / rad as c + (g rad) . t_mid + |g rad| . t_rad,
one axis at a time. The sub-box ends e lie in [lo, hi], and their
computed t = (e - mid) / rad lies within 2^-51 of the exact value
since |t| <= 1 + 2^-39; t_mid is the midpoint of the two ends
and t_rad the larger half-width plus 2^-40, so t_mid +- t_rad covers
the exact t-range of the sub-box despite the rounding of the ends,
the midpoint and the half-width, as rad covers [lo, hi]. The form's
maximum over a region that holds the sub-box is at least its maximum
over the sub-box, so the bound holds there. Only the concretisation
term of (b) changes: the products g rad, their products with t_mid
and t_rad and the four sums are each at most (1 + 2^-39) S_out in
magnitude, so they err by less than 2 gamma_n S_out beyond the
whole-box concretisation (n >= 6), and the total stays below
(4^L / 3 + 2^L + 5 L + 3) gamma_n S_out < 4^(L+1) gamma_n S_out.
A pair whose bound clears the margin over the whole box, forward or
back-substituted, keeps its sign over every sub-box, and the
candidates of a box include every basis that top-2 selection may
pick in its sub-boxes.

A NaN anywhere keeps a basis as a candidate, a pair with a
non-finite forward bound or interval end is never back-substituted,
and a non-finite bound or margin never certifies.
"""

from __future__ import annotations

import numpy as np

from .autodiff import _sum3
from .field import INFERENCE_BLOCK_BYTES, BasisField, FieldProgram

# Sign certificates (box_signs): boxes per candidate pass, and the
# domain quadratic above which exp(-u) may leave the normal float64 range, so
# selection may fall back to any basis.
CERTIFY_BOX_CHUNK = 2048
CERTIFY_U_CAP = 700.0
# bases of least u at a box's midpoint that the dominance test of
# _box_candidates tries as dominators of each candidate
DOMINANCE_POOL = 3


def box_signs(field: BasisField, edges: np.ndarray) -> np.ndarray:
    """Certified sign of the field over the sub-boxes of K closed boxes.

    `edges`, (K, 3, s + 1), splits box k, from edges[k, :, 0] to
    edges[k, :, -1], along axis a at the nondecreasing coordinates
    edges[k, a]. Returns int8 (K, s, s, s), per closed sub-box between
    consecutive edges: +1 where `sdf_batch` gives a finite value >= 0 at
    every point of the sub-box, -1 where it gives a finite value < 0, and
    0 where neither is proven. A sub-box takes a sign when every candidate
    of its box clears the margin over it; with s = 1 the only sub-box is
    the box itself. The candidates of a box are the bases whose interval
    of u over it may reach the top 2, less those that two others beat
    everywhere in it; only they are bounded.

    The proof is in the module docstring.
    """
    lo, hi = edges[..., 0], edges[..., -1]
    out = np.zeros((len(edges),) + (edges.shape[2] - 1,) * 3, dtype=np.int8)
    if not len(edges):
        return out
    mid = 0.5 * (lo + hi)
    # widened so that mid +- rad covers [lo, hi] despite rounding
    rad = np.maximum(hi - mid, mid - lo) * (1.0 + 2.0 ** -40)
    maps = FieldProgram.constant(field).maps
    margin = _decoder_margin(field, lo.min(axis=0), hi.max(axis=0))
    layers = _bound_layers(field)
    # (box, basis) pairs per bound pass: the four [L | U] forms of the
    # widest layer fill about INFERENCE_BLOCK_BYTES, as inference_block
    # sizes points, so each pass works from cache
    widest = max(field.decoder.layer_in + field.decoder.layer_out)
    pair_chunk = max(1, INFERENCE_BLOCK_BYTES // (4 * 2 * widest * 8))
    for k0 in range(0, len(edges), CERTIFY_BOX_CHUNK):
        sl = slice(k0, k0 + CERTIFY_BOX_CHUNK)
        mid_k, rad_k = mid[sl], rad[sl]
        box, basis = np.nonzero(_box_candidates(field, mid_k, rad_k, maps))
        t_sub = _sub_intervals(edges[sl], mid_k, rad_k)
        # per pair: +1 if it clears +margin over the whole box, -1 if it
        # clears -margin; per box and sub-box: the candidates that clear
        # +margin over the sub-box but not over the whole box, minus those
        # that clear -margin
        whole = np.zeros(len(box), dtype=np.int8)
        sub_clear = np.zeros((len(mid_k),) + out.shape[1:], dtype=np.int32)
        for p0 in range(0, len(box), pair_chunk):
            ps = slice(p0, p0 + pair_chunk)
            m = margin[basis[ps]]
            f_lo, f_hi, part, s_lo, s_hi = _decoder_bounds(
                field, mid_k[box[ps]], rad_k[box[ps]], basis[ps], layers, m,
                tuple(t[box[ps]] for t in t_sub))
            finite = np.isfinite(f_lo) & np.isfinite(f_hi)
            whole[ps] = ((finite & (f_lo > m)).view(np.int8)
                         - (finite & (f_hi < -m)).view(np.int8))
            finite = np.isfinite(s_lo + s_hi)
            m = m[part, None, None, None]
            _add_rows(sub_clear, box[ps][part],
                      (finite & (s_lo > m)).view(np.int8)
                      - (finite & (s_hi < -m)).view(np.int8))
        n_cand = np.bincount(box, minlength=len(mid_k))[:, None, None, None]
        sub_clear += np.bincount(box, weights=whole, minlength=len(mid_k)
                                 ).astype(np.int32)[:, None, None, None]
        sub = out[sl]
        sub[sub_clear == n_cand] = 1
        sub[sub_clear == -n_cand] = -1
    return out


def _add_rows(total: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """total[index[i]] += rows[i] for an ascending `index`, one add per run
    of equal indices (np.add.at adds row by row)."""
    if len(index):
        start = np.flatnonzero(np.diff(index, prepend=-1))
        total[index[start]] += np.add.reduceat(rows, start, axis=0,
                                               dtype=total.dtype)


def _sub_intervals(edges: np.ndarray, mid: np.ndarray, rad: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius in t (x = mid + rad * t) of the intervals between
    consecutive edges, (K, 3, s) each; the radius is widened so that the
    interval covers its ends despite the rounding of t."""
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (edges - mid[:, :, None]) / rad[:, :, None]
    t_mid = 0.5 * (t[..., :-1] + t[..., 1:])
    t_rad = np.maximum(t[..., 1:] - t_mid, t_mid - t[..., :-1]) + 2.0 ** -40
    return t_mid, t_rad


def _box_candidates(field: BasisField, mid: np.ndarray, rad: np.ndarray, maps
                    ) -> np.ndarray:
    """(K, N) mask of the bases that top-2 selection may pick somewhere
    in the boxes mid[k] +- rad[k]: the interval test, less the bases that
    two others dominate; see box_signs."""
    if field.n_bases == 1:
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
    # sq_lo takes a NaN w for 0, so a NaN basis is kept by its u_hi
    cand = ~(u_lo > second) | (second > CERTIFY_U_CAP) | np.isnan(u_hi)
    box, basis = np.nonzero(cand)
    cand[box, basis] = ~_dominated(a_stack, rad, w_mid, slack, u_hi, box, basis)
    return cand


def _dominated(a_stack, rad, w_mid, slack, u_hi, box, basis):
    """(P,) mask: whether two of the DOMINANCE_POOL bases of least u at
    the midpoint of box box[p] have a smaller u than basis[p] at every
    point of that box, by more than the rounding margin, with u_hi <=
    CERTIFY_U_CAP. The arrays are those of _box_candidates; see box_signs."""
    a = a_stack.reshape(3, -1, 3).transpose(1, 2, 0)  # a[n] = A_n
    # G = A^T A as its 3 diagonal and 3 upper entries, and rad_a rad_b to
    # match: the upper entries count twice
    rows, cols = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    gram = np.einsum("nca,ncb->nab", a, a)[:, rows, cols]
    rr = rad[:, rows] * rad[:, cols]
    rr[:, 3:] *= 2.0
    u_mid = _sum3(w_mid * w_mid)
    pool = np.argsort(u_mid, axis=1, kind="stable")[:, :DOMINANCE_POOL]
    out = np.zeros(len(box), dtype=bool)
    # each of the two bases of least u(mid) has at most one dominator
    test = np.flatnonzero((basis != pool[box, 0]) & (basis != pool[box, 1]))
    box, basis = box[test], basis[test]
    grad = np.einsum("knc,nca->kna", w_mid, a)  # A^T w(mid)
    scale = _sum3(slack * slack)  # bounds every term of the test
    rad, rr = rad[box], rr[box]
    u_i, grad_i, gram_i, scale_i = (u_mid[box, basis], grad[box, basis],
                                    gram[basis], scale[box, basis])
    wins = np.zeros(len(box), dtype=np.int8)
    for j in pool[box].T:
        d_gram = gram[j] - gram_i
        bound = (u_mid[box, j] - u_i
                 + 2.0 * np.einsum("pa,pa->p", np.abs(grad[box, j] - grad_i), rad)
                 + np.einsum("pa,pa->p", np.maximum(d_gram[:, :3], 0.0), rr[:, :3])
                 + np.einsum("pa,pa->p", np.abs(d_gram[:, 3:]), rr[:, 3:]))
        margin = 2.0 ** -42 * (scale[box, j] + scale_i) + 1e-12
        wins += ((bound < -margin) & (u_hi[box, j] <= CERTIFY_U_CAP)
                 & (j != basis))
    out[test] = wins >= 2
    return out


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
                    basis: np.ndarray, layers, margin: np.ndarray, t_sub):
    """Lower and upper bound of decoder basis[p] over the box mid[p] +-
    rad[p], from affine forms in t in [-1, 1]^3 (x = mid + rad * t):
    entries 0-2 of a (4, P, width) form hold the t coefficients, entry 3
    the constant. `layers`: _bound_layers(), so one matmul on [L | U]
    gives the next [L | U]. The pairs whose finite bound clears neither
    margin[p] nor -margin[p] are then tightened by _back_substitute
    (margin +inf tightens every finite pair, -inf none).

    `t_sub` = (t_mid, t_rad), (P, 3, s) sub-intervals of t per pair and
    axis (_sub_intervals). Returns (f_lo, f_hi, part, s_lo, s_hi): the
    bounds over each whole box; `part`, the pairs whose tightened bound
    is finite and still clears neither margin; and their lower and upper
    bounds over each sub-box, (len(part), s, s, s), from the same
    back-substituted linear forms."""
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
        tight = np.flatnonzero(finite & np.isfinite(f_lo) & np.isfinite(f_hi)
                               & ~(f_lo > margin) & ~(f_hi < -margin))
        if len(tight):
            const, coef = _back_substitute(
                field, x[3, tight], [[r[tight] for r in rel] for rel in relax])
            bound = const + np.einsum("ijk,jk->ij", np.abs(coef), rad[tight])
            f_lo[tight] = np.maximum(f_lo[tight], -bound[1])
            f_hi[tight] = np.minimum(f_hi[tight], bound[0])
        s = t_sub[0].shape[2]
        if not len(tight):
            empty = np.zeros((0, s, s, s))
            return f_lo, f_hi, tight, empty, empty
        keep = (np.isfinite(f_lo[tight]) & np.isfinite(f_hi[tight])
                & ~(f_lo[tight] > margin[tight]) & ~(f_hi[tight] < -margin[tight]))
        part = tight[keep]
        # the t form c + (coef * rad) . t over t_mid +- t_rad, axis by axis
        ct = coef[:, keep] * rad[part]
        a = (ct[..., None] * t_sub[0][part]
             + np.abs(ct)[..., None] * t_sub[1][part])
        bound = (const[:, keep, None, None, None] + a[:, :, 0, :, None, None]
                 + a[:, :, 1, None, :, None] + a[:, :, 2, None, None, :])
    return f_lo, f_hi, part, -bound[1], bound[0]


def _back_substitute(field: BasisField, x_mid: np.ndarray, relax
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Linear upper bounds, per pair, of the decoder over the inputs
    x_mid[p] + (d, 0) for d in its box, from the output rows +W_L and -W_L
    carried back through the hidden-layer relaxations `relax` of
    _decoder_bounds; see box_signs. Returns (const, coef), (2, P) and
    (2, P, 3): row 0 bounds f from above by const[0] + coef[0] . d, row 1
    bounds -f from above by const[1] + coef[1] . d."""
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
    const += np.einsum("ijk,jk->ij", coef_in, x_mid)
    return const, coef_in[..., :3]
