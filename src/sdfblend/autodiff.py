"""Reverse-mode automatic differentiation over small dense array computations.

A :class:`Var` carries its value. The :class:`Tape` records only the
trainable leaves and the ops that a trainable leaf reaches, in creation
order (which is automatically topological: an operand must exist before the
op that consumes it); a constant, and an op on constants only, is a Var
that no node backs. Values are float64 numpy arrays or scalars. A backward
pass walks the tape in reverse and accumulates vector-Jacobian products into
the leaf parameters.

Subgradient conventions at non-differentiable points are fixed so results
are reproducible:

* ``abs`` at 0 and the ReLUs of :func:`mlp` at 0 have derivative 0,
* elementwise ``maximum``/``minimum`` ties route the gradient to the left
  argument.

A tape can optionally record *branch tokens* (signs of kinked ops, plus any
selection indices noted by callers). Two evaluations with equal token streams
took the same smooth piece of the function, which is what makes central
finite differences trustworthy; :func:`finite_diff_check` uses this to
exclude coordinates whose +h/-h probes crossed a kink.

The generic ops here are the ones the program runs. The fused nodes
(:func:`mlp`, :func:`decoder_input`, :func:`domain_quadratic`,
:func:`rotation_columns`) compute what a chain of generic ops computed, bit
for bit; those chains, and the ops only they use, are in `tests/chains.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FieldError

__all__ = [
    "Tape",
    "Var",
    "ParamVector",
    "AdamState",
    "adam_step",
    "backward",
    "finite_diff_check",
    "FdCheckResult",
    "NonFiniteError",
]


# Rows per block of a row-stable product: BLAS computes the trailing rows of
# a matrix whose row count its kernel does not divide with another kernel,
# which sums in another order, so only products of whole blocks give every
# row the bits it gets in any other such product.
ROW_BLOCK = 256


class NonFiniteError(ValueError):
    """An objective or field evaluation produced NaN/inf."""


def _as_value(x) -> np.ndarray | float:
    if isinstance(x, Var):
        raise TypeError("expected a constant, got a Var")
    if np.isscalar(x):
        return float(x)
    return np.asarray(x, dtype=np.float64)


class _Node:
    __slots__ = ("value", "parents", "vjp", "leaf_name")

    def __init__(self, value, parents=(), vjp=None, leaf_name=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.leaf_name = leaf_name


class Tape:
    """Creation-ordered list of the nodes that backward walks: the trainable
    leaves, and the ops that a trainable leaf reaches; inputs always precede
    users.

    Such an op records as parents only the operands that a trainable leaf
    reaches, with one vector-Jacobian closure for them. A constant, or an op
    on constants, is not recorded, so a tape without trainable leaves holds
    no node and evaluates values (and branch tokens) only.
    """

    def __init__(self, record_branches: bool = False):
        self.nodes: list[_Node] = []
        self.record_branches = record_branches
        self._branches: list[bytes] = []

    def _push(self, node: _Node) -> "Var":
        self.nodes.append(node)
        return Var(self, node.value, len(self.nodes) - 1)

    def constant(self, value) -> "Var":
        return Var(self, _as_value(value))

    def leaf(self, value, name: str) -> "Var":
        return self._push(_Node(_as_value(value), leaf_name=name))

    def note_branch(self, token: np.ndarray) -> None:
        """Record an evaluation-path token (e.g. selected basis indices)."""
        if self.record_branches:
            self._branches.append(np.ascontiguousarray(token).tobytes())

    def branch_signature(self) -> bytes:
        return b"".join(self._branches)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if shape == () or shape is None:
        return np.sum(grad)
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _sum3(sq: np.ndarray) -> np.ndarray:
    """sq.sum(axis=-1) over a trailing axis of length 3, as two adds.

    numpy's reduce over so short an axis costs about 8x the adds. It starts
    from +0.0 and adds in order, so the bits are the same wherever the
    summands are >= +0.0 (squares); only there, or where the sign of a zero
    sum is lost later, may this replace it: for [-0.0, -0.0, -0.0] the adds
    give -0.0 and the reduce +0.0.
    """
    out = sq[..., 0] + sq[..., 1]
    out += sq[..., 2]
    return out


def _shape(v) -> tuple:
    return () if np.isscalar(v) else v.shape


class Var:
    """A value on a tape; `idx` is its node's index in `tape.nodes`, or None
    for a constant, which no node backs."""

    __slots__ = ("tape", "value", "idx")

    def __init__(self, tape: Tape, value, idx: int | None = None):
        self.tape = tape
        self.value = value
        self.idx = idx

    @property
    def shape(self):
        return _shape(self.value)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Var(idx={self.idx}, shape={self.shape})"


def _reached(v) -> bool:
    """Whether a trainable leaf reaches operand `v` (a Var or a constant)."""
    return isinstance(v, Var) and v.idx is not None


def _record(tape: Tape, out, grads, pre=None) -> Var:
    """`out`, computed from the operands of the (operand, vjp) pairs in
    `grads`. Only operands that a trainable leaf reaches become parents, and
    only their VJPs run, after `pre(g)` if given; with none, `out` is a
    constant: no node is pushed and no closure is kept."""
    parents, fns = [], []
    for v, f in grads:
        if _reached(v):
            parents.append(v.idx)
            fns.append(f)
    if not parents:
        return Var(tape, out)

    def vjp(g):
        if pre is not None:
            g = pre(g)
        return [f(g) for f in fns]

    return tape._push(_Node(out, tuple(parents), vjp))


def _binary(a, b, fwd, vjp_a, vjp_b):
    """Build a binary op; either side may be a plain constant."""
    tape = a.tape if isinstance(a, Var) else b.tape
    av = a.value if isinstance(a, Var) else _as_value(a)
    bv = b.value if isinstance(b, Var) else _as_value(b)
    if not (_reached(a) or _reached(b)):
        return Var(tape, fwd(av, bv))
    return _record(tape, fwd(av, bv), [
        (a, lambda g: _unbroadcast(vjp_a(g, av, bv), _shape(av))),
        (b, lambda g: _unbroadcast(vjp_b(g, av, bv), _shape(bv))),
    ])


def _unary(a: Var, fwd, dfwd):
    av = a.value
    if not _reached(a):
        return Var(a.tape, fwd(av))
    out = fwd(av)
    return _record(a.tape, out, [(a, lambda g: g * dfwd(av, out))])


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def neg(a: Var):
    return _unary(a, lambda x: -x, lambda x, o: -1.0)


def exp(a: Var):
    return _unary(a, np.exp, lambda x, o: o)


def absolute(a: Var):
    av = a.value
    s = np.sign(av)  # sign(0) == 0: derivative 0 at the kink
    if a.tape.record_branches:
        a.tape.note_branch(np.asarray(s, dtype=np.int8))
    return _record(a.tape, np.abs(av), [(a, lambda g: g * s)])


def sigmoid(a: Var):
    """Numerically stable logistic function (no overflow at any magnitude)."""
    av = np.atleast_1d(np.asarray(a.value, dtype=np.float64))
    out = np.empty_like(av)
    pos = av >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    e = np.exp(av[~pos])
    out[~pos] = e / (1.0 + e)
    if np.ndim(a.value) == 0:
        out = float(out[0])
    return _record(a.tape, out, [(a, lambda g: g * out * (1.0 - out))])


def _select(a, b, fwd, left_wins):
    """Elementwise max or min: `fwd(x, y)`, with the gradient routed to the
    left argument where `left_wins(x, y)` (ties included), which is noted as
    a branch token."""
    tape = a.tape if isinstance(a, Var) else b.tape
    av = a.value if isinstance(a, Var) else _as_value(a)
    bv = b.value if isinstance(b, Var) else _as_value(b)
    left = left_wins(av, bv)
    if tape.record_branches:
        tape.note_branch(np.asarray(left, dtype=np.int8))
    return _binary(
        a, b, fwd,
        lambda g, x, y: g * left,
        lambda g, x, y: g * ~left if isinstance(left, np.ndarray) else g * (not left),
    )


def maximum(a, b):
    return _select(a, b, np.maximum, lambda x, y: x >= y)


def minimum(a, b):
    return _select(a, b, np.minimum, lambda x, y: x <= y)


def where(mask, a, b):
    """Select elementwise by a *constant* boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return _binary(
        a, b,
        lambda x, y: np.where(mask, x, y),
        lambda g, x, y: g * mask,
        lambda g, x, y: g * ~mask,
    )


def mlp(x: Var, weights: Sequence[Var], biases: Sequence[Var],
        skip_at: Sequence[int] = ()) -> Var:
    """A multilayer perceptron as one node: layer i computes h @ w_i + b_i,
    then fmax(., 0) unless it is the last, on the running h, or on
    concat(h, x) where i is in `skip_at`. Values, gradients and branch
    tokens equal those of the per-layer chain of concat, matmul, add and
    ReLU (derivative 0 at the kink) bit for bit.

    When no weight or bias is trainable, the input gradient of a row whose
    cotangent is zero is zero (the weights being finite), so the backward
    pass runs every mask and GEMM on the rows with a nonzero cotangent only
    (NaN counts as nonzero), padded with zero-cotangent rows to whole
    ROW_BLOCKs, and scatters the input gradient once. Each row's products
    then sum as in any whole-block product; when the batch height is a
    multiple of ROW_BLOCK that is the full pass's order, so the gradients
    are the full pass's bit for bit. At other heights the full pass
    computes its trailing rows with BLAS's edge kernel, which may round
    them otherwise. A weight gradient sums over rows; dropping rows would
    regroup that sum, so a trainable weight or bias takes every row.

    The node keeps exactly what its backward pass reads, decided by which
    operands a trainable leaf reaches:

    * a weight or bias: every layer's input and float activation, since
      the weight gradients read them and the masks are their signs;
    * the input only (frozen decoder): one bool mask per hidden layer,
      `h > 0.0` right after the fmax, 1 byte per unit instead of 8; the
      backward reads nothing else, and a skip layer's input width is the
      weight's fan-in;
    * nothing (a tape of constants): nothing at all.

    A mask is the same compare on the same array that the backward pass
    would make on a stored activation, and the branch token is that
    compare too, so gradients and tokens keep their bits on every path.

    The backward pass multiplies each ReLU mask into the cotangent in
    place: that array is always one the pass itself computed, so neither
    the incoming cotangent nor the stored activations change, and a second
    backward over the same tape gives the same gradients."""
    tape = x.tape
    xv = x.value
    ws = [w.value for w in weights]
    last = len(ws) - 1
    operands = [x, *weights, *biases]
    need = [_reached(v) for v in operands]
    trained = any(need[1:])
    # trained: layer inputs and float activations; input only: bool masks
    ins, masks = [], []
    h = xv
    for i, (wv, b) in enumerate(zip(ws, biases)):
        if i in skip_at:
            h = np.concatenate([h, xv], axis=1)
        if trained:
            ins.append(h)
        h = h @ wv
        h += b.value
        if i < last:
            # fmax(x, 0) is where(x > 0, x, 0) without where's branch per
            # element: NaN gives +0.0 in both, and only a -0.0, which fmax
            # keeps, would differ; a BLAS sum that starts at +0.0 plus a
            # bias is never -0.0, and h > 0.0 is False for either zero
            np.fmax(h, 0.0, out=h)
            if tape.record_branches:
                tape.note_branch(np.asarray(h > 0.0, dtype=np.int8))
            if trained:
                masks.append(h)
            elif need[0]:
                masks.append(h > 0.0)
    if not any(need):
        return Var(tape, h)
    need_w, need_b = need[1:last + 2], need[last + 2:]
    # layer i's input needs a cotangent iff i >= stop
    stop = 0 if need[0] else next(i for i in range(last + 1)
                                  if need_w[i] or need_b[i]) + 1
    width_x, n_operands = xv.shape[1], len(operands)

    # the closure holds arrays only: a Var in it would tie the tape into a
    # reference cycle that keeps every step's activations until a collection
    def backprop(g):
        sub = None  # rows the pass runs on; None: all of them
        if not trained:
            live = np.any(g != 0.0, axis=1)
            n_live = int(np.count_nonzero(live))
            height = -(-n_live // ROW_BLOCK) * ROW_BLOCK
            if height < len(g):
                live[np.flatnonzero(~live)[:height - n_live]] = True
                sub = np.flatnonzero(live)
                g = g[sub]
        grads = [None] * n_operands
        gx = None
        for i in range(last, -1, -1):
            if i < last:  # g is this pass's own array here: mask in place
                if trained:  # each mask dies before the GEMMs below
                    np.multiply(g, masks[i] > 0.0, out=g)
                else:
                    np.multiply(g, masks[i] if sub is None
                                else np.take(masks[i], sub, axis=0), out=g)
            if need_w[i]:
                grads[1 + i] = ins[i].T @ g
            if need_b[i]:
                grads[2 + last + i] = g.sum(axis=0)
            if i < stop:
                break
            gh = g @ ws[i].T
            if i in skip_at:
                k = ws[i].shape[0] - width_x
                g = gh[:, :k]
                if i == 0:  # concat(x, x): its first part is x's too
                    gx = g if gx is None else gx + g
                part = gh[:, k:]
                gx = part if gx is None else gx + part
            elif i == 0:
                gx = gh if gx is None else gx + gh
            else:
                g = gh
        if sub is not None:
            full = np.zeros(xv.shape)
            full[sub] = gx
            gx = full
        grads[0] = gx
        return grads

    return _record(tape, h, [(v, lambda r, k=k: r[k])
                             for k, v in enumerate(operands)], pre=backprop)


def vsum(a: Var, axis=None, keepdims: bool = False):
    av = a.value
    out = np.sum(av, axis=axis, keepdims=keepdims)

    def grad(g):
        if axis is None:
            return np.broadcast_to(g, _shape(av)).copy() if not np.isscalar(av) else g
        ge = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(ge, av.shape).copy()

    return _record(a.tape, out, [(a, grad)])


def vmean(a: Var, axis=None, keepdims: bool = False):
    av = a.value
    n = av.size if axis is None else av.shape[axis]
    return vsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def rows(a: Var, start: int, stop: int) -> Var:
    """Row slice [start:stop] along axis 0."""
    av = a.value

    def grad(g):
        full = np.zeros_like(av)
        full[start:stop] = g
        return full

    return _record(a.tape, av[start:stop].copy(), [(a, grad)])


def _scatter_add(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """n rows, row r the sum of the rows g[i] with idx[i] == r, (n, *g.shape[1:]).
    One bincount per column: each row's sum starts at 0.0 and adds its
    gradients in index order, as an unbuffered scatter-add does, so the sums
    are equal bit for bit."""
    flat = g.reshape(idx.size, math.prod(g.shape[idx.ndim:]))
    full = np.empty((n, flat.shape[1]))
    for j, col in enumerate(flat.T):
        full[:, j] = np.bincount(idx.ravel(), weights=col, minlength=n)
    return full.reshape((n,) + g.shape[idx.ndim:])


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    """Select rows by a non-negative integer index array. Backward
    scatter-adds (see _scatter_add)."""
    idx = np.asarray(idx)
    av = a.value
    return _record(a.tape, np.take(av, idx, axis=0),
                   [(a, lambda g: _scatter_add(g, idx, len(av)))])


def scatter_rows(a: Var, idx: np.ndarray, n: int) -> Var:
    """n zero rows with row idx[i] set to a[i]; the indices are distinct."""
    idx = np.asarray(idx)
    av = a.value
    out = np.zeros((n,) + av.shape[1:])
    out[idx] = av
    return _record(a.tape, out, [(a, lambda g: g[idx])])


def decoder_input(pts: np.ndarray, centers: Var, latents: Var,
                  idx: np.ndarray) -> Var:
    """concat(pts - centers[idx], latents[idx]), (R, 3 + d_z), written
    once into one array; `pts` (R, 3) is a constant.

    One node for the chain gather_rows, sub, gather_rows, concat. It
    gathers whole rows of the per-basis table [-c | z] and adds pts into
    the first three columns: pts + (-c) is pts - c bit for bit. Its VJP
    scatters the negated offset columns and the latent columns as that
    chain's gathers do (see _scatter_add), so values and gradients equal
    the chain's bit for bit."""
    idx = np.asarray(idx)
    cv, zv = centers.value, latents.value
    out = np.take(np.concatenate([np.negative(cv), zv], axis=1), idx, axis=0)
    # one column at a time: numpy adds an (R, 3) slice row by row, in
    # loops of 3 elements, several times slower
    for k in range(3):
        out[:, k] += pts[:, k]
    n_c, n_z = len(cv), len(zv)
    return _record(centers.tape, out, [
        (centers, lambda g: _scatter_add(np.negative(g[:, :3]), idx, n_c)),
        (latents, lambda g: _scatter_add(g[:, 3:], idx, n_z)),
    ])


def domain_quadratic(x: Var, rot: Var, scales: Var, idx: np.ndarray) -> Var:
    """u[r] = ||diag(scales[k]) R_k d_r||^2 with k = idx[r], R_k's columns
    rot[0, k], rot[1, k], rot[2, k] (a rotation_columns), and d_r the first
    three columns of row r of `x` (a decoder_input), for the first len(idx)
    rows of `x`: (len(idx),).

    One node for the chain that computes R_k d as b1 dx + b2 dy + b3 dz
    from column slices and gathered rows, then w = scale * (R_k d) and
    sum(w * w). Its VJP computes the arrays that chain's VJPs compute:
    w * w's two equal terms added (gw + gw), each gather's gradient as its
    scatter (see _scatter_add), the rotation's as the np.stack of its three
    columns' scatters, and each column's of `x` as the row sum, with two
    adds (_sum3). That sum equals the chain's reduce up to the sign of a
    zero, which no scatter keeps (each bin's sum starts at +0.0), so values
    and gradients equal the chain's bit for bit."""
    idx = np.asarray(idx)
    m = len(idx)
    xv = x.value
    # every (row, axis) array is held as (3, rows): each op then runs on
    # long rows, where numpy would loop over rows of 3 elements
    d = [xv[:m, k] for k in range(3)]
    c = [np.take(b.T, idx, axis=1) for b in rot.value]
    sg = np.take(scales.value.T, idx, axis=1)
    rd = d[0] * c[0] + d[1] * c[1]
    rd += d[2] * c[2]
    w = sg * rd
    u = _sum3((w * w).T)
    operands = (x, rot, scales)
    need = [_reached(v) for v in operands]
    if not any(need):
        return Var(x.tape, u)
    n, x_shape = len(scales.value), xv.shape

    # the closure holds arrays only (see mlp)
    def backprop(g):
        gw = g * w
        gw = gw + gw
        grads = [None] * 3
        if need[2]:
            grads[2] = _scatter_add((gw * rd).T, idx, n)
        if need[0] or need[1]:
            grd = gw * sg
            if need[1]:
                grads[1] = np.stack([_scatter_add((grd * d[k]).T, idx, n)
                                     for k in range(3)])
            if need[0]:
                grads[0] = np.zeros(x_shape)
                for k in range(3):
                    grads[0][:m, k] = _sum3((grd * c[k]).T)
        return grads

    return _record(x.tape, u, [(v, lambda r, k=k: r[k])
                               for k, v in enumerate(operands)], pre=backprop)


def _check_norms(norms: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise FieldError(f"degenerate rotation at basis {bad[0]}: {what}")


def _add_columns(acc: np.ndarray, *columns) -> np.ndarray:
    """acc plus, in turn, the VJP of each column slice (k, g_k) of a cols
    chain: zeros but column k, which holds g_k."""
    for k, gk in columns:
        full = np.zeros_like(acc)
        full[:, k] = gk
        acc = acc + full
    return acc


def rotation_columns(r: Var) -> Var:
    """The rotation columns b1, b2 and b3 = b1 x b2 of each row of an
    (N, 6) stack, as one (3, N, 3) value: b1 the normalized first 3-vector
    and b2 the normalized rejection of the second. Raises FieldError,
    naming the first such row, where a norm is below 1e-12.

    One node for the 30-node chain of the 6D Gram-Schmidt: column slices,
    a * a, row sums, square roots, quotients, the projection, and the cross
    product from (N, 1) column slices, concatenated. Its forward pass runs
    that chain's numpy expressions in its order, and checks the norms
    between the same steps. Its VJP computes the arrays the chain's VJPs
    compute and adds each slot's terms in the order backward visits the
    chain: b1 takes the external cotangent, then the cross product's z, y
    and x columns, then the proj * b1 term, then the b1 . a2 term; a * a
    adds its two equal terms one after the other. So values and gradients
    equal the chain's bit for bit."""
    rv = r.value
    a1, a2 = rv[:, 0:3], rv[:, 3:6]
    n1 = np.sqrt(np.sum(a1 * a1, axis=1, keepdims=True))
    _check_norms(n1, "first vector ~ 0")
    b1 = a1 / n1
    proj = np.sum(b1 * a2, axis=1, keepdims=True)
    res = a2 - proj * b1
    n2 = np.sqrt(np.sum(res * res, axis=1, keepdims=True))
    _check_norms(n2, "second vector parallel to first")
    b2 = res / n2
    (ax, ay, az), (bx, by, bz) = b1.T, b2.T
    b3 = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx],
                  axis=1)
    out = np.stack([b1, b2, b3])
    if not _reached(r):
        return Var(r.tape, out)

    # the closure holds arrays only (see mlp)
    def backprop(g):
        gx, gy, gz = g[2].T
        # each cross-product column is t - t' of two column products: t
        # takes +g, t' takes -g; the products were made in the order
        # (ay bz, az by), (az bx, ax bz), (ax by, ay bx) and are visited back
        g_b1 = _add_columns(g[0], (2, gy * bx + -gx * by),
                            (1, -gz * bx + gx * bz), (0, gz * by + -gy * bz))
        g_b2 = _add_columns(g[1], (2, -gy * ax + gx * ay),
                            (1, gz * ax + -gx * az), (0, -gz * ay + gy * az))
        g_res = g_b2 / n2
        g_sq = np.sum(-g_b2 * res / (n2 * n2), axis=1, keepdims=True) * (0.5 / n2)
        g_res = g_res + g_sq * res
        g_res = g_res + g_sq * res
        g_pb = -g_res
        g_proj = np.sum(g_pb * b1, axis=1, keepdims=True)
        g_b1 = g_b1 + g_pb * proj
        g_b1 = g_b1 + g_proj * a2
        g_a2 = g_res + g_proj * b1
        g_a1 = g_b1 / n1
        g_sq = np.sum(-g_b1 * a1 / (n1 * n1), axis=1, keepdims=True) * (0.5 / n1)
        g_a1 = g_a1 + g_sq * a1
        g_a1 = g_a1 + g_sq * a1
        # the two column slices' zero-padded gradients, added
        g_r = np.concatenate([g_a1, g_a2], axis=1)
        g_r += 0.0
        return g_r

    return _record(r.tape, out, [(r, backprop)])


def backward(tape: Tape, output: Var) -> dict[str, np.ndarray]:
    """Gradients of a scalar output w.r.t. every leaf on the tape.

    Leaves not reachable from `output` get exact-zero gradients, and so do
    all leaves when `output` is a constant.
    """
    if not np.isscalar(output.value) and np.ndim(output.value) != 0:
        raise ValueError("backward() requires a scalar output node")
    grads: list = [None] * len(tape.nodes)
    if output.idx is not None:
        grads[output.idx] = 1.0
    result: dict[str, np.ndarray] = {}
    for i in range(len(tape.nodes) - 1, -1, -1):
        g = grads[i]
        node = tape.nodes[i]
        if node.leaf_name is not None:
            zero = np.zeros_like(node.value) if not np.isscalar(node.value) else 0.0
            acc = result.setdefault(node.leaf_name, zero)
            if g is not None:
                result[node.leaf_name] = acc + g
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if grads[parent] is None:
                grads[parent] = pg
            else:
                grads[parent] = grads[parent] + pg
    return result


# ---------------------------------------------------------------------------
# Parameter vector


class ParamVector:
    """Flat float64 parameter storage with a name -> (offset, shape, size)
    registry."""

    def __init__(self):
        self.data = np.zeros(0, dtype=np.float64)
        self._slots: dict[str, tuple[int, tuple[int, ...], int]] = {}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ParamVector":
        """A copy of `arrays` as one vector, laid out in dict order."""
        pv = cls()
        offset = 0
        flat = [pv.data]
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            pv._slots[name] = (offset, arr.shape, arr.size)
            offset += arr.size
            flat.append(arr.ravel())
        pv.data = np.concatenate(flat)
        return pv

    def names(self) -> list[str]:
        return list(self._slots)

    def slot(self, name: str) -> tuple[int, tuple[int, ...], int]:
        return self._slots[name]

    def view(self, name: str) -> np.ndarray:
        offset, shape, size = self._slots[name]
        return self.data[offset:offset + size].reshape(shape)

    def copy(self) -> "ParamVector":
        pv = ParamVector()
        pv.data = self.data.copy()
        pv._slots = dict(self._slots)
        return pv

    def flatten_grads(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Lay per-leaf gradients into a flat vector aligned with `data`."""
        out = np.zeros_like(self.data)
        for name, g in grads.items():
            offset, _, size = self._slots[name]
            out[offset:offset + size] = np.ravel(g)
        return out

    def leaves(self, tape: Tape, trainable: set[str] | None = None) -> dict[str, Var]:
        """Put every named array on a tape; non-trainable ones as constants."""
        out = {}
        for name in self._slots:
            arr = self.view(name)
            if trainable is None or name in trainable:
                out[name] = tape.leaf(arr, name)
            else:
                out[name] = tape.constant(arr)
        return out

    def __len__(self) -> int:
        return self.data.size


# ---------------------------------------------------------------------------
# Adam


# the moment decay rates and the denominator guard of every Adam update
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Moment estimates, step counter and learning rate for Adam."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, n: int, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0, lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState
              ) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"length mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}"
        )
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new, AdamState(m=m, v=v, step=t, lr=state.lr)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def _scalar(v) -> float:
    return float(np.asarray(v).reshape(()))


@dataclass
class FdCheckResult:
    """Outcome of a central-difference check against the backward pass."""

    max_rel_err: float
    n_checked: int
    excluded: list[int] = field(default_factory=list)


class _ConstantTape(Tape):
    """A tape that puts every leaf on as a constant: a central-difference
    probe needs values and branch tokens only, never a tape node."""

    def leaf(self, value, name: str) -> Var:
        return self.constant(value)


def finite_diff_check(objective: Callable[[Tape, ParamVector], Var],
                      params: ParamVector, h: float = 1e-5) -> FdCheckResult:
    """Compare backward() gradients with central differences per coordinate.

    `objective` must rebuild its computation on the given tape from the given
    parameters. Coordinates whose +h/-h probes produce different branch
    signatures (a kink or a top-2 flip in between) are excluded rather than
    failed; relative error uses a max(1, |analytic|) denominator.
    """
    if h <= 0:
        raise ValueError("h must be positive")

    tape = Tape()
    out = objective(tape, params)
    base = _scalar(out.value)
    if not np.isfinite(base):
        raise NonFiniteError("objective returned a non-finite value")
    analytic = params.flatten_grads(backward(tape, out))

    def probe(data_mut: np.ndarray) -> tuple[float, bytes]:
        p = params.copy()
        p.data = data_mut
        t = _ConstantTape(record_branches=True)
        v = _scalar(objective(t, p).value)
        if not np.isfinite(v):
            raise NonFiniteError("objective returned a non-finite value")
        return v, t.branch_signature()

    max_err = 0.0
    excluded: list[int] = []
    n = len(params)
    for i in range(n):
        d = params.data.copy()
        d[i] += h
        f_plus, sig_plus = probe(d)
        d[i] -= 2.0 * h
        f_minus, sig_minus = probe(d)
        if sig_plus != sig_minus:
            excluded.append(i)
            continue
        fd = (f_plus - f_minus) / (2.0 * h)
        err = abs(fd - analytic[i]) / max(1.0, abs(analytic[i]))
        max_err = max(max_err, err)
    return FdCheckResult(max_rel_err=max_err, n_checked=n - len(excluded),
                         excluded=excluded)
