"""Reverse-mode automatic differentiation over small dense array computations.

The engine records every primitive operation on a :class:`Tape` in creation
order (which is automatically topological: an operand must exist before the
op that consumes it). Values are float64 numpy arrays or scalars. A backward
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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

    @property
    def differentiable(self) -> bool:
        """A trainable leaf, or an op that a trainable leaf reaches."""
        return self.vjp is not None or self.leaf_name is not None


class Tape:
    """Creation-ordered list of primitive ops; inputs always precede users.

    An op records as parents only the operands that a trainable leaf
    reaches, with one vector-Jacobian closure for them; an op on constants
    is itself a constant. A tape without trainable leaves (`has_leaves`
    false) therefore evaluates values (and branch tokens) only.
    """

    def __init__(self, record_branches: bool = False):
        self.nodes: list[_Node] = []
        self.record_branches = record_branches
        self.has_leaves = False
        self._branches: list[bytes] = []

    def _push(self, node: _Node) -> "Var":
        self.nodes.append(node)
        return Var(self, len(self.nodes) - 1)

    def constant(self, value) -> "Var":
        return self._push(_Node(_as_value(value)))

    def leaf(self, value, name: str) -> "Var":
        self.has_leaves = True
        return self._push(_Node(_as_value(value), leaf_name=name))

    def truncate(self, n: int) -> None:
        """Drop every node after the first `n` (their Vars become invalid);
        only a tape without trainable leaves, and so without differentiable
        nodes, that records no branch tokens can be cut back."""
        if self.record_branches or self.has_leaves:
            raise ValueError("only a tape of constants without branch tokens "
                             "can be truncated")
        del self.nodes[n:]

    def note_branch(self, token: np.ndarray | bytes) -> None:
        """Record an evaluation-path token (e.g. selected basis indices)."""
        if not self.record_branches:
            return
        if isinstance(token, bytes):
            self._branches.append(token)
        else:
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


def _shape(v) -> tuple:
    return () if np.isscalar(v) else v.shape


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape.nodes[self.idx].value

    @property
    def shape(self):
        return _shape(self.value)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return powi(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Var(idx={self.idx}, shape={self.shape})"


def _reached(tape: Tape, v) -> bool:
    """Whether a trainable leaf reaches operand `v` (a Var or a constant)."""
    return (tape.has_leaves and isinstance(v, Var)
            and tape.nodes[v.idx].differentiable)


def _record(tape: Tape, out, grads, pre=None) -> Var:
    """Push `out`, computed from the operands of the (operand, vjp) pairs in
    `grads`. Only operands that a trainable leaf reaches become parents, and
    only their VJPs run, after `pre(g)` if given; with none, the node is a
    constant and no closure is kept."""
    parents, fns = [], []
    for v, f in grads:
        if _reached(tape, v):
            parents.append(v.idx)
            fns.append(f)
    if not parents:
        return tape._push(_Node(out))

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
    out = fwd(av, bv)
    if not tape.has_leaves:  # skip building closures nothing would keep
        return tape._push(_Node(out))
    return _record(tape, out, [
        (a, lambda g: _unbroadcast(vjp_a(g, av, bv), _shape(av))),
        (b, lambda g: _unbroadcast(vjp_b(g, av, bv), _shape(bv))),
    ])


def _unary(a: Var, fwd, dfwd):
    av = a.value
    out = fwd(av)
    if not a.tape.has_leaves:
        return a.tape._push(_Node(out))
    return _record(a.tape, out, [(a, lambda g: g * dfwd(av, out))])


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(
        a, b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


def neg(a: Var):
    return _unary(a, lambda x: -x, lambda x, o: -1.0)


def powi(a: Var, exponent: float):
    if isinstance(exponent, Var):
        raise TypeError("exponent must be a constant")
    e = float(exponent)
    return _unary(a, lambda x: x ** e, lambda x, o: e * x ** (e - 1.0))


def exp(a: Var):
    return _unary(a, np.exp, lambda x, o: o)


def tanh(a: Var):
    return _unary(a, np.tanh, lambda x, o: 1.0 - o * o)


def sqrt(a: Var):
    return _unary(a, np.sqrt, lambda x, o: 0.5 / o)


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


def maximum(a, b):
    def fwd(x, y):
        return np.maximum(x, y)

    def make(tape, av, bv):
        left = av >= bv  # ties: left argument wins
        if tape.record_branches:
            tape.note_branch(np.asarray(left, dtype=np.int8))
        return left

    if isinstance(a, Var):
        left = make(a.tape, a.value, b.value if isinstance(b, Var) else _as_value(b))
    else:
        left = make(b.tape, _as_value(a), b.value)
    return _binary(
        a, b, fwd,
        lambda g, x, y: g * left,
        lambda g, x, y: g * ~left if isinstance(left, np.ndarray) else g * (not left),
    )


def minimum(a, b):
    def fwd(x, y):
        return np.minimum(x, y)

    def make(tape, av, bv):
        left = av <= bv  # ties: left argument wins
        if tape.record_branches:
            tape.note_branch(np.asarray(left, dtype=np.int8))
        return left

    if isinstance(a, Var):
        left = make(a.tape, a.value, b.value if isinstance(b, Var) else _as_value(b))
    else:
        left = make(b.tape, _as_value(a), b.value)
    return _binary(
        a, b, fwd,
        lambda g, x, y: g * left,
        lambda g, x, y: g * ~left if isinstance(left, np.ndarray) else g * (not left),
    )


def where(mask, a, b):
    """Select elementwise by a *constant* boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return _binary(
        a, b,
        lambda x, y: np.where(mask, x, y),
        lambda g, x, y: g * mask,
        lambda g, x, y: g * ~mask,
    )


def matmul(a, b):
    return _binary(
        a, b,
        lambda x, y: x @ y,
        lambda g, x, y: g @ y.T,
        lambda g, x, y: x.T @ g,
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
    regroup that sum, so a trainable weight or bias takes every row."""
    tape = x.tape
    xv = x.value
    ws = [w.value for w in weights]
    last = len(ws) - 1
    ins, outs = [], []
    h = xv
    for i, (wv, b) in enumerate(zip(ws, biases)):
        if i in skip_at:
            h = np.concatenate([h, xv], axis=1)
        ins.append(h)
        h = h @ wv
        h += b.value
        if i < last:
            # fmax(x, 0) equals where(x > 0, x, 0) bit for bit (NaN and -0.0
            # give +0.0) without where's data-dependent branch per element
            np.fmax(h, 0.0, out=h)
            if tape.record_branches:
                tape.note_branch(np.asarray(h > 0.0, dtype=np.int8))
        outs.append(h)
    operands = [x, *weights, *biases]
    need = [_reached(tape, v) for v in operands]
    if not any(need):
        return tape._push(_Node(h))
    need_w, need_b = need[1:last + 2], need[last + 2:]
    # layer i's input needs a cotangent iff i >= stop
    stop = 0 if need[0] else next(i for i in range(last + 1)
                                  if need_w[i] or need_b[i]) + 1
    width_x, n_operands = xv.shape[1], len(operands)

    # the closure holds arrays only: a Var in it would tie the tape into a
    # reference cycle that keeps every step's activations until a collection
    def backprop(g):
        sub = None  # rows the pass runs on; None: all of them
        if not any(need[1:]):
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
            if i < last:
                live_out = outs[i] if sub is None else np.take(outs[i], sub, axis=0)
                g = g * (live_out > 0.0)
            if need_w[i]:
                grads[1 + i] = ins[i].T @ g
            if need_b[i]:
                grads[2 + last + i] = g.sum(axis=0)
            if i < stop:
                break
            gh = g @ ws[i].T
            if i in skip_at:
                k = ins[i].shape[1] - width_x
                g = np.take(gh, np.arange(k), axis=1)
                if i == 0:  # concat(x, x): its first part is x's too
                    gx = g if gx is None else gx + g
                part = np.take(gh, np.arange(k, k + width_x), axis=1)
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


def concat(parts: Sequence[Var], axis: int = 1) -> Var:
    values = [p.value for p in parts]
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])
    return _record(parts[0].tape, np.concatenate(values, axis=axis), [
        (p, lambda g, lo=lo, hi=hi: np.take(g, np.arange(lo, hi), axis=axis))
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])
    ])


def cols(a: Var, start: int, stop: int) -> Var:
    """Column slice [:, start:stop] of a 2-D array."""
    av = a.value

    def grad(g):
        full = np.zeros_like(av)
        full[:, start:stop] = g
        return full

    return _record(a.tape, av[:, start:stop].copy(), [(a, grad)])


def rows(a: Var, start: int, stop: int) -> Var:
    """Row slice [start:stop] along axis 0."""
    av = a.value

    def grad(g):
        full = np.zeros_like(av)
        full[start:stop] = g
        return full

    return _record(a.tape, av[start:stop].copy(), [(a, grad)])


def gather_rows(a: Var, idx: np.ndarray) -> Var:
    """Select rows by a non-negative integer index array. Backward
    scatter-adds with one bincount per column: each row's sum starts at 0.0
    and adds its gradients in index order, as an unbuffered scatter-add
    does, so the sums are equal bit for bit."""
    idx = np.asarray(idx)
    av = a.value

    def scatter(g):
        flat = g.reshape(idx.size, math.prod(av.shape[1:]))
        full = np.empty((len(av), flat.shape[1]))
        for j, col in enumerate(flat.T):
            full[:, j] = np.bincount(idx.ravel(), weights=col, minlength=len(av))
        return full.reshape(av.shape)

    return _record(a.tape, av[idx], [(a, scatter)])


def scatter_rows(a: Var, idx: np.ndarray, n: int) -> Var:
    """n zero rows with row idx[i] set to a[i]; the indices are distinct."""
    idx = np.asarray(idx)
    av = a.value
    out = np.zeros((n,) + av.shape[1:])
    out[idx] = av
    return _record(a.tape, out, [(a, lambda g: g[idx])])


def backward(tape: Tape, output: Var) -> dict[str, np.ndarray]:
    """Gradients of a scalar output w.r.t. every leaf on the tape.

    Leaves not reachable from `output` get exact-zero gradients, and so do
    all leaves when no trainable leaf reaches `output`.
    """
    out_val = tape.nodes[output.idx].value
    if not np.isscalar(out_val) and np.ndim(out_val) != 0:
        raise ValueError("backward() requires a scalar output node")
    grads: list = [None] * (output.idx + 1)
    grads[output.idx] = 1.0
    result: dict[str, np.ndarray] = {}
    for i in range(output.idx, -1, -1):
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
    """Flat float64 parameter storage with a name -> (offset, shape) registry."""

    def __init__(self):
        self.data = np.zeros(0, dtype=np.float64)
        self._slots: dict[str, tuple[int, tuple[int, ...]]] = {}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ParamVector":
        pv = cls()
        for name, arr in arrays.items():
            pv.register(name, arr)
        return pv

    def register(self, name: str, arr: np.ndarray) -> None:
        if name in self._slots:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.asarray(arr, dtype=np.float64)
        offset = self.data.size
        self._slots[name] = (offset, arr.shape, arr.size)
        self.data = np.concatenate([self.data, arr.ravel()])

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
        """Put every registered array on a tape; non-trainable ones as constants."""
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


@dataclass
class AdamState:
    """Moment estimates and step counter for Adam."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3

    @classmethod
    def init(cls, n: int, lr: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0,
                   beta1=beta1, beta2=beta2, eps=eps, lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState
              ) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"length mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}"
        )
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new, AdamState(m=m, v=v, step=t, beta1=state.beta1,
                          beta2=state.beta2, eps=state.eps, lr=state.lr)


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

    def __float__(self) -> float:
        return self.max_rel_err


class _ConstantTape(Tape):
    """A tape that puts every leaf on as a constant: a central-difference
    probe needs values and branch tokens only, never a gradient closure."""

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
