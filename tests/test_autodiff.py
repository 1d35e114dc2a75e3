"""Tape engine, Adam and the finite-difference checker."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from sdfblend import autodiff as ad
from sdfblend.autodiff import (
    AdamState, NonFiniteError, ParamVector, Tape, adam_step, backward,
    finite_diff_check,
)


def test_square_gradient():
    t = Tape()
    a = t.leaf(3.0, "a")
    g = backward(t, a * a)
    assert g["a"] == 6.0


def test_product_gradient():
    t = Tape()
    a, b = t.leaf(2.0, "a"), t.leaf(5.0, "b")
    g = backward(t, a * b)
    assert g["a"] == 5.0
    assert g["b"] == 2.0


def _mlp_objective(widths):
    """Random MLP with a scalar output; returns (objective, params)."""
    rng = np.random.default_rng(42)
    dims = list(widths)
    arrays = {}
    for i in range(len(dims) - 1):
        arrays[f"w{i}"] = rng.normal(0, 0.5, (dims[i], dims[i + 1]))
        arrays[f"b{i}"] = rng.normal(0, 0.1, dims[i + 1])
    pv = ParamVector.from_arrays(arrays)
    x = rng.normal(0, 1.0, (4, dims[0]))

    def objective(tape, params):
        leaves = params.leaves(tape)
        h = tape.constant(x)
        for i in range(len(dims) - 1):
            h = ad.add(ad.matmul(h, leaves[f"w{i}"]), leaves[f"b{i}"])
            if i < len(dims) - 2:
                h = ad.sigmoid(h)
        return ad.vmean(ad.mul(h, h))

    return objective, pv


def test_mlp_matches_finite_differences():
    objective, pv = _mlp_objective([3, 8, 8, 1])
    res = finite_diff_check(objective, pv, h=1e-5)
    assert res.max_rel_err <= 1e-5
    assert res.n_checked == len(pv)


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5)
    pv = ParamVector.from_arrays({"x": x})

    def f(tape, leaves):
        return ad.vsum(ad.mul(leaves["x"], leaves["x"]))

    def g(tape, leaves):
        return ad.vsum(ad.exp(leaves["x"]))

    t1 = Tape()
    lv = pv.leaves(t1)
    gf = backward(t1, f(t1, lv))["x"]
    t2 = Tape()
    lv = pv.leaves(t2)
    gg = backward(t2, g(t2, lv))["x"]
    t3 = Tape()
    lv = pv.leaves(t3)
    gsum = backward(t3, ad.add(f(t3, lv), g(t3, lv)))["x"]
    np.testing.assert_allclose(gsum, gf + gg, rtol=1e-14)


def test_unreachable_leaves_get_exact_zero():
    t = Tape()
    a = t.leaf(np.ones(3), "a")
    b = t.leaf(np.ones(4), "b")
    out = ad.vsum(ad.mul(a, a))
    g = backward(t, out)
    assert np.all(g["b"] == 0.0)
    assert g["b"].shape == (4,)


def test_backward_rejects_vector_output():
    t = Tape()
    a = t.leaf(np.ones(3), "a")
    with pytest.raises(ValueError):
        backward(t, ad.mul(a, a))


def test_subgradient_conventions():
    # abs at 0 -> 0; max tie -> left wins
    t = Tape()
    a = t.leaf(0.0, "a")
    assert backward(t, ad.absolute(a))["a"] == 0.0
    t = Tape()
    a, b = t.leaf(1.0, "a"), t.leaf(1.0, "b")
    g = backward(t, ad.maximum(a, b))
    assert g["a"] == 1.0 and g["b"] == 0.0
    t = Tape()
    a, b = t.leaf(1.0, "a"), t.leaf(1.0, "b")
    g = backward(t, ad.minimum(a, b))
    assert g["a"] == 1.0 and g["b"] == 0.0


def _relu_layer(t, x, trainable=False):
    """mlp(x) of a ReLU layer x @ 1 + -0.0, then a linear layer r @ 1 + -0.0.
    Adding -0.0 keeps every value, but the GEMM x @ 1 may not: OpenBLAS
    sums from +0.0, so a -0.0 input reaches the ReLU as +0.0 (asserted in
    test_dense_relu_special_values_bit_for_bit). With `trainable`, x is a
    trainable leaf, so the node records a VJP."""
    h = np.reshape(x, (-1, 1))
    one, zero = np.ones((1, 1)), np.array([-0.0])
    return ad.mlp(t.leaf(h, "h") if trainable else t.constant(h),
                  [t.constant(one), t.constant(one)],
                  [t.constant(zero), t.constant(zero)])


def test_dense_relu_special_values_bit_for_bit():
    # NaN maps to +0.0, as np.where(x > 0, x, 0) does. A -0.0 would stay
    # -0.0 through ad.mlp's fmax, where np.where gives +0.0; the two agree
    # only because the GEMM turns a -0.0 input into a +0.0 pre-activation,
    # which ad.mlp's fmax comment relies on, so a BLAS that returns -0.0
    # fails here by name
    x = np.tile([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-310, -1e-310, -1.5, 2.5],
                50)
    negative_zero = (x == 0.0) & np.signbit(x)
    assert negative_zero.any()
    pre = (np.reshape(x, (-1, 1)) @ np.ones((1, 1)) + np.array([-0.0]))[:, 0]
    assert not np.signbit(pre[negative_zero]).any(), \
        "the BLAS GEMM keeps -0.0, so fmax would pass -0.0 through the ReLU"
    expected = np.where(x > 0.0, x, 0.0)
    for trainable in (False, True):
        out = _relu_layer(Tape(), x, trainable).value[:, 0]
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))


def test_dense_relu_has_derivative_zero_at_the_kink():
    # trained weights take every row; frozen ones the rows whose cotangent
    # is nonzero (here both)
    for train_weights in (True, False):
        t = Tape()
        h = t.leaf(np.array([[0.0], [2.0]]), "h")
        var = t.leaf if train_weights else (lambda v, name: t.constant(v))
        w, b = var(np.ones((1, 1)), "w"), var(np.zeros(1), "b")
        out = ad.mlp(h, [w, t.constant(np.ones((1, 1)))],
                     [b, t.constant(np.zeros(1))])
        g = backward(t, ad.vsum(out))
        np.testing.assert_array_equal(g["h"], [[0.0], [1.0]])
        if train_weights:
            np.testing.assert_array_equal(g["w"], [[2.0]])
            np.testing.assert_array_equal(g["b"], [1.0])


def _unfused_mlp(x, weights, biases, skip_at=()):
    """The chain the mlp node replaced: concat at skip layers, then matmul,
    add and a where-ReLU, as separate nodes."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        if i in skip_at:
            h = ad.concat([h, x], axis=1)
        h = ad.add(ad.matmul(h, w), b)
        if i < len(weights) - 1:
            mask = h.value > 0.0
            h.tape.note_branch(np.asarray(mask, dtype=np.int8))
            h = ad.where(mask, h, 0.0)
    return h


def _mlp_against_chain(widths, skip_at=(), trained=("x", "w", "b"),
                       n_rows=40, live_rows=None, seed=3):
    """Values, gradients and branch tokens of ad.mlp and of the unfused
    chain on the same random inputs, asserted equal bit for bit. A second
    node (one layer, or two with a hidden ReLU when the first has one)
    reads the first node's output and reuses its last bias in every layer,
    so gradients accumulate across nodes and within one. The loss weights
    both outputs by r, which is zero outside `live_rows` (None: all rows).
    Rows landing exactly on a kink are included."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(n_rows, widths[0]))
    x0[::5] = 0.0  # rows that land exactly on the kink
    layer_in = [widths[i] + (widths[0] if i in skip_at else 0)
                for i in range(len(widths) - 1)]
    w0 = [rng.normal(size=(i, o)) for i, o in zip(layer_in, widths[1:])]
    b0 = [rng.normal(size=o) for o in widths[1:]]
    b0[0][1 % len(b0[0])] = 0.0
    r = rng.normal(size=(n_rows, widths[-1]))
    v0 = [rng.normal(size=(widths[-1], widths[-1]))
          for _ in range(2 if len(widths) > 2 else 1)]
    if live_rows is not None:
        r[np.setdiff1d(np.arange(n_rows), live_rows)] = 0.0
    results = []
    for fused in (True, False):
        t = Tape(record_branches=True)

        def var(v, name, kind):
            return t.leaf(v, name) if kind in trained else t.constant(v)

        x = var(x0, "x", "x")
        ws = [var(w, f"w{i}", "w") for i, w in enumerate(w0)]
        bs = [var(b, f"b{i}", "b") for i, b in enumerate(b0)]
        layer = ad.mlp if fused else _unfused_mlp
        out = layer(x, ws, bs, skip_at)
        vs = [var(v, f"v{i}", "w") for i, v in enumerate(v0)]
        out2 = layer(out, vs, [bs[-1]] * len(vs))
        loss = ad.vsum(ad.mul(ad.add(out, out2), r))
        results.append((out.value, out2.value, backward(t, loss),
                        t.branch_signature()))
    (fv, fv2, fg, fsig), (uv, uv2, ug, usig) = results
    np.testing.assert_array_equal(fv.view(np.int64), uv.view(np.int64))
    np.testing.assert_array_equal(fv2.view(np.int64), uv2.view(np.int64))
    assert fg.keys() == ug.keys() and len(fg) > 0
    for name in fg:
        np.testing.assert_array_equal(fg[name].view(np.int64),
                                      ug[name].view(np.int64), err_msg=name)
    assert fsig == usig and (len(fsig) > 0) == (len(widths) > 2)
    return fg


@pytest.mark.parametrize("relu", [True, False])
def test_dense_equals_unfused_chain_bit_for_bit(relu):
    # relu: a hidden ReLU layer before the linear one; else one linear layer
    _mlp_against_chain([6, 4, 3] if relu else [6, 4])


def test_mlp_with_a_skip_layer_equals_unfused_chain_bit_for_bit():
    # a skip at layer 2 re-reads x, at layer 0 x is read twice
    _mlp_against_chain([5, 7, 6, 1], skip_at=(2,))
    _mlp_against_chain([5, 7, 6, 1], skip_at=(0, 2))
    _mlp_against_chain([5, 7, 6, 1], skip_at=(2,), trained=("w",))


@pytest.mark.parametrize("skip_at", [(), (2,), (0, 2)])
def test_mlp_rows_with_zero_cotangent_skip_the_backward_bit_for_bit(skip_at):
    """Frozen weights: the backward pass runs on the 40 live rows padded to
    one ROW_BLOCK of a 1024-row batch, and still gives the full chain's
    input gradient, zero on every other row. At skip_at (0, 2) x is read
    twice, and a frozen node stores no layer input, so each skip layer's
    split of its cotangent takes its width from the weight's fan-in."""
    live = np.arange(3, 1024, 26)
    grads = _mlp_against_chain([19, 48, 48, 1], skip_at, trained=("x",),
                               n_rows=1024, live_rows=live)
    dead = np.setdiff1d(np.arange(1024), live)
    assert np.all(grads["x"][dead] == 0.0) and np.any(grads["x"][live] != 0.0)
    # trained weights sum over every row, so every row is run
    _mlp_against_chain([19, 48, 48, 1], skip_at, trained=("x", "b"),
                       n_rows=1024, live_rows=live)
    # no live row at all: a zero gradient
    grads = _mlp_against_chain([19, 48, 1], skip_at[:0], trained=("x",),
                               n_rows=512, live_rows=[])
    assert np.all(grads["x"] == 0.0)


def test_mlp_node_holds_masks_when_the_decoder_is_frozen():
    """What an mlp node over 4,096 rows of the benchmark decoder shape
    [19, 48, 48, 48, 1] holds once its forward pass has returned
    (tracemalloc counts numpy's buffers; x and the weights exist before):

    * frozen decoder, x trainable: one bool mask per hidden layer, 4,096 x
      48 x 1 B each, and the float64 output, 4,096 x 8 B: in all 4,096 x
      (3 * 48 + 8) B = 622,592 B (0.62 MB). The bound adds 16 KiB for the
      node's Python objects. Keeping the three float activations instead,
      4,096 x 48 x 8 B each, holds 4,751,360 B (4.75 MB);
    * a trained decoder keeps those activations, since the weight
      gradients read them;
    * a tape of constants keeps the output only."""
    rng = np.random.default_rng(16)
    widths, n = [19, 48, 48, 48, 1], 4096
    x0 = rng.normal(size=(n, widths[0]))
    w0 = [rng.normal(size=s) / np.sqrt(s[0]) for s in zip(widths, widths[1:])]
    b0 = [rng.normal(size=k) for k in widths[1:]]
    out_bytes, masks, acts = n * 8, 3 * n * 48, 3 * n * 48 * 8
    slack = 16 * 1024

    def held(train_x, train_decoder):
        t = Tape()
        x = t.leaf(x0, "x") if train_x else t.constant(x0)
        var = t.leaf if train_decoder else (lambda v, name: t.constant(v))
        ws = [var(w, f"w{i}") for i, w in enumerate(w0)]
        bs = [var(b, f"b{i}") for i, b in enumerate(b0)]
        tracemalloc.start()
        try:
            out = ad.mlp(x, ws, bs)
            return tracemalloc.get_traced_memory()[0], out
        finally:
            tracemalloc.stop()

    frozen, out = held(True, False)
    assert out.idx is not None and out.shape == (n, 1)
    assert masks + out_bytes <= frozen <= masks + out_bytes + slack
    trained, out = held(False, True)
    assert out.idx is not None
    assert acts + out_bytes <= trained <= acts + out_bytes + slack
    constant, out = held(False, False)
    assert out.idx is None
    assert out_bytes <= constant <= out_bytes + slack


def test_dense_finite_difference():
    rng = np.random.default_rng(4)
    pv = ParamVector.from_arrays({
        "h": rng.normal(size=(5, 3)), "w0": rng.normal(size=(3, 4)),
        "b0": rng.normal(size=4), "w1": rng.normal(size=(4, 2)),
        "b1": rng.normal(size=2),
    })

    def objective(tape, p):
        v = p.leaves(tape)
        h = ad.mlp(v["h"], [v["w0"], v["w1"]], [v["b0"], v["b1"]])
        return ad.vsum(ad.mul(h, h))

    res = finite_diff_check(objective, pv, h=1e-6)
    assert res.n_checked > 0.9 * len(pv)
    assert res.max_rel_err < 1e-6


def test_mlp_row_sparse_backward_finite_difference():
    """Frozen weights and a skip layer; the loss reads 40 of 512 rows, so the
    backward pass runs on one ROW_BLOCK of them."""
    rng = np.random.default_rng(5)
    w = [rng.normal(size=(3, 4)), rng.normal(size=(7, 4)), rng.normal(size=(4, 1))]
    b = [rng.normal(size=4), rng.normal(size=4), rng.normal(size=1)]
    r = np.zeros((512, 1))
    r[::13] = rng.normal(size=(40, 1))
    pv = ParamVector.from_arrays({"h": rng.normal(size=(512, 3))})

    def objective(tape, p):
        out = ad.mlp(p.leaves(tape)["h"], [tape.constant(v) for v in w],
                     [tape.constant(v) for v in b], skip_at=(1,))
        return ad.vsum(ad.mul(ad.mul(out, out), r))

    res = finite_diff_check(objective, pv, h=1e-6)
    assert res.n_checked > 0.9 * len(pv)
    assert res.max_rel_err < 1e-6


def test_finite_diff_probes_put_leaves_on_as_constants():
    tapes = []

    def objective(tape, p):
        tapes.append(tape)
        x = p.leaves(tape)["x"]
        return ad.vsum(ad.mul(ad.absolute(x), x))

    res = finite_diff_check(objective, ParamVector.from_arrays({"x": np.arange(1.0, 4.0)}))
    assert res.n_checked == 3 and res.max_rel_err < 1e-8
    # the analytic pass records gradients; its 2 probes per coordinate hold
    # no node, yet note the branch tokens that decide exclusion
    assert len(tapes) == 7
    assert [len(t.nodes) > 0 for t in tapes] == [True] + [False] * 6
    assert all(t.branch_signature() == b"\x01" * 3 for t in tapes[1:])


def test_ops_on_constants_leave_the_tape_empty():
    """An op on constants is a constant: no node is pushed, whether or not
    the tape records branch tokens."""
    rng = np.random.default_rng(13)
    for record_branches in (False, True):
        t = Tape(record_branches=record_branches)
        u, v = (t.constant(rng.uniform(0.5, 2.0, (4, 3))) for _ in range(2))
        outs = _all_ops(t, u, v, t.constant(rng.normal(size=(3, 2))))
        assert len(outs) == 19
        assert all(isinstance(o, ad.Var) and o.idx is None for o in outs)
        assert t.nodes == []
        assert (t.branch_signature() != b"") == record_branches


@pytest.mark.parametrize("trainable", [False, True])
def test_kinked_ops_note_branches_only_when_recording(trainable):
    x = np.array([-1.0, 0.0, 2.0])
    y = np.array([0.5, 0.0, 3.0])

    def var(t, v, name):
        return t.leaf(v, name) if trainable else t.constant(v)

    ops = [
        lambda t: _relu_layer(t, x, trainable),
        lambda t: ad.absolute(var(t, x, "x")),
        lambda t: ad.maximum(var(t, x, "x"), var(t, y, "y")),
        lambda t: ad.minimum(var(t, x, "x"), y),
    ]
    for op in ops:
        recording = Tape(record_branches=True)
        op(recording)
        assert len(recording.branch_signature()) == x.size  # one int8 per entry
        silent = Tape()
        op(silent)
        assert silent.branch_signature() == b""


def _scatter_reference(idx, g, n_rows):
    full = np.zeros((n_rows,) + g.shape[1:])
    np.add.at(full, idx, g)
    return full


@pytest.mark.parametrize("width", [None, 1, 5])
def test_gather_rows_scatter_equals_add_at_bit_for_bit(width):
    rng = np.random.default_rng(11 + (width or 0))
    n_rows = 9  # rows 7 and 8 are never gathered
    idx = np.concatenate([rng.integers(0, 7, 400), [6, 0, 6, 6, 3]])
    shape = (n_rows,) if width is None else (n_rows, width)
    t = Tape()
    a = t.leaf(rng.normal(size=shape), "a")
    out = ad.gather_rows(a, idx)
    # magnitudes spread over 16 decades, so any other order of the
    # additions would change the low bits
    g = rng.normal(size=out.shape) * 10.0 ** rng.uniform(-8, 8, out.shape)
    (scattered,) = t.nodes[out.idx].vjp(g)
    expected = _scatter_reference(idx, g, n_rows)
    assert scattered.shape == shape
    np.testing.assert_array_equal(scattered.view(np.int64),
                                  expected.view(np.int64))
    assert np.all(scattered[7:] == 0.0)
    grads = backward(t, ad.vsum(ad.mul(out, g)))
    np.testing.assert_array_equal(grads["a"].view(np.int64),
                                  expected.view(np.int64))


def _all_ops(t, u, v, m):
    """Every op once, on u and v (Vars or constants) of shape (4, 3) and a
    (3, 2) matrix m."""
    mask = np.array([[True, False, True]] * 4)
    return [
        ad.add(u, v), ad.sub(u, v), ad.mul(u, v), ad.div(u, v),
        ad.maximum(u, v), ad.minimum(u, v), ad.where(mask, u, v),
        ad.matmul(u, m), ad.mlp(u, [m], [ad.vsum(m, axis=0)]),
        ad.concat([u, v], axis=1),
    ] + [
        op(u) for op in (ad.neg, ad.exp, ad.sqrt, ad.absolute,
                         ad.sigmoid, ad.vsum,
                         lambda x: ad.cols(x, 1, 3), lambda x: ad.rows(x, 0, 2),
                         lambda x: ad.gather_rows(x, [3, 0, 3]))
    ]


def test_ops_on_constants_record_no_parents_and_no_vjp():
    """With one trainable operand only that operand becomes a parent; see
    test_ops_on_constants_leave_the_tape_empty for ops on constants only."""
    rng = np.random.default_rng(12)
    u0, v0 = rng.uniform(0.5, 2.0, (4, 3)), rng.uniform(0.5, 2.0, (4, 3))
    m0 = rng.normal(size=(3, 2))
    t = Tape()
    u, v, m = t.leaf(u0, "u"), t.constant(v0), t.constant(m0)
    outs = _all_ops(t, u, v, m)
    assert len(outs) == 19
    for out in outs:
        node = t.nodes[out.idx]
        assert node.vjp is not None
        assert node.parents == (u.idx,)
    assert len(t.nodes) == 1 + len(outs)  # the leaf and one node per op


def test_backward_of_a_constant_output_gives_zero_gradients():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0]), "a")
    c = t.constant(np.array([3.0, 4.0]))
    ad.mul(a, c)
    out = ad.vsum(ad.exp(c))
    assert out.idx is None
    t.leaf(np.array([5.0, 6.0, 7.0]), "late")  # created after the output
    g = backward(t, out)
    assert g.keys() == {"a", "late"}
    np.testing.assert_array_equal(g["a"].view(np.int64), np.zeros(2, np.int64))
    np.testing.assert_array_equal(g["late"].view(np.int64), np.zeros(3, np.int64))
    # a leaf created after a recorded output gets an exact zero too
    g = backward(t, ad.vsum(ad.mul(a, c)))
    np.testing.assert_array_equal(g["a"], [3.0, 4.0])
    np.testing.assert_array_equal(g["late"].view(np.int64), np.zeros(3, np.int64))


# ---------------------------------------------------------------------------
# Adam


def _reference_adam(params, grads_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent textbook implementation."""
    p = params.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_adam_zero_gradients_leave_params_unchanged():
    p = np.array([1.0, -2.0, 3.0])
    state = AdamState.init(3)
    new, state = adam_step(p, np.zeros(3), state)
    assert np.array_equal(new, p)
    new, _ = adam_step(new, np.zeros(3), state)
    assert np.array_equal(new, p)


def test_adam_first_step_matches_hand_evaluation():
    # g=1: m_hat=1, v_hat=1 -> step = -lr / (1 + eps)
    p = np.array([0.0])
    state = AdamState.init(1, lr=1e-3)
    new, _ = adam_step(p, np.array([1.0]), state)
    expected = -1e-3 * 1.0 / (np.sqrt(1.0) + 1e-8)
    assert abs(new[0] - expected) < 1e-18
    assert abs(new[0] + 1e-3) < 1e-10


def test_adam_matches_reference_over_ten_steps():
    rng = np.random.default_rng(11)
    p = rng.normal(size=7)
    grads = [rng.normal(size=7) for _ in range(10)]
    state = AdamState.init(7, lr=0.01)
    mine = p.copy()
    for g in grads:
        mine, state = adam_step(mine, g, state)
    ref = _reference_adam(p, grads, lr=0.01)
    np.testing.assert_allclose(mine, ref, atol=1e-12, rtol=0)


def test_adam_length_mismatch_raises():
    state = AdamState.init(3)
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(4), state)


def test_adam_is_deterministic():
    p = np.linspace(-1, 1, 5)
    g = np.linspace(0.5, -0.5, 5)
    a, _ = adam_step(p, g, AdamState.init(5, lr=0.02))
    b, _ = adam_step(p, g, AdamState.init(5, lr=0.02))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# finite_diff_check


def test_fd_check_quadratic_is_exact():
    pv = ParamVector.from_arrays({"x": np.array([1.0, -2.0, 0.5])})

    def objective(tape, params):
        leaves = params.leaves(tape)
        return ad.vsum(ad.mul(leaves["x"], leaves["x"]))

    res = finite_diff_check(objective, pv, h=1e-5)
    assert res.max_rel_err <= 1e-9


def test_fd_check_excludes_abs_kink():
    pv = ParamVector.from_arrays({"x": np.array([0.0, 1.0])})

    def objective(tape, params):
        leaves = params.leaves(tape)
        return ad.vsum(ad.absolute(leaves["x"]))

    res = finite_diff_check(objective, pv, h=1e-5)
    assert res.excluded == [0]
    assert res.n_checked == 1
    assert res.max_rel_err <= 1e-9


def test_fd_check_rejects_nonfinite_objective():
    pv = ParamVector.from_arrays({"x": np.array([1.0])})

    def objective(tape, params):
        leaves = params.leaves(tape)
        with np.errstate(divide="ignore"):
            return ad.div(leaves["x"], tape.constant(0.0))

    with pytest.raises(NonFiniteError):
        finite_diff_check(objective, pv, h=1e-5)


def test_fd_check_requires_positive_h():
    pv = ParamVector.from_arrays({"x": np.array([1.0])})
    with pytest.raises(ValueError):
        finite_diff_check(lambda t, p: t.constant(0.0), pv, h=0.0)


# ---------------------------------------------------------------------------
# ParamVector


def test_param_vector_views_and_layout():
    a = np.arange(6.0).reshape(2, 3)
    pv = ParamVector.from_arrays({"b": np.array([7.0]), "a": a,
                                  "i": np.array([[1, 2]])})
    assert len(pv) == 9
    assert pv.names() == ["b", "a", "i"]  # dict order
    assert [pv.slot(n) for n in pv.names()] == [
        (0, (1,), 1), (1, (2, 3), 6), (7, (1, 2), 2)]
    np.testing.assert_array_equal(pv.data, [7.0, *range(6), 1.0, 2.0])
    assert pv.data.dtype == np.float64
    assert pv.view("i").dtype == np.float64
    a[0, 0] = -5.0  # the vector holds a copy of its inputs
    assert pv.data[1] == 0.0
    pv.view("a")[0, 0] = 99.0
    assert pv.data[1] == 99.0
    flat = pv.flatten_grads({"b": np.array([2.0])})
    assert flat[0] == 2.0
    assert np.all(flat[1:] == 0.0)


def test_a_dropped_tape_is_freed_without_the_cycle_collector():
    """No VJP closure refers back to its tape, so a tape dropped after its
    backward pass frees its activations at once, not at the next run of
    the cycle collector (which counts objects, not bytes)."""
    rng = np.random.default_rng(13)
    gc.disable()
    try:
        t = Tape()
        u = t.leaf(rng.uniform(0.5, 2.0, (4, 3)), "u")
        v = t.leaf(rng.uniform(0.5, 2.0, (4, 3)), "v")
        m = t.leaf(rng.normal(size=(3, 2)), "m")
        outs = _all_ops(t, u, v, m)
        # frozen weights: the row-sparse backward of the decoder node
        outs.append(ad.mlp(u, [t.constant(np.ones((3, 1)))],
                           [t.constant(np.zeros(1))]))
        backward(t, sum(ad.vsum(o) for o in outs))
        ref = weakref.ref(t)
        del t, u, v, m, outs
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The blend's fused nodes against the chains they replaced


def _chain_decoder_input(t, pts, centers, latents, idx):
    """The chain ad.decoder_input replaced; returns x - c and the input."""
    d = ad.sub(t.constant(pts), ad.gather_rows(centers, idx))
    return d, ad.concat([d, ad.gather_rows(latents, idx)], axis=1)


def _stacked(parts):
    """np.stack of the values of `parts` as one node, in the layout of
    ad.rotation_columns: its VJP hands each part its slice."""
    return ad._record(parts[0].tape, np.stack([p.value for p in parts]),
                      [(p, lambda g, k=k: g[k]) for k, p in enumerate(parts)])


def _chain_domain_quadratic(d, b1, b2, b3, scales, idx):
    """The chain ad.domain_quadratic replaced, on the x - c rows `d`."""
    if len(idx) < d.shape[0]:
        d = ad.rows(d, 0, len(idx))
    dx, dy, dz = (ad.cols(d, k, k + 1) for k in range(3))
    rd = ad.add(ad.add(ad.mul(dx, ad.gather_rows(b1, idx)),
                       ad.mul(dy, ad.gather_rows(b2, idx))),
                ad.mul(dz, ad.gather_rows(b3, idx)))
    w = ad.mul(ad.gather_rows(scales, idx), rd)
    return ad.vsum(ad.mul(w, w), axis=1)


@pytest.mark.parametrize("trained", [
    ("centers", "latents", "b1", "b2", "b3", "scales"),
    ("centers", "latents"), ("latents",), ("b1", "scales"), ()])
@pytest.mark.parametrize("n_bases,extra", [(1, 0), (4, 0), (4, 37), (9, 5)])
def test_blend_nodes_equal_the_unfused_chain_bit_for_bit(trained, n_bases, extra):
    """decoder_input and domain_quadratic against the chains they replaced:
    the same values, the same gradient for every operand, and parents for
    the trained operands only. The input is read whole by one consumer
    (the decoder's place) and in its first rows by domain_quadratic; the
    cotangents and inputs span many decades, so a sum regrouped anywhere
    would change low bits."""
    rng = np.random.default_rng(60 + 7 * n_bases + extra)
    m, d_z = 96, 5
    idx = rng.integers(0, n_bases, m + extra)
    spread = lambda *shape: rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)
    arrays = {"centers": rng.normal(size=(n_bases, 3)),
              "latents": spread(n_bases, d_z),
              **{f"b{k}": rng.normal(size=(n_bases, 3)) for k in (1, 2, 3)},
              "scales": rng.uniform(0.5, 3.0, (n_bases, 3))}
    pts = spread(m + extra, 3)
    pts[::11] = arrays["centers"][idx[::11]]  # x - c exactly 0
    r_x, r_u = spread(m + extra, 3 + d_z), spread(m)
    r_u[::5] = 0.0
    results = []
    for fused in (True, False):
        t = Tape()
        v = {k: t.leaf(a, k) if k in trained else t.constant(a)
             for k, a in arrays.items()}
        if fused:
            v["rot"] = _stacked([v["b1"], v["b2"], v["b3"]])
            x = ad.decoder_input(pts, v["centers"], v["latents"], idx)
            u = ad.domain_quadratic(x, v["rot"], v["scales"], idx[:m])
            for node, operands in ((x, ("centers", "latents")),
                                   (u, ("rot", "scales"))):
                reached = [v[k].idx for k in operands if v[k].idx is not None]
                if node is u and x.idx is not None:
                    reached.insert(0, x.idx)
                assert (node.idx is None) == (not reached)
                assert not reached or t.nodes[node.idx].parents == tuple(reached)
        else:
            d, x = _chain_decoder_input(t, pts, v["centers"], v["latents"], idx)
            u = _chain_domain_quadratic(d, v["b1"], v["b2"], v["b3"],
                                        v["scales"], idx[:m])
        loss = ad.add(ad.vsum(ad.mul(x, r_x)), ad.vsum(ad.mul(u, r_u)))
        results.append((x.value, u.value, backward(t, loss)))
    (fx, fu, fg), (cx, cu, cg) = results
    np.testing.assert_array_equal(fx.view(np.int64), cx.view(np.int64))
    np.testing.assert_array_equal(fu.view(np.int64), cu.view(np.int64))
    assert fg.keys() == cg.keys() == set(trained)
    for name in fg:
        np.testing.assert_array_equal(fg[name].view(np.int64),
                                      cg[name].view(np.int64), err_msg=name)
        assert np.any(fg[name] != 0.0)


@pytest.mark.parametrize("trained", [("x", "w", "b"), ("x",)])
def test_mlp_backward_leaves_its_cotangent_and_activations_unchanged(trained):
    """The ReLU masks go into the pass's own arrays in place: the incoming
    cotangent is not written, and a second backward over the same tape
    (and a second call of the node's VJP) gives the same gradients.

    The second batch's first layer has NaN pre-activations (a NaN bias)
    and zero ones (a zero weight column, bias -0.0). fmax turns NaN into
    +0.0 and keeps a zero's sign, and `h > 0.0` is False for NaN and both
    zeros, so their masks are False whether the node stores activations
    (trained weights) or bool masks (frozen), and the gradients equal the
    unfused chain's bit for bit. A GEMM whose sums start at +0.0, as
    OpenBLAS's do, gives +0.0 for x @ 0, so -0.0 + that is +0.0 here."""
    rng = np.random.default_rng(14)
    shapes = ((6, 8), (14, 8), (8, 1))
    for n_rows, special in ((300, False), (512, True)):
        x0 = rng.normal(size=(n_rows, 6))
        ws = [rng.normal(size=s) for s in shapes]
        bs = [rng.normal(size=s[1]) for s in shapes]
        r = rng.normal(size=(n_rows, 1))
        if special:
            bs[0][2] = np.nan
            ws[0][:, 5], bs[0][5] = 0.0, -0.0
            pre = x0 @ ws[0] + bs[0]
            assert np.isnan(pre[:, 2]).all() and np.all(pre[:, 5] == 0.0)
            r[np.arange(n_rows) % 4 != 0] = 0.0  # frozen: one ROW_BLOCK runs
        else:
            r[::3] = 0.0  # frozen weights: the pass runs on the live rows only
        runs = []
        for layer in (ad.mlp, _unfused_mlp):
            t = Tape()
            x = t.leaf(x0, "x")
            wv = [t.leaf(w, f"w{i}") if "w" in trained else t.constant(w)
                  for i, w in enumerate(ws)]
            bv = [t.leaf(b, f"b{i}") if "b" in trained else t.constant(b)
                  for i, b in enumerate(bs)]
            out = layer(x, wv, bv, (1,))
            runs.append((t, out, ad.vsum(ad.mul(out, r))))
        t, out, loss = runs[0]
        first, second = backward(t, loss), backward(t, loss)
        assert first.keys() == second.keys()
        assert len(first) == (7 if "w" in trained else 1)
        for name in first:
            np.testing.assert_array_equal(first[name].view(np.int64),
                                          second[name].view(np.int64), err_msg=name)
            assert np.all(np.isfinite(first[name])), name
        if special:
            chain = backward(runs[1][0], runs[1][2])
            for name in first:
                np.testing.assert_array_equal(first[name].view(np.int64),
                                              chain[name].view(np.int64),
                                              err_msg=name)
        g = r.copy()
        vjp = t.nodes[out.idx].vjp
        once, twice = vjp(g), vjp(g)
        np.testing.assert_array_equal(g.view(np.int64), r.view(np.int64))
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
