"""Tape engine, Adam and the finite-difference checker."""

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
                h = ad.tanh(h)
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


def test_relu_forward_matches_where_bit_for_bit():
    # NaN and -0.0 map to +0.0, as np.where(x > 0, x, 0) does
    x = np.tile([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-310, -1e-310, -1.5, 2.5],
                50)
    expected = np.where(x > 0.0, x, 0.0)
    for tape in (Tape(), Tape(no_grad=True)):
        out = ad.relu(tape.constant(x)).value
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
    assert ad.relu(Tape().constant(-0.0)).value == 0.0


@pytest.mark.parametrize("no_grad", [False, True])
def test_kinked_ops_note_branches_only_when_recording(no_grad):
    x = np.array([-1.0, 0.0, 2.0])
    y = np.array([0.5, 0.0, 3.0])
    ops = [
        lambda t: ad.relu(t.constant(x)),
        lambda t: ad.absolute(t.constant(x)),
        lambda t: ad.maximum(t.constant(x), t.constant(y)),
        lambda t: ad.minimum(t.constant(x), y),
    ]
    for op in ops:
        recording = Tape(record_branches=True, no_grad=no_grad)
        op(recording)
        assert len(recording.branch_signature()) == x.size  # one int8 per entry
        silent = Tape(no_grad=no_grad)
        op(silent)
        assert silent.branch_signature() == b""


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
    pv = ParamVector.from_arrays({"a": np.arange(6.0).reshape(2, 3),
                                  "b": np.array([7.0])})
    assert len(pv) == 7
    assert pv.view("a").shape == (2, 3)
    assert pv.view("b")[0] == 7.0
    pv.view("a")[0, 0] = 99.0
    assert pv.data[0] == 99.0
    flat = pv.flatten_grads({"b": np.array([2.0])})
    assert flat[6] == 2.0
    assert np.all(flat[:6] == 0.0)


def test_param_vector_rejects_duplicate_names():
    pv = ParamVector.from_arrays({"a": np.zeros(2)})
    with pytest.raises(ValueError):
        pv.register("a", np.zeros(2))
