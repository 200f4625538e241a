import math
import weakref

import numpy as np
import pytest

from pdconv import autograd as ag
from pdconv import tensor as T
from pdconv.errors import ContractError, DataError


def finite_difference(f, x, step=1e-5):
    """Central-difference gradient of scalar f w.r.t. array x, in place."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f())
        flat[i] = orig - step
        fm = float(f())
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * step)
    return grad


def test_sum_gradient_is_ones():
    x = ag.parameter(np.random.default_rng(0).standard_normal((2, 1, 3, 3)))
    loss = ag.vsum(x)
    ag.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.value))


def test_square_gradient_is_two_x():
    x = ag.parameter(np.random.default_rng(1).standard_normal((1, 2, 3, 3)))
    loss = ag.vsum(ag.mul(x, x))
    ag.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.value, rtol=1e-12)


def test_fanout_accumulates():
    x = ag.parameter(np.random.default_rng(2).standard_normal((1, 1, 2, 2)))
    loss = ag.vsum(ag.add(x, x))
    ag.backward(loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones_like(x.value))


def test_backward_requires_scalar():
    x = ag.parameter(np.ones((1, 1, 2, 2)))
    y = ag.mul(x, x)
    with pytest.raises(ContractError):
        ag.backward(y)


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    x = ag.parameter(rng.standard_normal((1, 2, 5, 5)))
    w = ag.parameter(rng.standard_normal((2, 2, 3, 3)))

    def grads():
        y = ag.conv(x, w, T.ConvSpec(kernel=(3, 3)))
        ag.backward(ag.vsum(ag.mul(y, y)))
        return x.grad.copy(), w.grad.copy()

    (gx1, gw1), (gx2, gw2) = grads(), grads()
    assert np.array_equal(gx1, gx2) and gx1.tobytes() == gx2.tobytes()
    assert gw1.tobytes() == gw2.tobytes()


def _fan_out_graph():
    """Leaves x, w, c and interior nodes y, z, loss, where y, x and z fan out."""
    rng = np.random.default_rng(5)
    x = ag.parameter(rng.standard_normal((2, 3, 6, 6)))
    w = ag.parameter(rng.standard_normal((3, 1, 3, 3)))
    c = ag.Var(rng.standard_normal((1, 3, 1, 1)))  # a constant leaf
    y = ag.conv(x, w, T.depthwise_spec(3, (3, 3), 1))
    z = ag.add(ag.mul(y, c), y)  # y fans out to mul and add
    loss = ag.vsum(ag.mul(z, ag.add(x, z)))  # so do x and z
    return (x, w, c), (y, z, loss)


def test_backward_frees_interior_grads_and_keeps_leaf_grads():
    grads = []
    for _ in range(2):  # the same graph, built twice from the same inputs
        leaves, interior = _fan_out_graph()
        ag.backward(interior[-1])
        assert all(node.grad is None for node in interior)
        assert all(node.grad is not None for node in leaves)
        grads.append([node.grad.tobytes() for node in leaves])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("second_root", ["same_root", "new_graph_on_consumed_node"])
def test_second_backward_on_a_consumed_graph_raises(second_root):
    (x, w, _), (y, z, loss) = _fan_out_graph()
    ag.backward(loss)
    first = [x.grad.tobytes(), w.grad.tobytes()]
    assert y.parents == z.parents == loss.parents == ()
    root = loss if second_root == "same_root" else ag.vsum(ag.mul(z, x))
    with pytest.raises(ContractError, match="consumed by an earlier backward; build it again"):
        ag.backward(root)
    if second_root == "same_root":  # backward fails before any leaf gradient is touched
        assert [x.grad.tobytes(), w.grad.tobytes()] == first


def test_backward_runs_under_the_small_buffer_and_restores_the_callers(caller_bufsize):
    x = ag.parameter(np.arange(3.0))
    seen = []
    # x's value again, through a rule that records the buffer size it runs under
    probe = ag.Var(x.value, (x,), lambda g: seen.append(np.getbufsize()) or (g,))
    ag.backward(ag.vsum(probe))
    assert seen == [ag.UFUNC_BUFSIZE] and ag.UFUNC_BUFSIZE != caller_bufsize
    assert np.getbufsize() == caller_bufsize
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_restores_the_callers_buffer_when_it_raises(caller_bufsize, monkeypatch):
    seen = []
    consumed = ag._consumed
    monkeypatch.setattr(ag, "_consumed", lambda g: seen.append(np.getbufsize()) or consumed(g))
    loss = ag.vsum(ag.parameter(np.arange(3.0)))
    ag.backward(loss)
    assert seen == [] and np.getbufsize() == caller_bufsize
    with pytest.raises(ContractError, match="consumed by an earlier backward"):
        ag.backward(loss)
    assert seen == [ag.UFUNC_BUFSIZE]  # the raise came from inside the buffer
    assert np.getbufsize() == caller_bufsize


def test_backward_frees_an_interior_value_nobody_holds():
    rng = np.random.default_rng(11)
    x = ag.parameter(rng.standard_normal((2, 3, 8, 8)))
    w = ag.parameter(rng.standard_normal((3, 1, 3, 3)))
    y = ag.conv(x, w, T.depthwise_spec(3, (3, 3), 1))
    freed = weakref.ref(y.value)  # Var has no __weakref__; its value does
    loss = ag.vsum(ag.mul(ag.relu(y), y))
    del y
    assert freed() is not None  # the graph still reads it
    ag.backward(loss)
    assert freed() is None and np.isfinite(loss.value)  # the root is still held
    assert x.grad is not None and w.grad is not None


def test_backward_keeps_a_held_value_and_frees_what_it_was_built_from():
    rng = np.random.default_rng(12)
    x = ag.parameter(rng.standard_normal((2, 3, 8, 8)))
    w = ag.parameter(rng.standard_normal((3, 1, 3, 3)))
    y = ag.conv(x, w, T.depthwise_spec(3, (3, 3), 1))
    freed = weakref.ref(y.value)
    held = ag.relu(ag.mul(y, y))  # the caller reads this value after backward
    before = held.value.copy()
    del y
    ag.backward(ag.vsum(ag.mul(held, x)))
    assert held.value.tobytes() == before.tobytes()
    assert freed() is None  # holding `held` does not keep its inputs alive


def test_conv_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = ag.parameter(rng.standard_normal((1, 2, 5, 5)))
    w = ag.parameter(rng.standard_normal((2, 2, 3, 3)))
    spec = T.ConvSpec(kernel=(3, 3))

    def loss():
        return ag.vsum(ag.conv(x, w, spec))

    ag.backward(loss())
    numeric = finite_difference(lambda: loss().value, w.value)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(w.grad - numeric) / denom) <= 1e-6


def test_gradcheck_identity_zero_error():
    x = ag.parameter(np.random.default_rng(5).standard_normal((1, 1, 3, 3)))
    report = ag.gradcheck(lambda: ag.vsum(x), {"x": x})
    assert report.errors["x"] <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradcheck_fails_a_non_finite_analytic_gradient(bad):
    x = ag.parameter(np.array([1.0, 2.0]))

    def f():  # sum(x), whose rule gets the first entry wrong
        return ag.Var(x.value.sum(), (x,), lambda g: (np.array([bad, 1.0]) * g,))

    report = ag.gradcheck(f, {"x": x})
    assert report.errors == {"x": math.inf} and not report.passed()


def test_gradcheck_sampling_without_rng_is_refused():
    x = ag.parameter(np.random.default_rng(5).standard_normal((1, 1, 3, 3)))
    with pytest.raises(ContractError, match="rng"):
        ag.gradcheck(lambda: ag.vsum(x), {"x": x}, max_coords=4)


@pytest.mark.parametrize("seed", range(20))
def test_gradcheck_random_composites(seed):
    rng = np.random.default_rng(seed)
    x = ag.parameter(rng.standard_normal((1, 2, 5, 5)))
    w = ag.parameter(rng.standard_normal((2, 1, 3, 3)))
    spec = T.depthwise_spec(2, (3, 3), dilation=1 + seed % 2)

    def f():
        y = ag.conv(x, w, spec)
        y = ag.add(ag.mul(y, x), ag.relu(y))
        return ag.vsum(ag.mul(y, y))

    report = ag.gradcheck(f, {"x": x, "w": w})
    assert report.passed(1e-4), report.errors


def test_standardize_gradcheck():
    x = ag.parameter(np.random.default_rng(6).standard_normal((2, 2, 4, 4)))
    report = ag.gradcheck(lambda: ag.vsum(ag.mul(ag.standardize(x), x)), {"x": x})
    assert report.passed(1e-4), report.errors


def _unfused_norm_act(y, gamma, beta, residual=None):
    pre = ag.add(ag.mul(ag.standardize(y), gamma), beta)
    return ag.relu(pre if residual is None else ag.add(pre, residual))


def _norm_act_leaves(rng, dtype, with_residual):
    shape = (3, 4, 6, 5)
    arrays = {"y": rng.standard_normal(shape), "gamma": rng.standard_normal((1, 4, 1, 1)),
              "beta": rng.standard_normal((1, 4, 1, 1))}
    if with_residual:
        arrays["residual"] = rng.standard_normal(shape)
    return {k: v.astype(dtype) for k, v in arrays.items()}


@pytest.mark.parametrize("with_residual", [False, True], ids=["plain", "residual"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_norm_act_is_byte_equal_to_the_unfused_chain(dtype, with_residual):
    rng = np.random.default_rng(9)
    arrays = _norm_act_leaves(rng, dtype, with_residual)
    weight = ag.Var(rng.standard_normal(arrays["y"].shape).astype(dtype))
    results = []
    for op in (ag.norm_act, _unfused_norm_act):
        leaves = {k: ag.parameter(v) for k, v in arrays.items()}
        out = op(**leaves)
        ag.backward(ag.vsum(ag.mul(out, weight)))
        results.append([out.value.tobytes()] + [leaves[k].grad.tobytes() for k in arrays])
    assert results[0] == results[1]
    # the relu is x * mask: a negative pre-activation gives -0.0 in both
    assert out.dtype == dtype and np.signbit(out.value[out.value == 0]).any()


@pytest.mark.parametrize("with_residual", [False, True], ids=["plain", "residual"])
def test_norm_act_gradcheck(with_residual):
    rng = np.random.default_rng(10)
    params = {k: ag.parameter(v)
              for k, v in _norm_act_leaves(rng, np.float64, with_residual).items()}
    weight = ag.Var(rng.standard_normal(params["y"].shape))
    report = ag.gradcheck(lambda: ag.vsum(ag.mul(ag.norm_act(**params), weight)), params)
    assert report.passed(ag.GRADCHECK_TOL), report.errors


def test_upsample_gradcheck():
    x = ag.parameter(np.random.default_rng(7).standard_normal((1, 2, 3, 3)))
    mask = np.random.default_rng(8).standard_normal((1, 2, 6, 6))
    report = ag.gradcheck(
        lambda: ag.vsum(ag.mul(ag.upsample_bilinear(x, (6, 6)), ag.Var(mask))), {"x": x})
    assert report.passed(1e-4), report.errors


def test_cross_entropy_uniform_logits():
    logits = ag.parameter(np.zeros((1, 4, 2, 2)))
    labels = np.zeros((1, 2, 2), dtype=np.int64)
    loss = ag.cross_entropy(logits, labels)
    assert abs(float(loss.value) - np.log(4)) < 1e-12


def test_cross_entropy_saturated_logits():
    logits = np.zeros((1, 3, 2, 2))
    logits[0, 1] = 1000.0
    labels = np.ones((1, 2, 2), dtype=np.int64)
    loss = ag.cross_entropy(ag.Var(logits), labels)
    assert float(loss.value) < 1e-9


def test_cross_entropy_hand_computed():
    logits = np.array([[[[0.3, -0.2], [1.0, 0.0]],
                        [[0.1, 0.4], [-1.0, 2.0]]]])
    labels = np.array([[[0, 1], [1, 0]]])
    expected = 0.0
    for h in range(2):
        for w in range(2):
            z = logits[0, :, h, w]
            p = np.exp(z) / np.exp(z).sum()
            expected -= np.log(p[labels[0, h, w]])
    expected /= 4
    loss = ag.cross_entropy(ag.Var(logits), labels)
    assert abs(float(loss.value) - expected) < 1e-12


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(9)
    logits = ag.parameter(rng.standard_normal((1, 3, 3, 3)))
    labels = rng.integers(0, 3, size=(1, 3, 3))
    report = ag.gradcheck(lambda: ag.cross_entropy(logits, labels), {"logits": logits})
    assert report.passed(1e-4), report.errors


def test_cross_entropy_rejects_bad_label():
    logits = ag.Var(np.zeros((1, 2, 2, 2)))
    labels = np.array([[[0, 1], [1, 5]]])
    with pytest.raises(DataError,
                       match=r"cross_entropy: label 5 out of range \[0,2\) at \(0, 1, 1\)"):
        ag.cross_entropy(logits, labels)


def test_softmax_rows_sum_to_one_and_loss_nonneg():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((2, 5, 4, 4))
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    p = ez / ez.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
    labels = rng.integers(0, 5, size=(2, 4, 4))
    assert float(ag.cross_entropy(ag.Var(z), labels).value) >= 0.0
