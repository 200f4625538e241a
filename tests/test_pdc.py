import numpy as np
import pytest

from pdconv import autograd as ag
from pdconv import tensor as T
from pdconv.errors import ConfigurationError, DimensionError
from pdconv.pdc import (alpha_effective, equivalence_deviation, make_pdc_layer,
                        pdc_forward, pdc_gated)

from naive import naive_conv2d

FOLD_KERNELS = (((5, 5), 1), ((7, 7), 3), ((3, 3), 2))
FOLD_PLANES = ((1, 1), (2, 3), (6, 6), (13, 10))


def fixed_alpha_layer(channels, alpha, rng, dtype=np.float64, **kw):
    return make_pdc_layer(channels, rng=rng, dtype=dtype, alpha_fixed=alpha, **kw)


def test_alpha_zero_equals_plain_conv():
    rng = np.random.default_rng(0)
    layer = fixed_alpha_layer(2, 0.0, rng)
    x = rng.standard_normal((1, 2, 8, 8))
    pdc_out = pdc_forward(x, layer).value
    plain = T.conv2d(x, layer.weights.value, layer.spec)
    assert np.max(np.abs(pdc_out - plain)) <= 1e-7


def test_alpha_one_constant_input_interior_zero():
    rng = np.random.default_rng(1)
    layer = fixed_alpha_layer(1, 1.0, rng)
    x = np.full((1, 1, 12, 12), 3.7)
    out = pdc_forward(x, layer).value
    # the 5x5 kernel reaches 2 pixels out; interior excludes a 2-wide border
    interior = out[:, :, 2:-2, 2:-2]
    assert np.max(np.abs(interior)) <= 1e-6


def test_modes_are_mutual_oracles():
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        rng = np.random.default_rng(2)
        layer = make_pdc_layer(2, rng=rng, dtype=dtype,
                               alpha_init=0.0, with_gate=False)  # effective 0.5
        x = rng.standard_normal((1, 2, 8, 8)).astype(dtype)
        layer.mode = "definitional"
        a = pdc_forward(x, layer).value
        layer.mode = "rewritten"
        b = pdc_forward(x, layer).value
        assert np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-8) <= tol


def test_equivalence_sweep_200_instances():
    assert equivalence_deviation(200, dtype=np.float32) <= 1e-6
    assert equivalence_deviation(200, dtype=np.float64) <= 1e-12


@pytest.mark.parametrize("kernel,dilation", FOLD_KERNELS)
@pytest.mark.parametrize("channels", (1, 4))
@pytest.mark.parametrize("plane", FOLD_PLANES)
def test_rewritten_matches_center_product(kernel, dilation, channels, plane):
    # third member of the cross-check: the unfolded center-product form,
    # conv(x, w) - alpha * x * sum(w), in plain numpy on the loop oracle
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        rng = np.random.default_rng([channels, *plane, *kernel, dilation])
        layer = make_pdc_layer(channels, kernel, dilation, rng=rng, dtype=dtype,
                               alpha_init=float(rng.normal()), with_gate=False)
        x = rng.standard_normal((2, channels) + plane).astype(dtype)
        x64, w = x.astype(np.float64), layer.weights.value.astype(np.float64)
        a = float(alpha_effective(layer).value)
        ref = (naive_conv2d(x64, w, layer.spec)
               - a * x64 * w.sum(axis=(1, 2, 3)).reshape(1, channels, 1, 1))
        layer.mode = "rewritten"
        y = pdc_forward(x, layer).value
        assert y.dtype == dtype
        denom = max(np.max(np.abs(ref)), 1e-8)
        assert np.max(np.abs(y - ref)) / denom <= tol
        layer.mode = "definitional"
        assert np.max(np.abs(pdc_forward(x, layer).value - ref)) / denom <= tol


def test_rewritten_tape_holds_no_full_size_intermediate():
    # the fold runs one conv: x and the output are the only arrays of x's shape
    rng = np.random.default_rng(11)
    layer = make_pdc_layer(3, (7, 7), 3, rng=rng, dtype=np.float64, with_gate=False)
    x = ag.parameter(rng.standard_normal((2, 3, 9, 9)))
    y = pdc_forward(x, layer)
    nodes, stack = {}, [y]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    full = {i for i, node in nodes.items() if node.value.shape == x.shape}
    assert full == {id(x), id(y)}


@pytest.mark.parametrize("alpha_fixed", (None, 0.3))
@pytest.mark.parametrize("kernel,dilation", FOLD_KERNELS)
def test_mode_gradients_agree(alpha_fixed, kernel, dilation):
    rng = np.random.default_rng(12)
    layer = make_pdc_layer(4, kernel, dilation, rng=rng, dtype=np.float64,
                           alpha_init=float(rng.normal()), alpha_fixed=alpha_fixed,
                           with_gate=False)
    x = ag.parameter(rng.standard_normal((2, 4, 6, 7)))
    mask = ag.Var(rng.standard_normal(x.shape))
    grads = {}
    for mode in ("rewritten", "definitional"):
        layer.mode = mode
        ag.backward(ag.vsum(ag.mul(pdc_forward(x, layer), mask)))
        grads[mode] = (x.grad, layer.weights.grad, layer.alpha_raw.grad)
    (gx, gw, ga), (want_gx, want_gw, want_ga) = grads["rewritten"], grads["definitional"]
    pairs = [(gx, want_gx), (gw, want_gw)]
    if alpha_fixed is None:
        pairs.append((ga, want_ga))
    else:
        # a fixed alpha bypasses alpha_raw, which gets no gradient in either form
        assert ga is None and want_ga is None
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), 1.0)


def test_output_affine_in_alpha():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 8, 8))
    layers = {a: fixed_alpha_layer(2, a, np.random.default_rng(42)) for a in (0.0, 0.5, 1.0)}
    y0 = pdc_forward(x, layers[0.0]).value
    y1 = pdc_forward(x, layers[1.0]).value
    yh = pdc_forward(x, layers[0.5]).value
    blend = 0.5 * y0 + 0.5 * y1
    assert np.max(np.abs(yh - blend)) <= 1e-6


def test_spike_response_grows_linearly():
    base = np.full((1, 1, 15, 15), 0.5)
    responses = []
    for s in (1, 2, 4):
        layer = fixed_alpha_layer(1, 1.0, np.random.default_rng(4))
        x = base.copy()
        x[0, 0, 7, 7] += s
        out = pdc_forward(x, layer).value
        responses.append(np.max(np.abs(out[:, :, 2:-2, 2:-2])))
    assert responses[1] == pytest.approx(2 * responses[0], rel=1e-6)
    assert responses[2] == pytest.approx(4 * responses[0], rel=1e-6)


def test_channel_mismatch():
    layer = make_pdc_layer(2, rng=np.random.default_rng(5))
    with pytest.raises(DimensionError):
        pdc_forward(np.ones((1, 3, 6, 6), dtype=np.float32), layer)


def test_unknown_mode_set_after_construction_is_refused():
    layer = make_pdc_layer(2, rng=np.random.default_rng(5))
    layer.mode = "bogus"
    with pytest.raises(ConfigurationError, match="'bogus'"):
        pdc_forward(np.ones((1, 2, 6, 6), dtype=np.float32), layer)


class TestGated:
    def test_zero_gate_annihilates(self):
        rng = np.random.default_rng(6)
        layer = make_pdc_layer(2, rng=rng, dtype=np.float64)
        layer.gate_w.value[:] = 0.0
        layer.gate_b.value[:] = 0.0
        out = pdc_gated(rng.standard_normal((1, 2, 6, 6)), layer).value
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_identity_gate_identity_kernel(self):
        layer = fixed_alpha_layer(2, 0.0, np.random.default_rng(7))
        layer.weights.value[:] = 0.0
        layer.weights.value[:, 0, 2, 2] = 1.0  # identity 5x5 kernel
        layer.gate_w.value[:] = np.eye(2).reshape(2, 2, 1, 1)
        layer.gate_b.value[:] = 0.0
        x = np.random.default_rng(8).standard_normal((1, 2, 6, 6))
        np.testing.assert_allclose(pdc_gated(x, layer).value, x * x, rtol=1e-12)

    def test_matches_composition_of_primitives(self):
        rng = np.random.default_rng(9)
        layer = make_pdc_layer(2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 7, 7))
        got = pdc_gated(x, layer).value
        feat = pdc_forward(x, layer).value
        gate = T.conv2d(feat, layer.gate_w.value, T.pointwise_spec(), layer.gate_b.value)
        np.testing.assert_array_equal(got, gate * x)


class TestAlphaEffective:
    def test_stored_zero_maps_to_half(self):
        layer = make_pdc_layer(1, rng=np.random.default_rng(0), dtype=np.float64)
        assert float(alpha_effective(layer).value) == pytest.approx(0.5)

    def test_fixed_mode_bypasses_transform(self):
        layer = make_pdc_layer(1, rng=np.random.default_rng(0), alpha_fixed=0.8,
                               dtype=np.float64)
        assert float(alpha_effective(layer).value) == pytest.approx(0.8)

    def test_saturation(self):
        layer = make_pdc_layer(1, rng=np.random.default_rng(0), dtype=np.float64)
        layer.alpha_raw.value = np.asarray(20.0)
        assert abs(float(alpha_effective(layer).value) - 1.0) <= 1e-8


def test_gradcheck_all_pdc_parameters():
    rng = np.random.default_rng(10)
    layer = make_pdc_layer(2, rng=rng, dtype=np.float64, alpha_init=0.3)
    x = ag.parameter(rng.standard_normal((1, 2, 6, 6)))
    mask = rng.standard_normal((1, 2, 6, 6))
    params = {"x": x}
    params.update(layer.parameters())

    def f():
        return ag.vsum(ag.mul(pdc_gated(x, layer), ag.Var(mask)))

    report = ag.gradcheck(f, params)
    assert report.passed(1e-4), report.errors


def _reparameterized_runs(alpha, kernel, dilation, precondition, steps=5, lr=0.01):
    """Per SGD step, (loss, w') of a fixed-alpha PDC layer stepped on w, and of
    an alpha-0 layer started at w' = A·w, A = I - alpha·delta_center·1ᵀ, and
    stepped on w' by -lr·A·Aᵀ·grad when ``precondition``, by -lr·grad when not."""
    rng = np.random.default_rng(12)
    full = fixed_alpha_layer(3, alpha, rng, kernel=kernel, dilation=dilation)
    plain = fixed_alpha_layer(3, 0.0, rng, kernel=kernel, dilation=dilation)
    x = rng.standard_normal((1, 3, 12, 12))
    mask = ag.Var(rng.standard_normal((1, 3, 12, 12)))
    ci, cj = kernel[0] // 2, kernel[1] // 2

    def times_a(v):  # subtract alpha·sum(v) from each channel's center tap
        out = v.copy()
        out[:, 0, ci, cj] -= alpha * v.sum(axis=(1, 2, 3))
        return out

    def times_a_t(g):  # subtract alpha·g_center from every tap
        return g - alpha * g[:, :, ci:ci + 1, cj:cj + 1]

    plain.weights.value[...] = times_a(full.weights.value)
    runs = []
    for _ in range(steps):
        losses = []
        for layer in (full, plain):
            loss = ag.vsum(ag.mul(pdc_forward(x, layer), mask))
            ag.backward(loss)
            losses.append(float(loss.value))
        full.weights.value -= lr * full.weights.grad
        g = plain.weights.grad
        plain.weights.value -= lr * (times_a(times_a_t(g)) if precondition else g)
        runs.append((losses, times_a(full.weights.value), plain.weights.value.copy()))
    return runs


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))


@pytest.mark.parametrize("alpha,kernel,dilation", ((0.8, (5, 5), 1), (0.8, (7, 7), 3),
                                                   (0.3, (5, 5), 1)))
def test_fixed_alpha_sgd_is_preconditioned_sgd_on_the_folded_kernel(alpha, kernel,
                                                                      dilation):
    # the identity behind ROADMAP item 12, at layer level, f64, no weight decay
    for (full_loss, plain_loss), w_full, w_plain in _reparameterized_runs(
            alpha, kernel, dilation, precondition=True):
        assert abs(full_loss - plain_loss) <= 1e-12 * abs(full_loss)
        assert _relative(w_full, w_plain) <= 1e-12
    # the control: plain SGD on w' leaves the full layer's trajectory
    _, w_full, w_plain = _reparameterized_runs(alpha, kernel, dilation,
                                               precondition=False)[-1]
    assert _relative(w_full, w_plain) > 0.1
