import numpy as np
import pytest

from pdconv import autograd as ag
from pdconv import tensor as T
from pdconv.errors import DimensionError
from pdconv.pdc import (alpha_effective, equivalence_deviation, make_pdc_layer,
                        pdc_forward, pdc_gated)


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
        gate = T.conv2d(feat, T.ConvWeights(layer.gate_w.value, layer.gate_b.value),
                        T.pointwise_spec())
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
