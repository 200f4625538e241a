import numpy as np
import pytest

from pdconv import autograd as ag
from pdconv import tensor as T
from pdconv.errors import DimensionError
from pdconv.fusion import ecf_fuse, make_ecf_layer


def make_inputs(rng, channels=2, size=6):
    shape = (1, channels, size, size)
    return tuple(rng.standard_normal(shape) for _ in range(4))


def zero_gates(layer):
    layer.gate_rgb_w.value[:] = 0.0
    layer.gate_rgb_b.value[:] = 0.0
    layer.gate_depth_w.value[:] = 0.0
    layer.gate_depth_b.value[:] = 0.0


def test_zero_gates_reduce_to_weighted_residual_sum():
    rng = np.random.default_rng(0)
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    zero_gates(layer)
    fr, fd, hr, hd = make_inputs(rng)
    out = ecf_fuse(fr, fd, hr, hd, layer).value
    np.testing.assert_allclose(out, 0.5 * fr + 0.5 * fd, atol=1e-12)


def test_default_branch_scalars_are_half():
    layer = make_ecf_layer(3, rng=np.random.default_rng(1))
    assert float(layer.eta.value) == 0.5
    assert float(layer.lam.value) == 0.5


def test_output_linear_in_branch_scalars():
    rng = np.random.default_rng(2)
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    fr, fd, hr, hd = make_inputs(rng)

    def out(eta, lam):
        layer.eta.value = np.asarray(eta)
        layer.lam.value = np.asarray(lam)
        return ecf_fuse(fr, fd, hr, hd, layer).value

    rgb_only = out(1.0, 0.0)
    depth_only = out(0.0, 1.0)
    for eta, lam in ((0.5, 0.5), (0.3, 1.2), (-0.4, 0.9)):
        np.testing.assert_allclose(out(eta, lam), eta * rgb_only + lam * depth_only,
                                   rtol=1e-10, atol=1e-12)


def test_matches_composition_of_primitives():
    rng = np.random.default_rng(3)
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    fr, fd, hr, hd = make_inputs(rng)
    got = ecf_fuse(fr, fd, hr, hd, layer).value
    gate_r = T.conv2d(hr, T.ConvWeights(layer.gate_rgb_w.value, layer.gate_rgb_b.value),
                      T.pointwise_spec())
    gate_d = T.conv2d(hd, T.ConvWeights(layer.gate_depth_w.value, layer.gate_depth_b.value),
                      T.pointwise_spec())
    want = (float(layer.eta.value) * (gate_r * hr + fr)
            + float(layer.lam.value) * (gate_d * hd + fd))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_gates_act_per_branch():
    rng = np.random.default_rng(4)
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    zero_gates(layer)
    layer.gate_rgb_b.value[:] = 1.0  # RGB gate becomes constant 1
    fr, fd, hr, hd = make_inputs(rng)
    out = ecf_fuse(fr, fd, hr, hd, layer).value
    np.testing.assert_allclose(out, 0.5 * (hr + fr) + 0.5 * fd, atol=1e-12)


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(5)
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    fr, fd, hr, _ = make_inputs(rng)
    bad = rng.standard_normal((1, 2, 6, 7))
    with pytest.raises(DimensionError, match="hat_depth"):
        ecf_fuse(fr, fd, hr, bad, layer)


def test_gradcheck_all_fusion_parameters():
    rng = np.random.default_rng(6)
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    mask = rng.standard_normal((1, 2, 5, 5))
    inputs = {name: ag.parameter(rng.standard_normal((1, 2, 5, 5)))
              for name in ("fr", "fd", "hr", "hd")}

    def f():
        fused = ecf_fuse(inputs["fr"], inputs["fd"], inputs["hr"], inputs["hd"], layer)
        return ag.vsum(ag.mul(fused, ag.Var(mask)))

    report = ag.gradcheck(f, {**inputs, **layer.parameters()})
    assert report.passed(1e-4), report.errors
