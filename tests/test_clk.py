import numpy as np
import pytest

from pdconv import autograd as ag
from pdconv import tensor as T
from pdconv.clk import (RF_MODES, analytic_support, clk_flops, clk_forward,
                        cpdc_forward, cpdc_raw, large_kernel_flops, make_clk_layer,
                        make_cpdc_layer, parallel_forward, receptive_field)
from pdconv.pdc import pdc_forward

from naive import naive_indicator_convolution


def identity_clk(channels=2):
    layer = make_clk_layer(channels, rng=np.random.default_rng(0), dtype=np.float64)
    layer.w_local.value[:] = 0.0
    layer.w_local.value[:, 0, 2, 2] = 1.0
    layer.w_long.value[:] = 0.0
    layer.w_long.value[:, 0, 3, 3] = 1.0
    layer.pw_w.value[:] = np.eye(channels).reshape(channels, channels, 1, 1)
    layer.pw_b.value[:] = 0.0
    return layer


def test_identity_kernels_identity():
    layer = identity_clk()
    x = np.random.default_rng(1).standard_normal((1, 2, 10, 10))
    np.testing.assert_allclose(clk_forward(x, layer).value, x, atol=1e-12)


def test_cascade_matches_sequential_convs():
    rng = np.random.default_rng(2)
    layer = make_clk_layer(2, rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 2, 9, 9))
    got = clk_forward(x, layer).value
    y = T.conv2d(x, layer.w_local.value, layer.spec_local)
    y = T.conv2d(y, layer.w_long.value, layer.spec_long)
    want = T.conv2d(y, T.ConvWeights(layer.pw_w.value, layer.pw_b.value), T.pointwise_spec())
    np.testing.assert_array_equal(got, want)


def test_parallel_identity_kernels_double():
    layer = identity_clk()
    x = np.random.default_rng(3).standard_normal((1, 2, 8, 8))
    np.testing.assert_allclose(parallel_forward(x, layer).value, 2 * x, atol=1e-12)


def test_parallel_matches_sum_of_convs():
    rng = np.random.default_rng(4)
    layer = make_clk_layer(2, rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 2, 9, 9))
    got = parallel_forward(x, layer).value
    y = (T.conv2d(x, layer.w_local.value, layer.spec_local)
         + T.conv2d(x, layer.w_long.value, layer.spec_long))
    want = T.conv2d(y, T.ConvWeights(layer.pw_w.value, layer.pw_b.value), T.pointwise_spec())
    np.testing.assert_array_equal(got, want)


class TestCpdc:
    def test_alpha_zero_identities_square_input(self):
        layer = make_cpdc_layer(2, rng=np.random.default_rng(5), dtype=np.float64,
                                alpha_fixed=0.0)
        for stage, center in ((layer.stage_local, 2), (layer.stage_long, 3)):
            stage.weights.value[:] = 0.0
            stage.weights.value[:, 0, center, center] = 1.0
        layer.gate_w.value[:] = np.eye(2).reshape(2, 2, 1, 1)
        layer.gate_b.value[:] = 0.0
        x = np.random.default_rng(6).standard_normal((1, 2, 8, 8))
        np.testing.assert_allclose(cpdc_forward(x, layer).value, x * x, atol=1e-12)

    def test_alpha_one_constant_input_interior_zero(self):
        layer = make_cpdc_layer(1, rng=np.random.default_rng(7), dtype=np.float64,
                                alpha_fixed=1.0)
        x = np.full((1, 1, 60, 60), 2.0)
        out = cpdc_forward(x, layer).value
        # composed support reaches 11 pixels out (2 for the 5x5, 9 for the 7x7 d3)
        interior = out[:, :, 11:-11, 11:-11]
        assert np.max(np.abs(interior)) <= 1e-6

    def test_matches_composition_of_pdc_calls(self):
        rng = np.random.default_rng(8)
        layer = make_cpdc_layer(2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 9, 9))
        got = cpdc_forward(x, layer).value
        feat = pdc_forward(pdc_forward(ag.Var(x), layer.stage_local), layer.stage_long)
        gate = T.conv2d(feat.value, T.ConvWeights(layer.gate_w.value, layer.gate_b.value),
                        T.pointwise_spec())
        np.testing.assert_array_equal(got, gate * x)


class TestReceptiveField:
    def test_single5_dense(self):
        sm = receptive_field("single5")
        assert sm.extent == (5, 5)
        np.testing.assert_array_equal(sm.counts, np.ones((5, 5), dtype=np.int64))

    def test_single7d3_geometry(self):
        sm = receptive_field("single7d3")
        assert sm.extent == (19, 19)
        expected = np.zeros((19, 19), dtype=np.int64)
        expected[::3, ::3] = 1
        np.testing.assert_array_equal(sm.counts, expected)

    @pytest.mark.parametrize("mode", RF_MODES)
    def test_empirical_equals_analytic(self, mode):
        np.testing.assert_array_equal(receptive_field(mode).counts,
                                      analytic_support(mode))

    def test_analytic_matches_naive_indicator_convolution(self):
        ind5 = np.ones((5, 5), dtype=np.int64)
        ind7 = np.zeros((19, 19), dtype=np.int64)
        ind7[::3, ::3] = 1
        np.testing.assert_array_equal(analytic_support("cascade"),
                                      naive_indicator_convolution(ind5, ind7))

    def test_cascade_dense_23x23(self):
        sm = receptive_field("cascade")
        assert sm.extent == (23, 23)
        assert sm.holes() == 0

    def test_parallel_has_interior_holes_outside_center(self):
        sm = receptive_field("parallel")
        assert sm.extent == (19, 19)
        assert sm.holes() >= 1
        # the central 5x5 is dense
        center = sm.counts[7:12, 7:12]
        assert np.all(center >= 1)

    def test_parallel_support_strictly_inside_cascade(self):
        par = receptive_field("parallel").counts > 0
        cas = receptive_field("cascade").counts > 0
        # align the 19x19 grid inside the 23x23 one
        embedded = np.zeros_like(cas)
        embedded[2:21, 2:21] = par
        assert np.all(cas[embedded])        # containment
        assert cas.sum() > embedded.sum()   # strictness


class TestFlops:
    def test_clk_depthwise_budget(self):
        assert clk_flops(8, (32, 32), include_pointwise=False) == 606_208
        assert large_kernel_flops(8, (32, 32), include_pointwise=False) == 3_612_672

    @pytest.mark.parametrize("c", [1, 8, 64, 256, 1024])
    @pytest.mark.parametrize("size", [32, 128])
    def test_clk_cheaper_than_21x21(self, c, size):
        assert clk_flops(c, (size, size)) < large_kernel_flops(c, (size, size))

    def test_dominance_over_channel_grid(self):
        for c in range(1, 1025, 37):
            assert clk_flops(c, (16, 16)) < large_kernel_flops(c, (16, 16))


def test_gradcheck_clk_and_cpdc_parameters():
    rng = np.random.default_rng(9)
    mask = rng.standard_normal((1, 2, 8, 8))
    clk = make_clk_layer(2, rng=rng, dtype=np.float64)
    x1 = ag.parameter(rng.standard_normal((1, 2, 8, 8)))
    report = ag.gradcheck(
        lambda: ag.vsum(ag.mul(clk_forward(x1, clk), ag.Var(mask))),
        {"x": x1, **clk.parameters()})
    assert report.passed(1e-4), report.errors
    cpdc = make_cpdc_layer(2, rng=rng, dtype=np.float64, alpha_init=0.2)
    x2 = ag.parameter(rng.standard_normal((1, 2, 8, 8)))
    report = ag.gradcheck(
        lambda: ag.vsum(ag.mul(cpdc_forward(x2, cpdc), ag.Var(mask))),
        {"x": x2, **cpdc.parameters()})
    assert report.passed(1e-4), report.errors
