import numpy as np
import pytest

from pdconv import tensor as T
from pdconv.errors import ConfigurationError, DimensionError

from naive import naive_conv2d


def test_ones_kernel_counts_overlap():
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = T.conv2d(x, w, T.depthwise_spec(1, (3, 3)))
    assert out[0, 0, 1, 1] == 9.0
    for corner in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert out[0, 0][corner] == 4.0


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    w = np.zeros((3, 1, 3, 3), dtype=np.float32)
    w[:, 0, 1, 1] = 1.0
    out = T.conv2d(x, w, T.depthwise_spec(3, (3, 3)))
    np.testing.assert_array_equal(out, x)


def test_dilated_depthwise_matches_naive_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float64)
    w = rng.standard_normal((2, 1, 3, 3)).astype(np.float64)
    spec = T.depthwise_spec(2, (3, 3), dilation=2)
    fast = T.conv2d(x, w, spec)
    slow = naive_conv2d(x, w, spec)
    np.testing.assert_allclose(fast, slow, rtol=1e-6)


def _grid_groups(groups: str) -> tuple[int, int]:
    """(channels, groups) for a named grouping; 'two' needs an even C."""
    return {"one": (3, 1), "two": (4, 2), "depthwise": (3, 3)}[groups]


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("groups", ["one", "two", "depthwise"])
def test_conv_matches_naive_grid(kernel, dilation, groups):
    rng = np.random.default_rng(kernel * 10 + dilation)
    c, g = _grid_groups(groups)
    x = rng.standard_normal((2, c, 9, 8))
    w = rng.standard_normal((c, c // g, kernel, kernel))
    for stride in (1, 2):
        spec = T.ConvSpec(kernel=(kernel, kernel), dilation=dilation, stride=stride,
                          groups=g)
        np.testing.assert_allclose(T.conv2d(x, w, spec), naive_conv2d(x, w, spec),
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("groups", ["one", "two", "depthwise"])
def test_conv_grads_are_adjoint_to_naive(kernel, dilation, stride, groups):
    # conv is bilinear, so <conv(x, w), g> = <x, dx(g)> = <w, dw(g)> for any g
    rng = np.random.default_rng(100 * kernel + 10 * dilation + stride)
    c, g = _grid_groups(groups)
    x = rng.standard_normal((2, c, 9, 8))
    w = rng.standard_normal((c, c // g, kernel, kernel))
    spec = T.ConvSpec(kernel=(kernel, kernel), dilation=dilation, stride=stride, groups=g)
    y = naive_conv2d(x, w, spec)
    gout = rng.standard_normal(y.shape)
    ref = np.vdot(y, gout)
    dx = T.conv2d_input_grad(gout, w, spec, x.shape)
    dw = T.conv2d_weight_grad(gout, x, spec, w.shape)
    assert dx.shape == x.shape and dw.shape == w.shape
    np.testing.assert_allclose(np.vdot(x, dx), ref, rtol=1e-10)
    np.testing.assert_allclose(np.vdot(w, dw), ref, rtol=1e-10)


def test_conv_with_stride_matches_naive():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 4, 8, 8))
    w = rng.standard_normal((6, 4, 3, 3))
    spec = T.ConvSpec(kernel=(3, 3), stride=2, padding=(1, 1))
    out = T.conv2d(x, w, spec)
    assert out.shape == (1, 6, 4, 4)
    np.testing.assert_allclose(out, naive_conv2d(x, w, spec), rtol=1e-10)


def test_conv_linearity():
    rng = np.random.default_rng(3)
    spec = T.ConvSpec(kernel=(3, 3))
    for trial in range(100):
        x = rng.standard_normal((1, 2, 6, 6))
        y = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        a, b = rng.standard_normal(2)
        lhs = T.conv2d(a * x + b * y, w, spec)
        rhs = a * T.conv2d(x, w, spec) + b * T.conv2d(y, w, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_conv_linearity_f32():
    rng = np.random.default_rng(4)
    spec = T.ConvSpec(kernel=(3, 3))
    for trial in range(100):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        y = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        a, b = rng.standard_normal(2).astype(np.float32)
        lhs = T.conv2d(a * x + b * y, w, spec)
        rhs = a * T.conv2d(x, w, spec) + b * T.conv2d(y, w, spec)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale <= 1e-5


def test_corner_value_uses_only_inbounds_pixels():
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    w = np.ones((1, 1, 3, 3))
    out = T.conv2d(x, w, T.depthwise_spec(1, (3, 3)))
    # corner (0,0) overlaps pixels {0,1,3,4} only
    assert out[0, 0, 0, 0] == 0 + 1 + 3 + 4


def test_constant_input_ones_kernel_overlap_scaling():
    c = 2.5
    x = np.full((1, 1, 5, 5), c)
    w = np.ones((1, 1, 3, 3))
    out = T.conv2d(x, w, T.depthwise_spec(1, (3, 3)))
    counts = T.conv2d(np.ones_like(x), w, T.depthwise_spec(1, (3, 3)))
    np.testing.assert_allclose(out, c * counts)


def test_even_kernel_rejected():
    with pytest.raises(ConfigurationError):
        T.ConvSpec(kernel=(2, 2))


def test_channel_mismatch_names_axis():
    x = np.ones((1, 3, 4, 4))
    w = np.ones((2, 2, 3, 3))
    with pytest.raises(DimensionError, match="C"):
        T.conv2d(x, w, T.ConvSpec(kernel=(3, 3), groups=2))


def test_dtype_mismatch_rejected():
    x = np.ones((1, 1, 4, 4), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float64)
    with pytest.raises(DimensionError, match="dtype"):
        T.conv2d(x, w, T.ConvSpec(kernel=(3, 3)))


class TestPointwise:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 4, 4))
        w = np.eye(2).reshape(2, 2, 1, 1)
        np.testing.assert_array_equal(T.conv2d(x, w, T.pointwise_spec()), x)

    def test_channel_sum(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4))
        w = np.ones((1, 2, 1, 1))
        np.testing.assert_allclose(T.conv2d(x, w, T.pointwise_spec())[0, 0], x[0, 0] + x[0, 1])

    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 1, 1))
        np.testing.assert_allclose(T.conv2d(x, w, T.pointwise_spec()),
                                   naive_conv2d(x, w, T.pointwise_spec()), rtol=1e-6)

    def test_rejects_non_1x1(self):
        with pytest.raises(ConfigurationError):
            T.conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), T.pointwise_spec())


class TestFlopCount:
    def test_21x21_depthwise(self):
        spec = T.depthwise_spec(8, (21, 21))
        assert T.flop_count(spec, 8, 8, (32, 32)) == 3_612_672

    def test_clk_depthwise_parts(self):
        total = (T.flop_count(T.depthwise_spec(8, (5, 5)), 8, 8, (32, 32))
                 + T.flop_count(T.depthwise_spec(8, (7, 7), 3), 8, 8, (32, 32)))
        assert total == 606_208

    def test_ratio(self):
        big = T.flop_count(T.depthwise_spec(8, (21, 21)), 8, 8, (32, 32))
        small = (T.flop_count(T.depthwise_spec(8, (5, 5)), 8, 8, (32, 32))
                 + T.flop_count(T.depthwise_spec(8, (7, 7), 3), 8, 8, (32, 32)))
        assert small * 441 == big * 74  # exactly 74/441
        assert abs(small / big - 0.168) < 1e-3


def _check_conv(x, w, spec, rng):
    """Forward against naive_conv2d; dx and dw through the adjoint identity."""
    y = naive_conv2d(x, w, spec)
    np.testing.assert_allclose(T.conv2d(x, w, spec), y, rtol=1e-10, atol=1e-12)
    gout = rng.standard_normal(y.shape)
    ref = np.vdot(y, gout)
    np.testing.assert_allclose(np.vdot(x, T.conv2d_input_grad(gout, w, spec, x.shape)),
                               ref, rtol=1e-10)
    np.testing.assert_allclose(np.vdot(w, T.conv2d_weight_grad(gout, x, spec, w.shape)),
                               ref, rtol=1e-10)


def _with_groups(cases, ids):
    """Each case once per grouping; the depthwise cases keep their plain ids."""
    return [pytest.param(*case, groups, id=(i if groups == "depthwise" else f"{groups}-{i}"))
            for groups in ("depthwise", "one", "two") for case, i in zip(cases, ids)]


_PADDING_CASES = [(k, d, p, s) for k in (1, 3, 5) for d in (1, 2)
                  for p in ((0, 0), (2, 1)) for s in (1, 2)]


@pytest.mark.parametrize("kernel, dilation, padding, stride, groups", _with_groups(
    _PADDING_CASES, [f"{s}-padding{int(p != (0, 0))}-{d}-{k}" for k, d, p, s in _PADDING_CASES]))
def test_depthwise_explicit_padding(kernel, dilation, padding, stride, groups):
    # padding (2, 1) exceeds a 1x1 kernel's extent, so input-grad crops; 13
    # rows plus their zero gap make an odd plane height, which stride 2 rounds up
    rng = np.random.default_rng(kernel * 100 + dilation * 10 + stride)
    c, g = _grid_groups(groups)
    x = rng.standard_normal((2, c, 13, 10))
    w = rng.standard_normal((c, c // g, kernel, kernel))
    spec = T.ConvSpec(kernel=(kernel, kernel), dilation=dilation, stride=stride,
                      padding=padding, groups=g)
    _check_conv(x, w, spec, rng)


@pytest.mark.parametrize("size, groups", _with_groups([(1,), (2,), (6,)], ["1", "2", "6"]))
def test_depthwise_7x7_d3_on_tiny_inputs(size, groups):
    # most taps read only padding at these sizes (the deepest CPDC stage of
    # the gradcheck network and of training stage 3)
    rng = np.random.default_rng(size)
    c, g = _grid_groups(groups)
    x = rng.standard_normal((2, c, size, size))
    w = rng.standard_normal((c, c // g, 7, 7))
    _check_conv(x, w, T.ConvSpec(kernel=(7, 7), dilation=3, groups=g), rng)


def test_depthwise_blocks_match_per_sample():
    # 8 channels padded to 50x50 planes: a batch of 1.5 blocks, cut mid-block
    rng = np.random.default_rng(11)
    per_block = T._DW_BLOCK_BYTES // (8 * 50 * 50 * 4)
    assert per_block >= 2
    x = rng.standard_normal((per_block + per_block // 2, 8, 48, 48)).astype(np.float32)
    w = rng.standard_normal((8, 1, 5, 5)).astype(np.float32)
    spec = T.depthwise_spec(8, (5, 5))
    g = rng.standard_normal(x.shape).astype(np.float32)
    whole = T.conv2d(x, w, spec)
    dx = T.conv2d_input_grad(g, w, spec, x.shape)
    for k in range(len(x)):
        assert T.conv2d(x[k:k + 1], w, spec).tobytes() == whole[k:k + 1].tobytes()
        single = T.conv2d_input_grad(g[k:k + 1], w, spec, (1,) + x.shape[1:])
        assert single.tobytes() == dx[k:k + 1].tobytes()


@pytest.mark.parametrize("kernel, dilation, size", [(5, 1, (10, 13)), (7, 3, (10, 13)),
                                                    (7, 3, (6, 6))])
def test_depthwise_f32_sums_taps_in_order(kernel, dilation, size):
    # the exact float32 result of adding tap products one by one in (i, j) order
    rng = np.random.default_rng(kernel)
    x = rng.standard_normal((3, 4) + size).astype(np.float32)
    w = rng.standard_normal((4, 1, kernel, kernel)).astype(np.float32)
    p = (kernel - 1) * dilation // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ref = np.zeros_like(x)
    for i in range(kernel):
        for j in range(kernel):
            di, dj = i * dilation, j * dilation
            ref += w[None, :, 0, i, j, None, None] * xp[:, :, di:di + size[0], dj:dj + size[1]]
    spec = T.depthwise_spec(4, (kernel, kernel), dilation)
    np.testing.assert_array_equal(T.conv2d(x, w, spec), ref)
