import ast

import numpy as np
import pytest

from pdconv import tensor as T
from pdconv.errors import ConfigurationError, DimensionError

import naive
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
    """(channels, groups) for a named grouping: dense, depthwise, or 'two'
    groups of an even C, which conv2d rejects."""
    return {"one": (3, 1), "two": (4, 2), "depthwise": (3, 3)}[groups]


def _supported(spec: T.ConvSpec) -> bool:
    """Whether conv2d runs a grid case (O == C): dense, or depthwise at stride 1."""
    return spec.groups == 1 or spec.stride == 1 and spec.groups == _grid_groups("depthwise")[1]


def _expect_rejected(x, w, spec):
    """All three directions raise ConfigurationError for an unsupported geometry."""
    gout = np.ones((x.shape[0], w.shape[0]) + spec.out_spatial(*x.shape[2:]))
    with pytest.raises(ConfigurationError, match="unsupported conv"):
        T.conv2d(x, w, spec)
    with pytest.raises(ConfigurationError, match="unsupported conv"):
        T.conv2d_input_grad(gout, w, spec, x.shape)
    with pytest.raises(ConfigurationError, match="unsupported conv"):
        T.conv2d_weight_grad(gout, x, spec, w.shape)


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
        if not _supported(spec):
            _expect_rejected(x, w, spec)
            continue
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
    if not _supported(spec):
        _expect_rejected(x, w, spec)
        return
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
    spec = T.ConvSpec(kernel=(3, 3), stride=2)
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
        T.conv2d(x, w, T.ConvSpec(kernel=(3, 3)))


@pytest.mark.parametrize("c, o, groups, stride", [(4, 4, 2, 1), (4, 8, 4, 1), (4, 4, 4, 2)],
                         ids=["groups-2-of-4", "depthwise-multiplier-2", "depthwise-stride-2"])
def test_unsupported_geometry_rejected_in_every_direction(c, o, groups, stride):
    spec = T.ConvSpec(kernel=(3, 3), stride=stride, groups=groups)
    _expect_rejected(np.ones((1, c, 6, 6)), np.ones((o, c // groups, 3, 3)), spec)


def test_dtype_mismatch_rejected():
    x = np.ones((1, 1, 4, 4), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float64)
    with pytest.raises(DimensionError, match="dtype"):
        T.conv2d(x, w, T.ConvSpec(kernel=(3, 3)))


def test_rank3_weights_rejected():
    with pytest.raises(DimensionError, match="rank 4"):
        T.conv2d(np.ones((1, 2, 4, 4)), np.ones((2, 3, 3)), T.depthwise_spec(2, (3, 3)))


def test_bias_length_must_match_output_channels():
    with pytest.raises(DimensionError, match="bias"):
        T.conv2d(np.ones((1, 2, 4, 4)), np.ones((3, 2, 1, 1)), T.pointwise_spec(),
                 np.ones(2))


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
    """Forward against naive_conv2d; dx and dw through the adjoint identity.
    A geometry that conv2d does not run must be rejected in all three directions."""
    if not _supported(spec):
        _expect_rejected(x, w, spec)
        return
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
    # ConvSpec pads only to "same"; a caller wanting more pads x with zeros
    # first.  13 or 17 rows plus their zero gap make odd plane heights, which
    # stride 2 rounds up; padding (2, 1) gives zero borders wider than a 1x1
    # or 3x3 kernel's own padding
    rng = np.random.default_rng(kernel * 100 + dilation * 10 + stride)
    c, g = _grid_groups(groups)
    x = rng.standard_normal((2, c, 13, 10))
    x = np.pad(x, ((0, 0), (0, 0), (padding[0],) * 2, (padding[1],) * 2))
    w = rng.standard_normal((c, c // g, kernel, kernel))
    spec = T.ConvSpec(kernel=(kernel, kernel), dilation=dilation, stride=stride, groups=g)
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


def test_depthwise_channel_blocks_match_per_channel():
    # 2 samples of 48x48 rows after 2 zeros, plus the 4-zero tail: a conv
    # whose channels span 1.5 blocks, cut mid-block
    rng = np.random.default_rng(11)
    per_block = T._DW_BLOCK_BYTES // ((48 * 2 * 50 + 4) * 4)
    assert per_block >= 2
    c = per_block + per_block // 2
    x = rng.standard_normal((2, c, 48, 48)).astype(np.float32)
    w = rng.standard_normal((c, 1, 5, 5)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    spec, one = T.depthwise_spec(c, (5, 5)), T.depthwise_spec(1, (5, 5))
    whole = T.conv2d(x, w, spec)
    dx = T.conv2d_input_grad(g, w, spec, x.shape)
    for k in range(c):
        assert T.conv2d(x[:, k:k + 1], w[k:k + 1], one).tobytes() == whole[:, k:k + 1].tobytes()
        single = T.conv2d_input_grad(g[:, k:k + 1], w[k:k + 1], one, (2, 1, 48, 48))
        assert single.tobytes() == dx[:, k:k + 1].tobytes()


def _tap_sum(x, w, dilation):
    """The exact float32 result of adding the depthwise tap products of x
    (N, C, H, W) and w (C, 1, k, k) one by one in (i, j) order."""
    kernel, size = w.shape[-1], x.shape[2:]
    p = (kernel - 1) * dilation // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ref = np.zeros_like(x)
    for i in range(kernel):
        for j in range(kernel):
            di, dj = i * dilation, j * dilation
            ref += w[None, :, 0, i, j, None, None] * xp[:, :, di:di + size[0], dj:dj + size[1]]
    return ref


# the net's geometries: 5x5 d1 and 7x7 d3 at its 24x24 and 12x12 planes and
# at 2x2, where most 7x7 d3 taps read only padding, and a tall narrow plane
_TAP_ORDER_CASES = [(5, 1, (10, 13)), (7, 3, (10, 13)), (7, 3, (6, 6))] + [
    (k, d, size) for size in ((24, 24), (12, 12), (2, 2), (13, 4)) for k, d in ((5, 1), (7, 3))]


@pytest.mark.parametrize("kernel, dilation, size", _TAP_ORDER_CASES)
def test_depthwise_f32_sums_taps_in_order(kernel, dilation, size):
    rng = np.random.default_rng(kernel)
    x = rng.standard_normal((3, 4) + size).astype(np.float32)
    w = rng.standard_normal((4, 1, kernel, kernel)).astype(np.float32)
    spec = T.depthwise_spec(4, (kernel, kernel), dilation)
    np.testing.assert_array_equal(T.conv2d(x, w, spec), _tap_sum(x, w, dilation))


@pytest.mark.parametrize("kernel, dilation, size", _TAP_ORDER_CASES)
def test_depthwise_input_grad_f32_sums_flipped_taps_in_order(kernel, dilation, size):
    rng = np.random.default_rng(kernel + 1)
    g = rng.standard_normal((3, 4) + size).astype(np.float32)
    w = rng.standard_normal((4, 1, kernel, kernel)).astype(np.float32)
    spec = T.depthwise_spec(4, (kernel, kernel), dilation)
    np.testing.assert_array_equal(T.conv2d_input_grad(g, w, spec, g.shape),
                                  _tap_sum(g, w[..., ::-1, ::-1], dilation))


def test_depthwise_tap_skips_rows_its_window_misses():
    # tap (0, 3) of a 7x7 d3 kernel reads 9 rows up: on 12x12 planes output
    # rows 0-8 would read only padding rows there, so an inf weight on that
    # tap reaches rows 9-11 alone, and rows 0-8 equal the sum without it
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
    w = rng.standard_normal((3, 1, 7, 7)).astype(np.float32)
    spec = T.depthwise_spec(3, (7, 7), 3)
    w_inf, w_zero = w.copy(), w.copy()
    w_inf[:, 0, 0, 3], w_zero[:, 0, 0, 3] = np.inf, 0.0
    with np.errstate(invalid="ignore"):  # inf * 0 in the cropped columns
        y = T.conv2d(x, w_inf, spec)
    assert not np.isfinite(y[:, :, 9:]).any()
    assert y[:, :, :9].tobytes() == T.conv2d(x, w_zero, spec)[:, :, :9].tobytes()


def test_naive_oracles_import_nothing_from_pdconv():
    with open(naive.__file__) as f:
        tree = ast.parse(f.read())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "numpy" in modules
    assert not [m for m in modules if m.split(".")[0] == "pdconv"]
