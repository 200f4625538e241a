"""Dense NCHW tensors and the raw convolution kernels everything else builds on.

Values are plain numpy arrays in batch-channel-height-width layout, row major.
Every conv uses zero "same" padding and is one of two kinds: dense (groups 1)
at any stride, or depthwise (groups == C == O) at stride 1; any other spec
raises ConfigurationError.  Dense convs, in all three directions, and the
depthwise weight grad run on one flat layout (`_grid`): each channel's
zero-padded planes are stacked into one run in which neighbouring rows and
planes share their zero gaps, so every kernel tap reads one long slice of it
(at stride s, every s-th element).  A dense conv copies those slices into
columns and runs one BLAS matrix product per call and direction, so the
reduction order within one output element is fixed by that BLAS call:
results are bit-identical run to run at a fixed BLAS thread count, but may
differ in the last bits across thread counts.  A 1x1 stride-1 conv skips the
layout, because its input, reshaped, already is its column matrix.
The depthwise forward and input grad run on a row-interleaved layout of
their own (`_dw_correlate`), with no padding rows, so each tap runs only
over the output rows its window reaches.  Both sum their taps one at a time
in a fixed (i, j) order without BLAS, so their results do not depend on the
thread count.  The depthwise weight grad, one dot product per tap and
channel, stays on `_grid`: on the row layout its einsum would sum in
another order and change the gradients' last bits.
Every path skips the taps whose window misses the input for every output,
and the depthwise forward and input grad also skip, per tap, the output
rows whose window lies wholly in the padding rows.  A skipped term is a
product of the weight with zero padding, an exact zero for a finite weight,
so skipping changes no bit.  A non-finite weight reaches no output that
its tap skips; where its window reads padding columns it still gives NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError


def check_nchw(x: np.ndarray) -> None:
    if x.ndim != 4:
        raise DimensionError(f"input must be rank 4 (N,C,H,W), got rank {x.ndim}")
    for axis, size in zip("NCHW", x.shape):
        if size < 1:
            raise DimensionError(f"input axis {axis} must be >= 1, got {size}")


@dataclass(frozen=True)
class ConvSpec:
    """Kernel geometry shared by every conv-like op."""

    kernel: tuple[int, int] = (3, 3)
    dilation: int = 1
    stride: int = 1
    groups: int = 1

    def __post_init__(self):
        kh, kw = self.kernel
        if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
            raise ConfigurationError(f"kernel must be odd and positive, got {self.kernel}")
        if self.dilation < 1:
            raise ConfigurationError(f"dilation must be >= 1, got {self.dilation}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")
        if self.groups < 1:
            raise ConfigurationError(f"groups must be >= 1, got {self.groups}")

    def pad_amount(self) -> tuple[int, int]:
        """The "same" padding, (k-1)*d/2 on each side of each axis."""
        kh, kw = self.kernel
        return (kh - 1) * self.dilation // 2, (kw - 1) * self.dilation // 2

    def out_spatial(self, h: int, w: int) -> tuple[int, int]:
        return (h - 1) // self.stride + 1, (w - 1) // self.stride + 1


def pointwise_spec() -> ConvSpec:
    return ConvSpec(kernel=(1, 1))


def depthwise_spec(channels: int, kernel: tuple[int, int], dilation: int = 1) -> ConvSpec:
    return ConvSpec(kernel=kernel, dilation=dilation, groups=channels)


def _depthwise(spec: ConvSpec, c: int, o: int) -> bool:
    """The kind of a conv from C input and O output channels: depthwise
    (groups == C == O at stride 1) or dense (groups 1).  Any other spec raises."""
    if spec.groups == c == o and spec.stride == 1:
        return True
    if spec.groups != 1:
        raise ConfigurationError(
            f"unsupported conv: groups {spec.groups}, C={c}, O={o}, stride {spec.stride}; "
            "only dense (groups 1) or depthwise (groups == C == O, stride 1) convs run")
    return False


def _validate_conv(x: np.ndarray, w: np.ndarray, spec: ConvSpec,
                   bias: np.ndarray | None) -> bool:
    """Check a forward call's operands; returns whether the conv is depthwise."""
    check_nchw(x)
    if w.ndim != 4:
        raise DimensionError(f"weights must be rank 4, got rank {w.ndim}")
    c = x.shape[1]
    o, cg, kh, kw = w.shape
    if (kh, kw) != spec.kernel:
        raise ConfigurationError(f"weight kernel {kh}x{kw} does not match spec {spec.kernel}")
    depthwise = _depthwise(spec, c, o)
    expected = 1 if depthwise else c
    if cg != expected:
        raise DimensionError(f"weight axis C/groups is {cg}, expected {expected} for input C={c}")
    if x.dtype != w.dtype:
        raise DimensionError(f"dtype mismatch: input {x.dtype} vs weights {w.dtype}")
    if bias is not None and bias.shape != (o,):
        raise DimensionError(f"bias axis C must have length {o}, got {bias.shape}")
    return depthwise


# Input bytes per depthwise channel block: with its output and product
# slices, about 1.5 MiB, so a block stays in a 2 MiB per-core L2 across all
# of its taps.  Picked by an in-process sweep (CHANGES.md, BENCH_25.json).
_DW_BLOCK_BYTES = 512 << 10


def _grid(shape, spec: ConvSpec):
    """Geometry of the flat layout of an (N, C, H, W) input zero-padded by
    the spec's "same" padding (t, l), on which dense convs and the depthwise
    weight grad run.  Per channel the samples are stacked in
    one zero (R, wp) array, planes hp rows apart, pixel (y, x) at row t + y
    and column l + x of its plane, so neighbouring rows and planes share
    their zero gaps; hp and wp are multiples of the stride s.  The flat run
    puts the s row phases (row mod s) back to back: tap (i, j) of every
    output then reads every s-th element of one slice of N*hp*wp/s elements,
    the (N, hp/s, wp/s) output grid, and slack rows after the last plane
    let every tap read all of it.  Returns (R, hp, wp, t, l) and the
    (i, j, offset) of each tap whose window overlaps the input; the other
    taps add exact zeros (products with the padding) and are skipped."""
    (n, _, h, w), (kh, kw), d, s = shape, spec.kernel, spec.dilation, spec.stride
    t, l = spec.pad_amount()
    hp, wp = (-(-(z + p) // s) * s for z, p in ((h, t), (w, l)))
    rows = n * hp + (-(-(t + (kh - 1) * d) // s) + 2) * s
    taps = [(i, j, (i * d % s * rows // s + i * d // s) * wp + j * d)
            for i in range(kh) for j in range(kw)
            if abs(i * d - t) < h and abs(j * d - l) < w]
    return (rows, hp, wp, t, l), taps


def _inner(padded: np.ndarray, shape, geo) -> np.ndarray:
    """Where an input of `shape` sits in its (C, R, wp) array, as (C, N, H, W)."""
    (n, c, h, w), (_, hp, wp, t, l) = shape, geo
    return padded[:, t:t + n * hp].reshape(c, n, hp, wp)[:, :, :h, l:l + w]


def _flat(x: np.ndarray, spec: ConvSpec):
    """x on its `_grid` layout: the runs (C, R*wp), the geometry and the taps.
    The row phase split copies only at stride > 1."""
    c, s = x.shape[1], spec.stride
    geo, taps = _grid(x.shape, spec)
    padded = np.zeros((c, geo[0], geo[2]), dtype=x.dtype)
    _inner(padded, x.shape, geo)[...] = x.transpose(1, 0, 2, 3)
    flat = padded.reshape(c, -1, s, geo[2]).transpose(0, 2, 1, 3).reshape(c, -1)
    return flat, geo, taps


def _dw_correlate(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Depthwise cross-correlation of x (N, C, H, W) with w (C, kh, kw), taps
    summed in (i, j) order, on a row-interleaved layout: per channel, row y
    of samples 0..N-1 back to back, each after l zeros (wp = W + l), then a
    2l-zero tail and no padding rows.  Output pixel (n, y, x) sits at
    (y*N + n)*wp + x of its (C, H*N*wp) run, and tap (i, j), dy = i*d - t,
    reads at offset dy*N*wp + j*d over the output rows [max(0, -dy),
    min(H, H - dy)) only, one slice per block of channels: a row outside
    that range would read only padding.  Each term skipped so is a product
    of the weight with zero padding, ±0 for a finite weight, and an
    accumulator that starts at +0 and is only added to never becomes -0, so
    skipping them changes no bit.  Taps are grouped by kernel row, so each
    row's output and product slices are cut once; a block of channels holds
    about _DW_BLOCK_BYTES of input."""
    n, c, h, w_in = x.shape
    (kh, kw), d = spec.kernel, spec.dilation
    t, l = spec.pad_amount()
    wp = w_in + l
    row, size = n * wp, h * n * wp
    xp = np.zeros((c, size + 2 * l), dtype=x.dtype)
    xp[:, :size].reshape(c, h, n, wp)[..., l:] = x.transpose(1, 2, 0, 3)
    rows = [(i, i * d - t) for i in range(kh) if abs(i * d - t) < h]
    cols = [j for j in range(kw) if abs(j * d - l) < w_in]
    step = max(1, _DW_BLOCK_BYTES // (xp.shape[1] * x.itemsize))
    out, prod = np.zeros((c, size), dtype=x.dtype), np.empty((min(step, c), size), dtype=x.dtype)
    for c0 in range(0, c, step):
        c1 = min(c, c0 + step)
        for i, dy in rows:
            lo, hi = max(0, -dy) * row, min(h, h - dy) * row
            acc, tmp = out[c0:c1, lo:hi], prod[:c1 - c0, lo:hi]
            for j in cols:
                off = dy * row + j * d
                acc += np.multiply(xp[c0:c1, lo + off:hi + off], w[c0:c1, i, j, None], out=tmp)
    return out.reshape(c, h, n, wp)[..., :w_in].transpose(2, 0, 1, 3)


def _cols(x: np.ndarray, spec: ConvSpec):
    """Dense conv columns (C*T, L): row (c, t) is every s-th element of kept
    tap t's slice of channel c on `_flat(x)`, so column m is position m of the
    (N, hp/s, wp/s) output grid.  Returns them, (hp/s, wp/s) and the taps."""
    s = spec.stride
    flat, (_, hp, wp, _, _), taps = _flat(x, spec)
    size = len(x) * hp * wp // s
    cols = np.stack([flat[:, off:off + size:s] for _, _, off in taps], axis=1)
    return cols.reshape(-1, cols.shape[2]), (hp // s, wp // s), taps


def _tap_matrix(w: np.ndarray, taps) -> np.ndarray:
    """Weights (O, C, kh, kw) at the kept taps, as (O, C*T)."""
    o, c, kh, kw = w.shape
    return w.reshape(o, c, kh * kw)[:, :, [i * kw + j for i, j, _ in taps]].reshape(o, -1)


def _on_grid(gout: np.ndarray, rows: int, wq: int) -> np.ndarray:
    """gout (N, O, Ho, Wo) on the zero (N, rows, wq) output grid, as (O, L)."""
    n, o, ho, wo = gout.shape
    grid = np.zeros((o, n, rows, wq), dtype=gout.dtype)
    grid[:, :, :ho, :wo] = gout.transpose(1, 0, 2, 3)
    return grid.reshape(o, -1)


def conv2d(x: np.ndarray, w: np.ndarray, spec: ConvSpec,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Zero "same"-padded 2-D convolution (cross-correlation) of NCHW input,
    plus an optional bias of length O; the output is (N, O, ceil(H/s), ceil(W/s)).

    Two kinds run, at any dilation: dense convs (groups 1, weights (O, C, kh,
    kw)) at any stride, kernel (1,1) being the pointwise case, and depthwise
    convs (groups == C == O, weights (C, 1, kh, kw)) at stride 1.  Any other
    grouping, channel multiplier or strided depthwise conv raises
    ConfigurationError, here and in both gradients.
    """
    depthwise = _validate_conv(x, w, spec, bias)
    n, c, h, w_in = x.shape
    o = w.shape[0]
    ho, wo = spec.out_spatial(h, w_in)
    if depthwise:
        out = _dw_correlate(x, w[:, 0], spec).copy()
    elif spec.kernel == (1, 1) and spec.stride == 1:
        out = (w.reshape(o, c) @ x.reshape(n, c, h * w_in)).reshape(n, o, ho, wo)
    else:
        cols, (rows, wq), taps = _cols(x, spec)
        y = _tap_matrix(w, taps) @ cols
        out = y.reshape(o, n, rows, wq)[:, :, :ho, :wo].transpose(1, 0, 2, 3).copy()
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out


def conv2d_input_grad(gout: np.ndarray, w: np.ndarray, spec: ConvSpec,
                      x_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input (transposed scatter of gout)."""
    n, c, h, w_in = x_shape
    o = w.shape[0]
    if _depthwise(spec, c, o):
        # gout correlated with the flipped kernel
        return _dw_correlate(gout, w[:, 0, ::-1, ::-1], spec)
    if spec.kernel == (1, 1) and spec.stride == 1:
        return (w.reshape(o, c).T @ gout.reshape(n, o, h * w_in)).reshape(x_shape)
    # Wᵀ @ gout's grid, each tap's slice scatter-added onto the flat layout,
    # then the row phases joined back (a copy only at stride > 1)
    s = spec.stride
    geo, taps = _grid(x_shape, spec)
    (rows, hp, wp, _, _), size = geo, n * geo[1] * geo[2] // s
    gcols = (_tap_matrix(w, taps).T @ _on_grid(gout, hp // s, wp // s)).reshape(c, len(taps), -1)
    flat = np.zeros((c, s, rows // s, wp), dtype=gout.dtype)
    for k, (_, _, off) in enumerate(taps):
        flat.reshape(c, -1)[:, off:off + size:s] += gcols[:, k]
    padded = flat.transpose(0, 2, 1, 3).reshape(c, rows, wp)
    return _inner(padded, x_shape, geo).transpose(1, 0, 2, 3).copy()


def conv2d_weight_grad(gout: np.ndarray, x: np.ndarray, spec: ConvSpec,
                       w_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights."""
    n, c, h, w_in = x.shape
    o, _, kh, kw = w_shape
    if _depthwise(spec, c, o):
        # gout placed on x's flat grid: one dot product per tap and channel;
        # on _dw_correlate's row layout the einsum would sum in another order
        xp, (_, hp, wp, _, _), taps = _flat(x, spec)
        run = ((n - 1) * hp + h - 1) * wp + w_in
        grid, gw = _on_grid(gout, hp, wp)[:, :run], np.zeros(w_shape, dtype=gout.dtype)
        for i, j, off in taps:
            gw[:, 0, i, j] = np.einsum("cl,cl->c", grid, xp[:, off:off + run])
        return gw
    if spec.kernel == (1, 1) and spec.stride == 1:
        return (gout.reshape(n, o, h * w_in)
                @ x.reshape(n, c, h * w_in).swapaxes(1, 2)).sum(axis=0).reshape(w_shape)
    # cols @ gridᵀ ran ≈2x faster than grid @ colsᵀ
    cols, (rows, wq), taps = _cols(x, spec)
    gw = np.zeros((o, c, kh * kw), dtype=gout.dtype)
    gw[:, :, [i * kw + j for i, j, _ in taps]] = (
        cols @ _on_grid(gout, rows, wq).T).T.reshape(o, c, -1)
    return gw.reshape(w_shape)


def flop_count(spec: ConvSpec, channels_in: int, channels_out: int,
               spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count for one conv application at stride 1."""
    h, w = spatial
    kh, kw = spec.kernel
    return h * w * channels_out * (channels_in // spec.groups) * kh * kw
