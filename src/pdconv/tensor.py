"""Dense NCHW tensors and the raw convolution kernels everything else builds on.

Values are plain numpy arrays in batch-channel-height-width layout, row major.
All conv paths use zero "same" padding and stride 1 unless a spec says
otherwise.  Dense and depthwise convs share one flat layout (`_grid`): each
channel's zero-padded planes are stacked into one run in which neighbouring
rows and planes share their zero gaps, so every kernel tap reads one long
slice of it (at stride s, every s-th element).  A dense conv copies those
slices into columns and runs one BLAS matrix product per call and direction,
so the reduction order within one output element is fixed by that BLAS call:
results are bit-identical run to run at a fixed BLAS thread count, but may
differ in the last bits across thread counts.  A 1x1 stride-1 unpadded conv
skips the layout, because its input, reshaped, already is its column matrix.
Depthwise convs (groups == C) sum their taps one at a time in a fixed (i, j)
order without BLAS, so their results do not depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError

FLOAT_DTYPES = (np.float32, np.float64)


def check_nchw(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 4:
        raise DimensionError(f"{name} must be rank 4 (N,C,H,W), got rank {x.ndim}")
    for axis, size in zip("NCHW", x.shape):
        if size < 1:
            raise DimensionError(f"{name} axis {axis} must be >= 1, got {size}")


@dataclass(frozen=True)
class ConvSpec:
    """Kernel geometry shared by every conv-like op."""

    kernel: tuple[int, int] = (3, 3)
    dilation: int = 1
    stride: int = 1
    padding: str | tuple[int, int] = "same"
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
        if self.padding != "same":
            ph, pw = self.padding
            if ph < 0 or pw < 0:
                raise ConfigurationError(f"padding must be non-negative, got {self.padding}")

    @property
    def extent(self) -> tuple[int, int]:
        """Effective receptive extent (k-1)*d + 1 along each axis."""
        kh, kw = self.kernel
        return ((kh - 1) * self.dilation + 1, (kw - 1) * self.dilation + 1)

    def pad_amount(self) -> tuple[int, int]:
        if self.padding == "same":
            eh, ew = self.extent
            return (eh - 1) // 2, (ew - 1) // 2
        return self.padding

    def out_spatial(self, h: int, w: int) -> tuple[int, int]:
        ph, pw = self.pad_amount()
        eh, ew = self.extent
        ho = (h + 2 * ph - eh) // self.stride + 1
        wo = (w + 2 * pw - ew) // self.stride + 1
        if ho < 1 or wo < 1:
            raise DimensionError(
                f"spatial input {h}x{w} too small for extent {eh}x{ew} with padding {ph},{pw}"
            )
        return ho, wo


def pointwise_spec() -> ConvSpec:
    return ConvSpec(kernel=(1, 1))


def depthwise_spec(channels: int, kernel: tuple[int, int], dilation: int = 1) -> ConvSpec:
    return ConvSpec(kernel=kernel, dilation=dilation, groups=channels)


@dataclass
class ConvWeights:
    """Kernel weights (out_channels, in_channels/groups, kh, kw) plus optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise DimensionError(f"weights must be rank 4, got rank {self.weights.ndim}")
        if not np.all(np.isfinite(self.weights)):
            raise ConfigurationError("weights contain non-finite values")
        if self.bias is not None and self.bias.shape != (self.weights.shape[0],):
            raise DimensionError(
                f"bias axis C must have length {self.weights.shape[0]}, got {self.bias.shape}"
            )


def _validate_conv(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> None:
    check_nchw(x)
    n, c, h, w_ = x.shape
    o, cg, kh, kw = w.shape
    if (kh, kw) != spec.kernel:
        raise ConfigurationError(f"weight kernel {kh}x{kw} does not match spec {spec.kernel}")
    if c % spec.groups != 0:
        raise DimensionError(f"input axis C ({c}) not divisible by groups ({spec.groups})")
    if o % spec.groups != 0:
        raise DimensionError(f"output axis C ({o}) not divisible by groups ({spec.groups})")
    if cg != c // spec.groups:
        raise DimensionError(
            f"weight axis C/groups is {cg}, expected {c // spec.groups} for input C={c}"
        )
    if x.dtype != w.dtype:
        raise DimensionError(f"dtype mismatch: input {x.dtype} vs weights {w.dtype}")


def _is_plain_1x1(spec: ConvSpec) -> bool:
    """A 1x1 stride-1 unpadded conv: its input already is its window matrix."""
    return spec.kernel == (1, 1) and spec.stride == 1 and spec.pad_amount() == (0, 0)


# Padded input bytes per depthwise block: half of a 2 MB per-core L2, so a
# block's input and output stay in cache across all of its taps.
_DW_BLOCK_BYTES = 1 << 20


def _grid(shape, kernel: tuple[int, int], d: int, pads, s: int = 1):
    """Geometry of the flat layout of an (N, C, H, W) input zero-padded by
    pads = (top, bottom, left, right) >= 0.  Per channel the samples are
    stacked in one zero (R, wp) array, planes hp rows apart, pixel (y, x) at
    row t + y and column l + x of its plane, so neighbouring rows and planes
    share their zero gaps; hp and wp are multiples of the stride s.  The flat
    run puts the s row phases (row mod s) back to back: tap (i, j) of every
    output then reads every s-th element of one slice of N*hp*wp/s elements,
    the (N, hp/s, wp/s) output grid, and slack rows after the last plane
    let every tap read all of it.  Returns (R, hp, wp, ho, wo), ho x wo the
    stride-1 output size, and the (i, j, offset) of each tap whose window
    overlaps the input; the other taps add exact zeros."""
    (n, c, h, w), (kh, kw), (t, b, l, r) = shape, kernel, pads
    ho, wo = h + t + b - (kh - 1) * d, w + l + r - (kw - 1) * d
    hp, wp = (-(-(z + max(p, q, o - z)) // s) * s for z, p, q, o in ((h, t, b, ho), (w, l, r, wo)))
    rows = n * hp + (-(-(t + (kh - 1) * d) // s) + 2) * s
    taps = [(i, j, (i * d % s * rows // s + i * d // s) * wp + j * d)
            for i in range(kh) for j in range(kw)
            if t - ho < i * d < t + h and l - wo < j * d < l + w]
    return (rows, hp, wp, ho, wo), taps


def _inner(padded: np.ndarray, shape, geo, pads) -> np.ndarray:
    """Where an input of `shape` sits in its (C, R, wp) array, as (C, N, H, W)."""
    (n, c, h, w), (_, hp, wp, _, _), (t, _, l, _) = shape, geo, pads
    return padded[:, t:t + n * hp].reshape(c, n, hp, wp)[:, :, :h, l:l + w]


def _flat(x: np.ndarray, kernel: tuple[int, int], d: int, pads, s: int = 1):
    """x on its `_grid` layout, a negative pad cropping x: the runs (C, R*wp),
    the geometry and the taps.  The row phase split copies only at stride > 1."""
    (t, b, l, r), h, w = pads, x.shape[2], x.shape[3]
    x = x[:, :, max(-t, 0):h - max(-b, 0), max(-l, 0):w - max(-r, 0)]
    pads, c = [max(p, 0) for p in pads], x.shape[1]
    geo, taps = _grid(x.shape, kernel, d, pads, s)
    padded = np.zeros((c, geo[0], geo[2]), dtype=x.dtype)
    _inner(padded, x.shape, geo, pads)[...] = x.transpose(1, 0, 2, 3)
    flat = padded.reshape(c, -1, s, geo[2]).transpose(0, 2, 1, 3).reshape(c, -1)
    return flat, geo, taps


def _dw_correlate(x: np.ndarray, w: np.ndarray, dilation: int, pads) -> np.ndarray:
    """Stride-1 depthwise cross-correlation of x (N, C, H, W) with w (C, kh, kw)
    on `_flat(x)`, block by block of samples, taps summed in (i, j) order."""
    n, c = x.shape[:2]
    xp, (_, hp, wp, ho, wo), taps = _flat(x, w.shape[1:], dilation, pads)
    size, step = n * hp * wp, max(1, _DW_BLOCK_BYTES // (c * hp * wp * x.itemsize)) * hp * wp
    out, prod = np.zeros((c, size), dtype=x.dtype), np.empty((c, min(step, size)), dtype=x.dtype)
    for s in range(0, size, step):
        run = min(step, size - s) - hp * wp + (ho - 1) * wp + wo
        acc, tmp = out[:, s:s + run], prod[:, :run]
        for i, j, off in taps:
            acc += np.multiply(xp[:, s + off:s + off + run], w[:, i, j, None], out=tmp)
    return out.reshape(c, n, hp, wp)[:, :, :ho, :wo].transpose(1, 0, 2, 3)


def _cols(x: np.ndarray, spec: ConvSpec):
    """Dense conv columns (C, T, L): row (c, t) is every s-th element of kept
    tap t's slice of channel c on `_flat(x)`, so column m is position m of the
    (N, hp/s, wp/s) output grid.  Returns them, (hp/s, wp/s) and the taps."""
    (ph, pw), s = spec.pad_amount(), spec.stride
    flat, (_, hp, wp, _, _), taps = _flat(x, spec.kernel, spec.dilation, (ph, ph, pw, pw), s)
    size = len(x) * hp * wp // s
    cols = np.stack([flat[:, off:off + size:s] for _, _, off in taps], axis=1)
    return cols, (hp // s, wp // s), taps


def _tap_matrix(w: np.ndarray, groups: int, taps) -> np.ndarray:
    """Weights (O, Cg, kh, kw) at the kept taps, as (G, O/G, Cg*T)."""
    o, cg, kh, kw = w.shape
    kept = w.reshape(o, cg, kh * kw)[:, :, [i * kw + j for i, j, _ in taps]]
    return kept.reshape(groups, o // groups, -1)


def _on_grid(gout: np.ndarray, groups: int, rows: int, wq: int) -> np.ndarray:
    """gout (N, O, Ho, Wo) on the zero (N, rows, wq) output grid, as (G, O/G, L)."""
    n, o, ho, wo = gout.shape
    grid = np.zeros((o, n, rows, wq), dtype=gout.dtype)
    grid[:, :, :ho, :wo] = gout.transpose(1, 0, 2, 3)
    return grid.reshape(groups, o // groups, -1)


def conv2d(x: np.ndarray, weights: ConvWeights | np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Zero-padded 2-D convolution (cross-correlation) over NCHW input.

    Supports dilation, stride, and channel groups; groups == C is the
    depthwise case, kernel (1,1) with groups == 1 the pointwise case.
    """
    w = weights.weights if isinstance(weights, ConvWeights) else weights
    bias = weights.bias if isinstance(weights, ConvWeights) else None
    _validate_conv(x, w, spec)
    n, c, h, w_in = x.shape
    o, cg, kh, kw = w.shape
    ho, wo = spec.out_spatial(h, w_in)
    g = spec.groups
    if g == c and cg == 1 and o == c:
        (ph, pw), s = spec.pad_amount(), spec.stride
        out = _dw_correlate(x, w[:, 0], spec.dilation, (ph, ph, pw, pw))[:, :, ::s, ::s].copy()
    elif _is_plain_1x1(spec):
        out = (w.reshape(g, o // g, -1) @ x.reshape(n, g, cg, h * w_in)).reshape(n, o, ho, wo)
    else:
        cols, (rows, wq), taps = _cols(x, spec)
        y = _tap_matrix(w, g, taps) @ cols.reshape(g, -1, cols.shape[2])
        out = y.reshape(o, n, rows, wq)[:, :, :ho, :wo].transpose(1, 0, 2, 3).copy()
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out


def conv2d_input_grad(gout: np.ndarray, w: np.ndarray, spec: ConvSpec,
                      x_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input (transposed scatter of gout)."""
    n, c, h, w_in = x_shape
    o, cg, kh, kw = w.shape
    ho, wo = gout.shape[2], gout.shape[3]
    g = spec.groups
    (ph, pw), s = spec.pad_amount(), spec.stride
    if g == c and cg == 1 and o == c:
        # gout spread to stride 1 and correlated with the flipped kernel
        eh, ew = spec.extent
        gs = np.zeros((n, c, (ho - 1) * s + 1, (wo - 1) * s + 1), dtype=gout.dtype)
        gs[:, :, ::s, ::s] = gout
        pads = (eh - 1 - ph, h + ph - gs.shape[2], ew - 1 - pw, w_in + pw - gs.shape[3])
        return _dw_correlate(gs, w[:, 0, ::-1, ::-1], spec.dilation, pads)
    if _is_plain_1x1(spec):
        return (w.reshape(g, o // g, -1).swapaxes(1, 2)
                @ gout.reshape(n, g, o // g, ho * wo)).reshape(x_shape)
    # Wᵀ @ gout's grid, each tap's slice scatter-added onto the flat layout,
    # then the row phases joined back (a copy only at stride > 1)
    geo, taps = _grid(x_shape, (kh, kw), spec.dilation, (ph, ph, pw, pw), s)
    (rows, hp, wp, _, _), size = geo, n * geo[1] * geo[2] // s
    gcols = (_tap_matrix(w, g, taps).swapaxes(1, 2)
             @ _on_grid(gout, g, hp // s, wp // s)).reshape(c, len(taps), -1)
    flat = np.zeros((c, s, rows // s, wp), dtype=gout.dtype)
    for k, (_, _, off) in enumerate(taps):
        flat.reshape(c, -1)[:, off:off + size:s] += gcols[:, k]
    padded = flat.transpose(0, 2, 1, 3).reshape(c, rows, wp)
    return _inner(padded, x_shape, geo, (ph, ph, pw, pw)).transpose(1, 0, 2, 3).copy()


def conv2d_weight_grad(gout: np.ndarray, x: np.ndarray, spec: ConvSpec,
                       w_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights."""
    n, c, h, w_in = x.shape
    o, cg, kh, kw = w_shape
    ho, wo = gout.shape[2], gout.shape[3]
    g = spec.groups
    if g == c and cg == 1 and o == c:
        # gout spread onto x's flat grid: one dot product per tap and channel
        (ph, pw), s = spec.pad_amount(), spec.stride
        xp, (_, hp, wp, h1, w1), taps = _flat(x, (kh, kw), spec.dilation, (ph, ph, pw, pw))
        grid = np.zeros((c, n, hp, wp), dtype=gout.dtype)
        grid[:, :, :ho * s:s, :wo * s:s] = gout.transpose(1, 0, 2, 3)
        run = ((n - 1) * hp + h1 - 1) * wp + w1
        grid, gw = grid.reshape(c, -1)[:, :run], np.zeros(w_shape, dtype=gout.dtype)
        for i, j, off in taps:
            gw[:, 0, i, j] = np.einsum("cl,cl->c", grid, xp[:, off:off + run])
        return gw
    if _is_plain_1x1(spec):
        return (gout.reshape(n, g, o // g, ho * wo)
                @ x.reshape(n, g, cg, h * w_in).swapaxes(2, 3)).sum(axis=0).reshape(w_shape)
    # one product per group; cols @ gridᵀ ran ≈2x faster than grid @ colsᵀ
    cols, (rows, wq), taps = _cols(x, spec)
    gw = np.zeros((o, cg, kh * kw), dtype=gout.dtype)
    gw[:, :, [i * kw + j for i, j, _ in taps]] = (
        cols.reshape(g, -1, cols.shape[2]) @ _on_grid(gout, g, rows, wq).swapaxes(1, 2)
    ).swapaxes(1, 2).reshape(o, cg, -1)
    return gw.reshape(w_shape)


def flop_count(spec: ConvSpec, channels_in: int, channels_out: int,
               spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count for one conv application at stride 1."""
    h, w = spatial
    kh, kw = spec.kernel
    return h * w * channels_out * (channels_in // spec.groups) * kh * kw
