"""Dense NCHW tensors and the raw convolution kernels everything else builds on.

Values are plain numpy arrays in batch-channel-height-width layout, row major.
Every conv uses zero "same" padding, t rows and l columns on each side, and
is dense (groups 1) at any stride or depthwise (groups == C == O) at stride
1; any other spec raises ConfigurationError.  Convs run on one flat layout
(`_rows`): per channel, t zero rows, then row y of samples 0..N-1 back to
back, each after l zeros in wp >= W + l elements, then t zero rows and 2l
zeros, so every output reads tap (i, j) i*d rows and j*d columns on.  Taps
whose window misses the input for every output are skipped.
- A dense conv takes wp a multiple of the stride, copies the kept taps'
  windows into columns and runs one BLAS product per call and direction;
  spare columns at the end of each output row are cropped.  Its results are
  bit-identical run to run at a fixed BLAS thread count, but may differ in
  the last bits across counts.  A 1x1 stride-1 conv uses its reshaped input
  as the columns.
- A depthwise conv stores no padding rows and runs each tap only over the
  output rows whose window reads input rows.  Its forward and input grad sum
  the taps one at a time in (i, j) order, its weight grad takes one dot
  product per tap and channel, and none uses BLAS.
A skipped term is a product with zero padding, an exact zero for finite
operands.  Non-finite values:
- a weight reaches no output of the forward or input grad that its tap
  skips; where its window reads padding it gives NaN, and in a dense input
  grad it can reach any pixel of its input channel;
- a gout value reaches only the input-grad pixels in its output's window;
  in the weight grad, every kept tap of its output channel (dense) or only
  the taps whose window at its row reads an input row (depthwise).
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


def _rows(a: np.ndarray, t: int, l: int, wp: int) -> np.ndarray:
    """a (N, C, H, W) on the flat layout, as (C, (H + 2t)*N*wp + 2l)."""
    n, c, h, w = a.shape
    row = n * wp
    flat = np.zeros((c, (h + 2 * t) * row + 2 * l), dtype=a.dtype)
    flat[:, t * row:(t + h) * row].reshape(c, h, n, wp)[..., l:l + w] = a.transpose(1, 2, 0, 3)
    return flat


def _crop(flat: np.ndarray, shape, t: int, l: int, wp: int) -> np.ndarray:
    """The (N, C, H, W) array of `shape` that `flat` holds, _rows' inverse."""
    n, c, h, w = shape
    row = n * wp
    return flat[:, t * row:(t + h) * row].reshape(c, h, n, wp)[..., l:l + w].transpose(2, 0, 1, 3)


def _width(w: int, spec: ConvSpec) -> int:
    """wp: W + l rounded up to a multiple of the stride."""
    return -(-(w + spec.pad_amount()[1]) // spec.stride) * spec.stride


def _kept(size: int, k: int, d: int, p: int) -> slice:
    """The taps of a kernel axis whose window overlaps an input axis of
    `size` for some output; the others read only padding."""
    return slice(max(0, (p - size) // d + 1), min(k, (p + size - 1) // d + 1))


def _dw_layout(x: np.ndarray, spec: ConvSpec):
    """x of a depthwise conv on the layout with no padding rows, wp = W + l,
    and the conv's loops: the blocks of channels, each about _DW_BLOCK_BYTES
    of input, and per kept kernel row i the output range [lo, hi) of the
    rows whose window reads input rows and the (j, offset) of its kept taps.
    Output pixel (n, y, x) sits at (y*N + n)*wp + x of a (C, H*N*wp) run,
    and tap (i, j) reads `offset` on."""
    n, c, h, w = x.shape
    (kh, kw), d = spec.kernel, spec.dilation
    t, l = spec.pad_amount()
    xp, row = _rows(x, 0, l, w + l), n * (w + l)
    ri, rj = _kept(h, kh, d, t), _kept(w, kw, d, l)
    rows = [(i, max(0, t - i * d) * row, min(h, h + t - i * d) * row,
             [(j, (i * d - t) * row + j * d) for j in range(rj.start, rj.stop)])
            for i in range(ri.start, ri.stop)]
    step = max(1, _DW_BLOCK_BYTES // (xp.shape[1] * x.itemsize))
    return xp, w + l, [slice(c0, min(c, c0 + step)) for c0 in range(0, c, step)], rows


def _dw_correlate(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Depthwise cross-correlation of x (N, C, H, W) with w (C, kh, kw), taps
    summed in (i, j) order, each over the output rows its window reaches
    only.  A term skipped so is a product of the weight with zero padding,
    ±0 for a finite weight, and an accumulator that starts at +0 and is only
    added to never becomes -0, so skipping them changes no bit.  Each kernel
    row's output and product slices are cut once."""
    n, c, h, _ = x.shape
    xp, wp, blocks, rows = _dw_layout(x, spec)
    out = np.zeros((c, h * n * wp), dtype=x.dtype)
    prod = np.empty((blocks[0].stop, h * n * wp), dtype=x.dtype)
    for b in blocks:
        for i, lo, hi, taps in rows:
            acc = out[b, lo:hi]
            tmp = prod[:len(acc), lo:hi]
            for j, off in taps:
                acc += np.multiply(xp[b, lo + off:hi + off], w[b, i, j, None], out=tmp)
    return _crop(out, x.shape, 0, 0, wp)


def _windows(flat: np.ndarray, shape, spec: ConvSpec, wp: int):
    """The kept taps' windows on `flat`, a dense conv's input layout, as a
    (C, Ti, Tj, Ho, N*wp/s) view: [c, i, j, y] is every s-th element of one
    stretch, from the column that output (y, 0) of kept tap (i, j) reads.
    At stride 1 the output rows run on back to back, and the view is
    (C, Ti, Tj, 1, Ho*N*wp): numpy adds into one 2-D run 2.5-3.5x faster
    than into rows.  Returns it and the kept taps' slices."""
    n, c, h, w = shape
    (kh, kw), d, s = spec.kernel, spec.dilation, spec.stride
    t, l = spec.pad_amount()
    ri, rj = _kept(h, kh, d, t), _kept(w, kw, d, l)
    row, e, ho = n * wp, flat.itemsize, (h - 1) // s + 1
    view = np.ndarray(
        (c, ri.stop - ri.start, rj.stop - rj.start) + ((1, ho * row) if s == 1 else (ho, row // s)),
        flat.dtype, flat, (ri.start * d * row + rj.start * d) * e,
        (flat.strides[0], d * row * e, d * e, s * row * e, s * e))
    return view, (ri, rj)


def _cols(x: np.ndarray, spec: ConvSpec):
    """Dense conv columns (C*T, Ho*N*wp/s) of x over the kept taps, wp and
    the taps' slices."""
    wp = _width(x.shape[3], spec)
    view, taps = _windows(_rows(x, *spec.pad_amount(), wp), x.shape, spec, wp)
    return view.reshape(-1, view[0, 0, 0].size), wp, taps


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
        cols, wp, (ri, rj) = _cols(x, spec)
        y = (w[:, :, ri, rj].reshape(o, -1) @ cols).reshape(o, ho, n, wp // spec.stride)
        out = y[..., :wo].transpose(2, 0, 1, 3).copy()
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
    # Wᵀ @ gout on rows of wp/s columns, the spare ones zero, and each kept
    # tap's columns added onto its windows in (i, j) order
    (t, l), wp = spec.pad_amount(), _width(w_in, spec)
    flat = np.zeros((c, (h + 2 * t) * n * wp + 2 * l), dtype=gout.dtype)
    view, (ri, rj) = _windows(flat, x_shape, spec, wp)
    gcols = w[:, :, ri, rj].reshape(o, -1).T @ _rows(gout, 0, 0, wp // spec.stride)
    gcols = gcols.reshape(view.shape)
    for i in range(view.shape[1]):
        for j in range(view.shape[2]):
            view[:, i, j] += gcols[:, i, j]
    return _crop(flat, x_shape, t, l, wp).copy()


def conv2d_weight_grad(gout: np.ndarray, x: np.ndarray, spec: ConvSpec,
                       w_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights."""
    n, c, h, w_in = x.shape
    o = w_shape[0]
    gw = np.zeros(w_shape, dtype=gout.dtype)
    if _depthwise(spec, c, o):
        # one dot product per kept tap and channel block, over the output
        # rows the tap reaches
        xp, wp, blocks, rows = _dw_layout(x, spec)
        g = _rows(gout, 0, 0, wp)
        for b in blocks:
            for i, lo, hi, taps in rows:
                for j, off in taps:
                    gw[b, 0, i, j] = np.einsum("cl,cl->c", g[b, lo:hi], xp[b, lo + off:hi + off])
        return gw
    if spec.kernel == (1, 1) and spec.stride == 1:
        return (gout.reshape(n, o, h * w_in)
                @ x.reshape(n, c, h * w_in).swapaxes(1, 2)).sum(axis=0).reshape(w_shape)
    # cols @ goutᵀ ran ≈2x faster than gout @ colsᵀ
    cols, wp, (ri, rj) = _cols(x, spec)
    g = _rows(gout, 0, 0, wp // spec.stride)
    gw[:, :, ri, rj] = (cols @ g.T).T.reshape(o, c, ri.stop - ri.start, rj.stop - rj.start)
    return gw


def flop_count(spec: ConvSpec, channels_in: int, channels_out: int,
               spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count for one conv application at stride 1."""
    h, w = spatial
    kh, kw = spec.kernel
    return h * w * channels_out * (channels_in // spec.groups) * kh * kw
