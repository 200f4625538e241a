"""Dense NCHW tensors and the raw convolution kernels everything else builds on.

Values are plain numpy arrays in batch-channel-height-width layout, row major.
All conv paths use zero "same" padding and stride 1 unless a spec says
otherwise.  Dense (non-depthwise) convs run as one BLAS matrix product over
unrolled input windows, so the reduction order within one output element is
fixed by that BLAS call: results are bit-identical run to run at a fixed BLAS
thread count, but may differ in the last bits across thread counts.
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


def _pad(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    ph, pw = spec.pad_amount()
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _taps(spec: ConvSpec, ho: int, wo: int):
    """Yield (i, j, slice_h, slice_w): the padded-input window each tap reads."""
    (kh, kw), d, s = spec.kernel, spec.dilation, spec.stride
    for i in range(kh):
        for j in range(kw):
            yield (i, j, slice(i * d, i * d + (ho - 1) * s + 1, s),
                   slice(j * d, j * d + (wo - 1) * s + 1, s))


def _is_plain_1x1(spec: ConvSpec) -> bool:
    """A 1x1 stride-1 unpadded conv: its input already is its window matrix."""
    return spec.kernel == (1, 1) and spec.stride == 1 and spec.pad_amount() == (0, 0)


def _unrolled(x: np.ndarray, spec: ConvSpec, ho: int, wo: int) -> np.ndarray:
    """Input windows laid out for a matrix product, shape (N, G, Cg*kh*kw, Ho*Wo).

    Built as a strided view of the padded input and copied once (im2col).
    """
    n, c = x.shape[:2]
    kh, kw = spec.kernel
    g, d, s = spec.groups, spec.dilation, spec.stride
    if _is_plain_1x1(spec):
        return x.reshape(n, g, c // g, ho * wo)
    xp = _pad(x, spec)
    sn, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, sh * d, sw * d, sh * s, sw * s), writeable=False)
    return view.reshape(n, g, c // g * kh * kw, ho * wo)


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
        # depthwise fast path: one slab per tap across all channels
        xp = _pad(x, spec)
        out = np.zeros((n, o, ho, wo), dtype=x.dtype)
        for i, j, sh, sw in _taps(spec, ho, wo):
            out += w[None, :, 0, i, j, None, None] * xp[:, :, sh, sw]
    else:
        out = (w.reshape(g, o // g, -1) @ _unrolled(x, spec, ho, wo)).reshape(n, o, ho, wo)
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
    ph, pw = spec.pad_amount()
    if g == c and cg == 1 and o == c:
        gxp = np.zeros((n, c, h + 2 * ph, w_in + 2 * pw), dtype=gout.dtype)
        for i, j, sh, sw in _taps(spec, ho, wo):
            gxp[:, :, sh, sw] += w[None, :, 0, i, j, None, None] * gout
    else:
        gcols = (w.reshape(g, o // g, -1).swapaxes(1, 2)
                 @ gout.reshape(n, g, o // g, ho * wo))
        if _is_plain_1x1(spec):
            return gcols.reshape(x_shape)
        # col2im: scatter-add each tap's rows back onto the padded input
        gcols = gcols.reshape(n, c, kh, kw, ho, wo)
        gxp = np.zeros((n, c, h + 2 * ph, w_in + 2 * pw), dtype=gout.dtype)
        for i, j, sh, sw in _taps(spec, ho, wo):
            gxp[:, :, sh, sw] += gcols[:, :, i, j]
    if ph == 0 and pw == 0:
        return gxp
    return gxp[:, :, ph : ph + h, pw : pw + w_in]


def conv2d_weight_grad(gout: np.ndarray, x: np.ndarray, spec: ConvSpec,
                       w_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights."""
    n, c, h, w_in = x.shape
    o, cg, kh, kw = w_shape
    ho, wo = gout.shape[2], gout.shape[3]
    g = spec.groups
    if g == c and cg == 1 and o == c:
        xp = _pad(x, spec)
        gw = np.zeros(w_shape, dtype=gout.dtype)
        for i, j, sh, sw in _taps(spec, ho, wo):
            gw[:, 0, i, j] = np.sum(gout * xp[:, :, sh, sw], axis=(0, 2, 3))
        return gw
    cols = _unrolled(x, spec, ho, wo)
    gs = gout.reshape(n, g, o // g, ho * wo)
    return (gs @ cols.swapaxes(2, 3)).sum(axis=0).reshape(w_shape)


def pointwise_conv(x: np.ndarray, weights: ConvWeights | np.ndarray) -> np.ndarray:
    """1x1 convolution: a per-pixel linear map across channels."""
    w = weights.weights if isinstance(weights, ConvWeights) else weights
    if w.shape[2:] != (1, 1):
        raise ConfigurationError(f"pointwise conv requires a 1x1 kernel, got {w.shape[2:]}")
    return conv2d(x, weights, pointwise_spec())


def flop_count(spec: ConvSpec, channels_in: int, channels_out: int,
               spatial: tuple[int, int]) -> int:
    """Multiply-accumulate count for one conv application at stride 1."""
    h, w = spatial
    kh, kw = spec.kernel
    return h * w * channels_out * (channels_in // spec.groups) * kh * kw
