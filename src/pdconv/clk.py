"""Cascade large-kernel operator, its parallel-mode baseline, the composed
difference-conv variant used on the RGB branch, and receptive-field analysis.

The cascade stacks a dense depthwise 5x5 (dilation 1) and a sparse depthwise
7x7 (dilation 3) followed by a 1x1 mix; the dense stage fills the dilation
holes of the sparse one, so the composed support is a solid square at a small
fraction of the multiply count of one equally sized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d

from . import autograd as ag
from . import tensor as T
from .errors import ConfigurationError
from .pdc import PdcLayer, _check_channels, init_weights, make_pdc_layer, pdc_forward

LOCAL_KERNEL = (5, 5)
LOCAL_DILATION = 1
LONG_KERNEL = (7, 7)
LONG_DILATION = 3

RF_MODES = ("single5", "single7d3", "cascade", "parallel", "cpdc")


@dataclass
class ClkLayer:
    """Depthwise 5x5 d1 -> depthwise 7x7 d3 -> pointwise 1x1."""

    w_local: ag.Var
    w_long: ag.Var
    pw_w: ag.Var
    pw_b: ag.Var
    spec_local: T.ConvSpec
    spec_long: T.ConvSpec

    @property
    def channels(self) -> int:
        return self.w_local.value.shape[0]

    def parameters(self, prefix: str = "clk") -> dict[str, ag.Var]:
        return {f"{prefix}.dw_local": self.w_local, f"{prefix}.dw_long": self.w_long,
                f"{prefix}.pw_w": self.pw_w, f"{prefix}.pw_b": self.pw_b}


def make_clk_layer(channels: int, rng: np.random.Generator | None = None,
                   dtype=np.float32) -> ClkLayer:
    rng = rng if rng is not None else np.random.default_rng(0)
    return ClkLayer(
        w_local=ag.parameter(init_weights(rng, (channels, 1) + LOCAL_KERNEL, dtype)),
        w_long=ag.parameter(init_weights(rng, (channels, 1) + LONG_KERNEL, dtype)),
        pw_w=ag.parameter(init_weights(rng, (channels, channels, 1, 1), dtype)),
        pw_b=ag.parameter(np.zeros(channels, dtype=dtype)),
        spec_local=T.depthwise_spec(channels, LOCAL_KERNEL, LOCAL_DILATION),
        spec_long=T.depthwise_spec(channels, LONG_KERNEL, LONG_DILATION),
    )


def clk_forward(x, layer: ClkLayer) -> ag.Var:
    """Cascade mode: pointwise(long(local(x)))."""
    x = ag.as_var(x)
    _check_channels(x, layer.channels)
    y = ag.conv(x, layer.w_local, layer.spec_local)
    y = ag.conv(y, layer.w_long, layer.spec_long)
    return ag.pointwise(y, layer.pw_w, layer.pw_b)


def parallel_forward(x, layer: ClkLayer) -> ag.Var:
    """Parallel baseline: pointwise(local(x) + long(x))."""
    x = ag.as_var(x)
    _check_channels(x, layer.channels)
    y = ag.add(ag.conv(x, layer.w_local, layer.spec_local),
               ag.conv(x, layer.w_long, layer.spec_long))
    return ag.pointwise(y, layer.pw_w, layer.pw_b)


@dataclass
class CpdcLayer:
    """Two stacked difference convs (5x5 d1 then 7x7 d3) plus a 1x1 gate."""

    stage_local: PdcLayer
    stage_long: PdcLayer
    gate_w: ag.Var | None = None
    gate_b: ag.Var | None = None

    @property
    def channels(self) -> int:
        return self.stage_local.channels

    def parameters(self, prefix: str = "cpdc") -> dict[str, ag.Var]:
        params = {}
        params.update(self.stage_local.parameters(f"{prefix}.local"))
        params.update(self.stage_long.parameters(f"{prefix}.long"))
        if self.gate_w is not None:
            params[f"{prefix}.gate_w"] = self.gate_w
            params[f"{prefix}.gate_b"] = self.gate_b
        return params


def make_cpdc_layer(channels: int, rng: np.random.Generator | None = None,
                    dtype=np.float32, alpha_init: float = 0.0,
                    alpha_fixed: float | None = None, with_gate: bool = True) -> CpdcLayer:
    rng = rng if rng is not None else np.random.default_rng(0)
    stage_local = make_pdc_layer(channels, LOCAL_KERNEL, LOCAL_DILATION, rng=rng,
                                 dtype=dtype, alpha_init=alpha_init,
                                 alpha_fixed=alpha_fixed, with_gate=False)
    stage_long = make_pdc_layer(channels, LONG_KERNEL, LONG_DILATION, rng=rng,
                                dtype=dtype, alpha_init=alpha_init,
                                alpha_fixed=alpha_fixed, with_gate=False)
    gate_w = gate_b = None
    if with_gate:
        gate_w = ag.parameter(init_weights(rng, (channels, channels, 1, 1), dtype))
        gate_b = ag.parameter(np.zeros(channels, dtype=dtype))
    return CpdcLayer(stage_local, stage_long, gate_w, gate_b)


def cpdc_raw(x, layer: CpdcLayer) -> ag.Var:
    """Composed difference-conv feature before gating."""
    x = ag.as_var(x)
    _check_channels(x, layer.channels)
    return pdc_forward(pdc_forward(x, layer.stage_local), layer.stage_long)


def cpdc_forward(x, layer: CpdcLayer) -> ag.Var:
    """Gated output: pointwise(cpdc_raw(x)) elementwise-multiplied by x."""
    x = ag.as_var(x)
    if layer.gate_w is None:
        raise ConfigurationError("layer has no gate weights")
    feat = cpdc_raw(x, layer)
    gate = ag.pointwise(feat, layer.gate_w, layer.gate_b)
    return ag.mul(gate, x)


# --- receptive-field analysis --------------------------------------------

@dataclass
class SupportMap:
    """Pixel-usage counts around one output location."""

    counts: np.ndarray  # 2-D int array, odd side lengths, centered
    mode: str

    @property
    def extent(self) -> tuple[int, int]:
        return self.counts.shape

    def holes(self) -> int:
        """Zero-count pixels inside the bounding square."""
        return int(np.count_nonzero(self.counts == 0))

    def to_ascii(self) -> str:
        width = max(len(str(int(self.counts.max()))), 1)
        rows = []
        for row in self.counts:
            rows.append(" ".join(f"{int(v):>{width}d}" if v else "." * width for v in row))
        return "\n".join(rows)


def _indicator(kernel: tuple[int, int], dilation: int) -> np.ndarray:
    kh, kw = kernel
    grid = np.zeros(((kh - 1) * dilation + 1, (kw - 1) * dilation + 1), dtype=np.int64)
    grid[::dilation, ::dilation] = 1
    return grid


def _embed_center(small: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape, dtype=np.int64)
    oh = (shape[0] - small.shape[0]) // 2
    ow = (shape[1] - small.shape[1]) // 2
    out[oh : oh + small.shape[0], ow : ow + small.shape[1]] = small
    return out


def analytic_support(mode: str) -> np.ndarray:
    """Usage counts from convolving the stage kernels' indicator grids."""
    ind5 = _indicator(LOCAL_KERNEL, LOCAL_DILATION)
    ind7 = _indicator(LONG_KERNEL, LONG_DILATION)
    if mode == "single5":
        return ind5
    if mode == "single7d3":
        return ind7
    if mode in ("cascade", "cpdc"):
        return convolve2d(ind5, ind7, mode="full")
    if mode == "parallel":
        return _embed_center(ind5, ind7.shape) + ind7
    raise ConfigurationError(f"unknown receptive-field mode {mode!r}; choose from {RF_MODES}")


def _crop_to_support(grid: np.ndarray) -> np.ndarray:
    ys, xs = np.nonzero(grid)
    return grid[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]


def receptive_field(mode: str) -> SupportMap:
    """Empirical support via gradient probing of an all-ones probe network.

    The output gradient is a unit impulse at the center pixel; the input
    gradient magnitudes are the usage counts.  The cpdc mode probes the
    composed conv path (blend coefficient 0), since the blend and gate do
    not change which pixels are reachable.
    """
    analytic = analytic_support(mode)  # also validates the mode
    half = max(analytic.shape) // 2
    size = 2 * half + 1 + 8  # margin so padding never clips the support
    if size % 2 == 0:
        size += 1
    x = ag.parameter(np.zeros((1, 1, size, size), dtype=np.float64))
    ones5 = ag.Var(np.ones((1, 1) + LOCAL_KERNEL, dtype=np.float64))
    ones7 = ag.Var(np.ones((1, 1) + LONG_KERNEL, dtype=np.float64))
    spec5 = T.depthwise_spec(1, LOCAL_KERNEL, LOCAL_DILATION)
    spec7 = T.depthwise_spec(1, LONG_KERNEL, LONG_DILATION)
    if mode == "single5":
        y = ag.conv(x, ones5, spec5)
    elif mode == "single7d3":
        y = ag.conv(x, ones7, spec7)
    elif mode in ("cascade", "cpdc"):
        y = ag.conv(ag.conv(x, ones5, spec5), ones7, spec7)
    else:  # parallel
        y = ag.add(ag.conv(x, ones5, spec5), ag.conv(x, ones7, spec7))
    impulse = np.zeros_like(y.value)
    impulse[0, 0, size // 2, size // 2] = 1.0
    loss = ag.vsum(ag.mul(y, ag.Var(impulse)))
    ag.backward(loss)
    counts = np.rint(np.abs(x.grad[0, 0])).astype(np.int64)
    return SupportMap(_crop_to_support(counts), mode)


# --- cost accounting ------------------------------------------------------

def clk_flops(channels: int, spatial: tuple[int, int],
              include_pointwise: bool = True) -> int:
    """MAC count for the three-stage cascade at one spatial size."""
    total = T.flop_count(T.depthwise_spec(channels, LOCAL_KERNEL, LOCAL_DILATION),
                         channels, channels, spatial)
    total += T.flop_count(T.depthwise_spec(channels, LONG_KERNEL, LONG_DILATION),
                          channels, channels, spatial)
    if include_pointwise:
        total += T.flop_count(T.pointwise_spec(), channels, channels, spatial)
    return total


def large_kernel_flops(channels: int, spatial: tuple[int, int], size: int = 21,
                       include_pointwise: bool = True) -> int:
    """MAC count for one depthwise size x size kernel (plus 1x1 mix)."""
    total = T.flop_count(T.depthwise_spec(channels, (size, size), 1),
                         channels, channels, spatial)
    if include_pointwise:
        total += T.flop_count(T.pointwise_spec(), channels, channels, spatial)
    return total
