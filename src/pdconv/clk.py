"""Cascade large-kernel operator, its parallel-mode baseline, the composed
difference-conv variant used on the RGB branch, and receptive-field analysis.

CPDC stacks two difference convs, a dense depthwise 5x5 (dilation 1) and a
sparse depthwise 7x7 (dilation 3); the dense stage fills the dilation holes
of the sparse one, so the composed support is a solid square at a small
fraction of the multiply count of one equally sized kernel.  At blend 0 a
difference conv is the plain depthwise conv, so CLK is the CPDC cascade with
both blends fixed at 0, followed by a 1x1 mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigurationError
from .pdc import PdcLayer, Pointwise, make_pdc_layer, make_pointwise, pdc_forward

LOCAL_KERNEL = (5, 5)
LOCAL_DILATION = 1
LONG_KERNEL = (7, 7)
LONG_DILATION = 3

RF_MODES = ("single5", "single7d3", "cascade", "parallel", "cpdc")


@dataclass
class ClkLayer:
    """Depthwise 5x5 d1 -> depthwise 7x7 d3 (the CPDC cascade at blend 0) -> 1x1."""

    cascade: CpdcLayer
    pw: Pointwise

    def parameters(self, prefix: str = "clk") -> dict[str, ag.Var]:
        # the fixed blends are constants, so the stages' alphas are not listed
        return {f"{prefix}.dw_local": self.cascade.stage_local.weights,
                f"{prefix}.dw_long": self.cascade.stage_long.weights,
                **self.pw.parameters(f"{prefix}.pw")}


def make_clk_layer(channels: int, rng: np.random.Generator, dtype=np.float32) -> ClkLayer:
    return ClkLayer(make_cpdc_layer(channels, rng, dtype, alpha_fixed=0.0, with_gate=False),
                    make_pointwise(channels, channels, rng, dtype))


def clk_forward(x, layer: ClkLayer) -> ag.Var:
    """Cascade mode: pointwise(long(local(x)))."""
    return layer.pw(cpdc_raw(x, layer.cascade))


def parallel_forward(x, layer: ClkLayer) -> ag.Var:
    """Parallel baseline: pointwise(local(x) + long(x))."""
    return layer.pw(ag.add(pdc_forward(x, layer.cascade.stage_local),
                           pdc_forward(x, layer.cascade.stage_long)))


@dataclass
class CpdcLayer:
    """Two stacked difference convs (5x5 d1 then 7x7 d3) plus a 1x1 gate."""

    stage_local: PdcLayer
    stage_long: PdcLayer
    gate: Pointwise | None = None

    def parameters(self, prefix: str = "cpdc") -> dict[str, ag.Var]:
        params = {}
        params.update(self.stage_local.parameters(f"{prefix}.local"))
        params.update(self.stage_long.parameters(f"{prefix}.long"))
        if self.gate is not None:
            params.update(self.gate.parameters(f"{prefix}.gate"))
        return params


def make_cpdc_layer(channels: int, rng: np.random.Generator, dtype=np.float32,
                    alpha_init: float = 0.0, alpha_fixed: float | None = None,
                    with_gate: bool = True) -> CpdcLayer:
    stage_local = make_pdc_layer(channels, LOCAL_KERNEL, LOCAL_DILATION, rng=rng,
                                 dtype=dtype, alpha_init=alpha_init,
                                 alpha_fixed=alpha_fixed, with_gate=False)
    stage_long = make_pdc_layer(channels, LONG_KERNEL, LONG_DILATION, rng=rng,
                                dtype=dtype, alpha_init=alpha_init,
                                alpha_fixed=alpha_fixed, with_gate=False)
    gate = make_pointwise(channels, channels, rng, dtype) if with_gate else None
    return CpdcLayer(stage_local, stage_long, gate)


def cpdc_raw(x, layer: CpdcLayer) -> ag.Var:
    """Composed difference-conv feature before gating."""
    return pdc_forward(pdc_forward(x, layer.stage_local), layer.stage_long)


def cpdc_forward(x, layer: CpdcLayer) -> ag.Var:
    """Gated output: pointwise(cpdc_raw(x)) elementwise-multiplied by x."""
    x = ag.as_var(x)
    if layer.gate is None:
        raise ConfigurationError("layer has no gate weights")
    return ag.mul(layer.gate(cpdc_raw(x, layer)), x)


# --- receptive-field analysis --------------------------------------------

@dataclass
class SupportMap:
    """Pixel-usage counts around one output location."""

    counts: np.ndarray  # 2-D int array, odd side lengths, centered

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


def analytic_support(mode: str) -> np.ndarray:
    """Usage counts from convolving the stage kernels' indicator grids."""
    ind5 = _indicator(LOCAL_KERNEL, LOCAL_DILATION)
    ind7 = _indicator(LONG_KERNEL, LONG_DILATION)
    if mode == "single5":
        return ind5
    if mode == "single7d3":
        return ind7
    if mode in ("cascade", "cpdc"):
        full = np.zeros(np.add(ind5.shape, ind7.shape) - 1, dtype=np.int64)
        for (i, j), v in np.ndenumerate(ind5):
            full[i : i + ind7.shape[0], j : j + ind7.shape[1]] += v * ind7
        return full
    if mode == "parallel":
        return np.pad(ind5, (ind7.shape[0] - ind5.shape[0]) // 2) + ind7  # centered
    raise ConfigurationError(f"unknown receptive-field mode {mode!r}; choose from {RF_MODES}")


def _crop_to_support(grid: np.ndarray) -> np.ndarray:
    ys, xs = np.nonzero(grid)
    return grid[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]


def receptive_field(mode: str) -> SupportMap:
    """Empirical support via gradient probing of the operators themselves,
    run on a one-channel CLK layer whose weights are all 1.

    The output gradient is a unit impulse at the center pixel; the input
    gradient magnitudes are the usage counts.  The cpdc mode probes cpdc_raw
    at the layer's blend 0, since the blend and gate do not change which
    pixels are reachable.
    """
    # odd, as the support is, with a margin so padding never clips the support
    size = max(analytic_support(mode).shape) + 8  # also validates the mode
    x = ag.parameter(np.zeros((1, 1, size, size), dtype=np.float64))
    layer = make_clk_layer(1, np.random.default_rng(0), np.float64)
    for p in layer.parameters().values():
        p.value[...] = 1.0
    op, arg = {"single5": (pdc_forward, layer.cascade.stage_local),
               "single7d3": (pdc_forward, layer.cascade.stage_long),
               "cascade": (clk_forward, layer), "parallel": (parallel_forward, layer),
               "cpdc": (cpdc_raw, layer.cascade)}[mode]
    y = op(x, arg)
    impulse = np.zeros_like(y.value)
    impulse[0, 0, size // 2, size // 2] = 1.0
    loss = ag.vsum(ag.mul(y, ag.Var(impulse)))
    ag.backward(loss)
    counts = np.rint(np.abs(x.grad[0, 0])).astype(np.int64)
    return SupportMap(_crop_to_support(counts))


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


def large_kernel_flops(channels: int, spatial: tuple[int, int],
                       include_pointwise: bool = True) -> int:
    """MAC count for one depthwise 21x21 kernel (plus 1x1 mix)."""
    total = T.flop_count(T.depthwise_spec(channels, (21, 21), 1),
                         channels, channels, spatial)
    if include_pointwise:
        total += T.flop_count(T.pointwise_spec(), channels, channels, spatial)
    return total
