"""Pixel-difference convolution: blended difference/vanilla aggregation with a
learnable mixing coefficient and an optional channel gate.

The blend coefficient has two parameterizations: a stored real squashed to
(0,1) through a logistic (the learnable mode) and a fixed-value bypass used
for ablation sweeps.  The production path is the rewritten single-conv form;
the definitional two-term form is kept as its cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigurationError, DimensionError


@dataclass
class PdcLayer:
    """Depthwise difference conv with blend coefficient and optional 1x1 gate."""

    weights: ag.Var                # (C, 1, kh, kw)
    spec: T.ConvSpec               # depthwise: groups == C
    alpha_raw: ag.Var              # stored scalar, squashed by logistic
    gate_w: ag.Var | None = None   # (C, C, 1, 1)
    gate_b: ag.Var | None = None   # (C,)
    mode: str = "rewritten"
    alpha_fixed: float | None = None

    def __post_init__(self):
        c = self.weights.value.shape[0]
        if self.spec.groups != c:
            raise ConfigurationError(
                f"PDC depthwise conv needs groups == channels ({c}), got {self.spec.groups}"
            )
        if self.mode not in ("rewritten", "definitional"):
            raise ConfigurationError(f"unknown PDC mode {self.mode!r}")

    @property
    def channels(self) -> int:
        return self.weights.value.shape[0]

    def parameters(self, prefix: str = "pdc") -> dict[str, ag.Var]:
        # alpha is always listed, even in fixed mode where its gradient is
        # exactly zero, so every variant has the same parameter count
        params = {f"{prefix}.dw": self.weights, f"{prefix}.alpha": self.alpha_raw}
        if self.gate_w is not None:
            params[f"{prefix}.gate_w"] = self.gate_w
            params[f"{prefix}.gate_b"] = self.gate_b
        return params


def init_weights(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Centered uniform with fan-in scaling."""
    fan_in = int(np.prod(shape[1:]))
    limit = np.sqrt(3.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def make_pdc_layer(channels: int, kernel: tuple[int, int] = (5, 5), dilation: int = 1,
                   rng: np.random.Generator | None = None, dtype=np.float32,
                   alpha_init: float = 0.0, alpha_fixed: float | None = None,
                   with_gate: bool = True, mode: str = "rewritten") -> PdcLayer:
    rng = rng if rng is not None else np.random.default_rng(0)
    spec = T.depthwise_spec(channels, kernel, dilation)
    weights = ag.parameter(init_weights(rng, (channels, 1) + kernel, dtype))
    alpha_raw = ag.parameter(np.asarray(alpha_init, dtype=dtype))
    gate_w = gate_b = None
    if with_gate:
        gate_w = ag.parameter(init_weights(rng, (channels, channels, 1, 1), dtype))
        gate_b = ag.parameter(np.zeros(channels, dtype=dtype))
    return PdcLayer(weights, spec, alpha_raw, gate_w, gate_b,
                    mode=mode, alpha_fixed=alpha_fixed)


def alpha_effective(layer: PdcLayer) -> ag.Var:
    """Blend coefficient in (0,1): logistic of the stored parameter, or the
    fixed bypass value."""
    if layer.alpha_fixed is not None:
        return ag.Var(np.asarray(layer.alpha_fixed, dtype=layer.weights.value.dtype))
    return ag.sigmoid(layer.alpha_raw)


def _check_channels(x: ag.Var, channels: int) -> None:
    if x.value.shape[1] != channels:
        raise DimensionError(f"input axis C is {x.value.shape[1]}, layer expects {channels}")


def pdc_forward(x, layer: PdcLayer) -> ag.Var:
    """Blended pixel-difference convolution (pre-gate feature).

    rewritten mode:     conv(x, w) - alpha * x * sum(w)
    definitional mode:  alpha * (conv(x, w) - x * sum(w)) + (1 - alpha) * conv(x, w)

    The two are algebraically identical; keeping both makes them mutual
    oracles at float precision.
    """
    x = ag.as_var(x)
    _check_channels(x, layer.channels)
    a = alpha_effective(layer)
    conv_term = ag.conv(x, layer.weights, layer.spec)
    center_term = ag.mul(x, ag.reduce_to_channel(layer.weights))
    if layer.mode == "rewritten":
        return ag.sub(conv_term, ag.mul(center_term, a))
    diff_term = ag.sub(conv_term, center_term)
    one = ag.Var(np.asarray(1.0, dtype=x.value.dtype))
    return ag.add(ag.mul(diff_term, a), ag.mul(conv_term, ag.sub(one, a)))


def pdc_gated(x, layer: PdcLayer) -> ag.Var:
    """Channel-gated output: pointwise(pdc(x)) elementwise-multiplied by x."""
    x = ag.as_var(x)
    if layer.gate_w is None:
        raise ConfigurationError("layer has no gate weights")
    feat = pdc_forward(x, layer)
    gate = ag.pointwise(feat, layer.gate_w, layer.gate_b)
    return ag.mul(gate, x)


def equivalence_deviation(seeds: int, channels: tuple[int, ...] = (1, 2, 8),
                          kernels=((  (5, 5), 1), ((7, 7), 3)),
                          dtype=np.float32, size: int = 8) -> float:
    """Max relative deviation between the rewritten and definitional forms
    over random instances; used by the `pdconv equivalence` command."""
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        c = channels[seed % len(channels)]
        kernel, dilation = kernels[seed % len(kernels)]
        layer = make_pdc_layer(c, kernel, dilation, rng=rng, dtype=dtype,
                               alpha_init=float(rng.normal()), with_gate=False)
        x = rng.standard_normal((1, c, size, size)).astype(dtype)
        layer.mode = "rewritten"
        y_rw = pdc_forward(x, layer).value
        layer.mode = "definitional"
        y_df = pdc_forward(x, layer).value
        denom = max(float(np.max(np.abs(y_df))), 1e-8)
        worst = max(worst, float(np.max(np.abs(y_rw - y_df))) / denom)
    return worst
