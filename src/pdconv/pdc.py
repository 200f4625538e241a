"""Pixel-difference convolution: blended difference/vanilla aggregation with a
learnable mixing coefficient and an optional channel gate.

The blend coefficient has two parameterizations: a stored real squashed to
(0,1) through a logistic (the learnable mode) and a fixed-value bypass used
for ablation sweeps.  The production path is the rewritten form
conv(x, w) - alpha * x * sum(w), run as one depthwise conv on a folded
kernel: with "same" padding the center tap reads x itself, so the form
equals conv(x, w - alpha * sum(w) * delta_center).  The definitional
two-term form is kept as its cross-check oracle.  A layer's ``mode`` picks
the form and may be reassigned, so pdc_forward checks it.
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
    gate: Pointwise | None = None  # C -> C
    mode: str = "rewritten"        # or "definitional"; checked by pdc_forward
    alpha_fixed: float | None = None

    @property
    def channels(self) -> int:
        return self.weights.value.shape[0]

    def parameters(self, prefix: str = "pdc") -> dict[str, ag.Var]:
        # alpha is always listed, even in fixed mode where its gradient is
        # exactly zero, so every variant has the same parameter count
        params = {f"{prefix}.dw": self.weights, f"{prefix}.alpha": self.alpha_raw}
        if self.gate is not None:
            params.update(self.gate.parameters(f"{prefix}.gate"))
        return params


def init_weights(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Centered uniform with fan-in scaling."""
    fan_in = int(np.prod(shape[1:]))
    limit = np.sqrt(3.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


@dataclass
class Pointwise:
    """1x1 conv with bias: the operator gates, CLK's mix, ECF's gates, the decoder."""

    w: ag.Var  # (C_out, C_in, 1, 1)
    b: ag.Var  # (C_out,)

    def __call__(self, x) -> ag.Var:
        return ag.pointwise(x, self.w, self.b)

    def parameters(self, prefix: str) -> dict[str, ag.Var]:
        return {f"{prefix}_w": self.w, f"{prefix}_b": self.b}


def make_pointwise(c_in: int, c_out: int, rng: np.random.Generator, dtype) -> Pointwise:
    return Pointwise(ag.parameter(init_weights(rng, (c_out, c_in, 1, 1), dtype)),
                     ag.parameter(np.zeros(c_out, dtype=dtype)))


def make_pdc_layer(channels: int, kernel: tuple[int, int] = (5, 5), dilation: int = 1,
                   *, rng: np.random.Generator, dtype=np.float32,
                   alpha_init: float = 0.0, alpha_fixed: float | None = None,
                   with_gate: bool = True) -> PdcLayer:
    spec = T.depthwise_spec(channels, kernel, dilation)
    weights = ag.parameter(init_weights(rng, (channels, 1) + kernel, dtype))
    alpha_raw = ag.parameter(np.asarray(alpha_init, dtype=dtype))
    gate = make_pointwise(channels, channels, rng, dtype) if with_gate else None
    return PdcLayer(weights, spec, alpha_raw, gate, alpha_fixed=alpha_fixed)


def alpha_effective(layer: PdcLayer) -> ag.Var:
    """Blend coefficient in (0,1): logistic of the stored parameter, or the
    fixed bypass value."""
    if layer.alpha_fixed is not None:
        return ag.Var(np.asarray(layer.alpha_fixed, dtype=layer.weights.value.dtype))
    return ag.sigmoid(layer.alpha_raw)


def _fold_center(w: ag.Var, a: ag.Var) -> ag.Var:
    """The kernel w - a * sum(w) * delta_center of a depthwise weight
    (C, 1, kh, kw) and a scalar a, with sum(w) taken per channel."""
    c, _, kh, kw = w.value.shape
    ci, cj = kh // 2, kw // 2
    sums = w.value.sum(axis=(1, 2, 3))
    folded = w.value.copy()
    folded[:, 0, ci, cj] -= a.value * sums

    def bwd(g):
        g_center = g[:, 0, ci, cj]
        gw = g - (a.value * g_center).reshape(c, 1, 1, 1)
        ga = -np.sum(g_center * sums)
        return gw, np.asarray(ga, dtype=a.value.dtype).reshape(a.value.shape)

    return ag.Var(folded, (w, a), bwd)


def pdc_forward(x, layer: PdcLayer) -> ag.Var:
    """Blended pixel-difference convolution (pre-gate feature).

    rewritten mode:     conv(x, w) - alpha * x * sum(w),
                        run as conv(x, w - alpha * sum(w) * delta_center)
    definitional mode:  alpha * (conv(x, w) - x * sum(w)) + (1 - alpha) * conv(x, w)

    The two are algebraically identical; keeping both makes them mutual
    oracles at float precision.  Any other mode is a ConfigurationError.
    """
    if layer.mode not in ("rewritten", "definitional"):
        raise ConfigurationError(f"unknown PDC mode {layer.mode!r}")
    x = ag.as_var(x)
    if x.value.shape[1] != layer.channels:
        raise DimensionError(f"input axis C is {x.value.shape[1]}, "
                             f"layer expects {layer.channels}")
    a = alpha_effective(layer)
    if layer.mode == "rewritten":
        return ag.conv(x, _fold_center(layer.weights, a), layer.spec)
    conv_term = ag.conv(x, layer.weights, layer.spec)
    center_term = ag.mul(x, ag.reduce_to_channel(layer.weights))
    diff_term = ag.sub(conv_term, center_term)
    one = ag.Var(np.asarray(1.0, dtype=x.value.dtype))
    return ag.add(ag.mul(diff_term, a), ag.mul(conv_term, ag.sub(one, a)))


def pdc_gated(x, layer: PdcLayer) -> ag.Var:
    """Channel-gated output: pointwise(pdc(x)) elementwise-multiplied by x."""
    x = ag.as_var(x)
    if layer.gate is None:
        raise ConfigurationError("layer has no gate weights")
    return ag.mul(layer.gate(pdc_forward(x, layer)), x)


def equivalence_deviation(seeds: int, dtype=np.float32) -> float:
    """Max relative deviation between the rewritten and definitional forms
    over random 8x8 instances; used by the `pdconv equivalence` command."""
    channels, kernels, size = (1, 2, 8), (((5, 5), 1), ((7, 7), 3)), 8
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
