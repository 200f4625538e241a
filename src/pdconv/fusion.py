"""Cross-modal fusion of per-stage RGB and depth features.

Each branch contributes gate(feat) * feat + residual, and the two branch
terms are combined with independent learnable scalars.  The inputs named
``hat_*`` are the raw (pre-gate) difference-conv features; the gates here are
the only gating applied on the fusion path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import DimensionError
from .pdc import init_weights


@dataclass
class EcfLayer:
    """Per-stage fusion parameters: two branch scalars and two 1x1 gates."""

    eta: ag.Var        # scalar weight on the RGB term
    lam: ag.Var        # scalar weight on the depth term
    gate_rgb_w: ag.Var
    gate_rgb_b: ag.Var
    gate_depth_w: ag.Var
    gate_depth_b: ag.Var

    def parameters(self, prefix: str = "ecf") -> dict[str, ag.Var]:
        return {
            f"{prefix}.eta": self.eta,
            f"{prefix}.lambda": self.lam,
            f"{prefix}.gate_rgb_w": self.gate_rgb_w,
            f"{prefix}.gate_rgb_b": self.gate_rgb_b,
            f"{prefix}.gate_depth_w": self.gate_depth_w,
            f"{prefix}.gate_depth_b": self.gate_depth_b,
        }


def make_ecf_layer(channels: int, rng: np.random.Generator, dtype=np.float32) -> EcfLayer:
    return EcfLayer(
        eta=ag.parameter(np.asarray(0.5, dtype=dtype)),
        lam=ag.parameter(np.asarray(0.5, dtype=dtype)),
        gate_rgb_w=ag.parameter(init_weights(rng, (channels, channels, 1, 1), dtype)),
        gate_rgb_b=ag.parameter(np.zeros(channels, dtype=dtype)),
        gate_depth_w=ag.parameter(init_weights(rng, (channels, channels, 1, 1), dtype)),
        gate_depth_b=ag.parameter(np.zeros(channels, dtype=dtype)),
    )


def ecf_fuse(f_rgb, f_depth, hat_rgb, hat_depth, layer: EcfLayer) -> ag.Var:
    """eta * (gate(hat_rgb) * hat_rgb + f_rgb) + lambda * (gate(hat_depth) * hat_depth + f_depth)."""
    f_rgb, f_depth = ag.as_var(f_rgb), ag.as_var(f_depth)
    hat_rgb, hat_depth = ag.as_var(hat_rgb), ag.as_var(hat_depth)
    shape = f_rgb.value.shape
    for name, t in (("f_depth", f_depth), ("hat_rgb", hat_rgb), ("hat_depth", hat_depth)):
        if t.value.shape != shape:
            raise DimensionError(f"{name} shape {t.value.shape} does not match f_rgb {shape}")
    rgb_term = ag.add(ag.mul(ag.pointwise(hat_rgb, layer.gate_rgb_w, layer.gate_rgb_b),
                             hat_rgb), f_rgb)
    depth_term = ag.add(ag.mul(ag.pointwise(hat_depth, layer.gate_depth_w, layer.gate_depth_b),
                               hat_depth), f_depth)
    return ag.add(ag.mul(rgb_term, layer.eta), ag.mul(depth_term, layer.lam))
