"""Registered-op gradcheck suite shared by the CLI and the acceptance tests.

Each entry builds a small f64 instance of one op (or composite) and returns a
closure computing a scalar loss plus the parameter dict to check.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import tensor as T
from .clk import make_clk_layer, make_cpdc_layer, clk_forward, cpdc_forward, parallel_forward
from .errors import ConfigurationError
from .fusion import ecf_fuse, make_ecf_layer
from .network import NetConfig, ToyPdcNet, cross_entropy
from .pdc import make_pdc_layer, pdc_gated


def _rand(rng, shape):
    return rng.standard_normal(shape).astype(np.float64)


def _build_conv2d(rng):
    x = ag.parameter(_rand(rng, (1, 2, 6, 6)))
    w = ag.parameter(_rand(rng, (3, 2, 3, 3)))
    spec = T.ConvSpec(kernel=(3, 3), dilation=2)
    return (lambda: ag.vsum(ag.mul(ag.conv(x, w, spec), ag.conv(x, w, spec))),
            {"x": x, "w": w})


def _build_pointwise(rng):
    x = ag.parameter(_rand(rng, (1, 3, 5, 5)))
    w = ag.parameter(_rand(rng, (2, 3, 1, 1)))
    b = ag.parameter(_rand(rng, (2,)))
    return (lambda: ag.vsum(ag.relu(ag.pointwise(x, w, b))), {"x": x, "w": w, "b": b})


def _build_elementwise(rng):
    a = ag.parameter(_rand(rng, (1, 2, 4, 4)))
    b = ag.parameter(_rand(rng, (1, 2, 4, 4)))
    return (lambda: ag.vsum(ag.add(ag.mul(a, b), ag.sub(a, ag.scale(b, 0.5)))),
            {"a": a, "b": b})


def _build_norm_act(rng):
    y, residual = (ag.parameter(_rand(rng, (1, 2, 5, 5))) for _ in range(2))
    gamma, beta = (ag.parameter(_rand(rng, (1, 2, 1, 1))) for _ in range(2))
    mask = _fixed_mask(y.shape)
    return (lambda: ag.vsum(ag.mul(ag.norm_act(y, gamma, beta, residual), mask)),
            {"y": y, "gamma": gamma, "beta": beta, "residual": residual})


def _fixed_mask(shape) -> ag.Var:
    # fixed weighting so the scalar loss is sensitive to every output pixel
    return ag.Var(np.random.default_rng(12345).standard_normal(shape))


def _masked(rng, layer, fn, size):
    """Loss sum(fn(x, layer) * mask) for a random x of (1, 2, size, size)."""
    x = ag.parameter(_rand(rng, (1, 2, size, size)))
    mask = _fixed_mask(x.shape)
    return (lambda: ag.vsum(ag.mul(fn(x, layer), mask)), {"x": x, **layer.parameters()})


def _build_pdc(rng):
    layer = make_pdc_layer(2, rng=rng, dtype=np.float64, alpha_init=float(rng.normal()))
    return _masked(rng, layer, pdc_gated, 6)


def _build_clk(rng):
    return _masked(rng, make_clk_layer(2, rng=rng, dtype=np.float64), clk_forward, 8)


def _build_parallel(rng):
    return _masked(rng, make_clk_layer(2, rng=rng, dtype=np.float64), parallel_forward, 8)


def _build_cpdc(rng):
    layer = make_cpdc_layer(2, rng=rng, dtype=np.float64, alpha_init=float(rng.normal()))
    return _masked(rng, layer, cpdc_forward, 8)


def _build_ecf(rng):
    layer = make_ecf_layer(2, rng=rng, dtype=np.float64)
    tensors = {name: ag.parameter(_rand(rng, (1, 2, 5, 5)))
               for name in ("f_rgb", "f_depth", "hat_rgb", "hat_depth")}
    mask = _fixed_mask(tensors["f_rgb"].shape)
    return (lambda: ag.vsum(ag.mul(ecf_fuse(*tensors.values(), layer), mask)),
            {**tensors, **layer.parameters()})


def _build_network(rng):
    cfg = NetConfig(classes=3, channels=(4, 6, 8), blocks_per_stage=1, decoder_channels=4)
    net = ToyPdcNet(cfg, rng=rng, dtype=np.float64)
    rgb = rng.random((1, 3, 16, 16))
    depth = rng.random((1, 1, 16, 16))
    labels = rng.integers(0, cfg.classes, size=(1, 16, 16))
    return (lambda: cross_entropy(net.forward(rgb, depth), labels), net.parameters())


REGISTRY = {
    "conv2d": _build_conv2d,
    "pointwise": _build_pointwise,
    "elementwise": _build_elementwise,
    "norm_act": _build_norm_act,
    "pdc": _build_pdc,
    "clk": _build_clk,
    "parallel": _build_parallel,
    "cpdc": _build_cpdc,
    "ecf": _build_ecf,
    "network": _build_network,
}

# the full network has thousands of coordinates; sample a subset per parameter
SAMPLED_COORDS = {"network": 3}


def run_gradcheck(op: str, seed: int = 0) -> ag.GradReport:
    if op not in REGISTRY:
        raise ConfigurationError(f"unknown op {op!r}; registered: {', '.join(REGISTRY)}")
    rng = np.random.default_rng(seed)
    f, params = REGISTRY[op](rng)
    max_coords = SAMPLED_COORDS.get(op)
    return ag.gradcheck(f, params, max_coords=max_coords, rng=np.random.default_rng(seed + 1))
