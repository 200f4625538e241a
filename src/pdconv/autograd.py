"""Minimal reverse-mode differentiation over the numpy operator set.

A Var wraps a numpy value plus the backward rule that produced it.  Graphs
are built eagerly by the op functions below and differentiated by
``backward``; gradients accumulate additively across fan-out and the
traversal order is fixed, so repeated backward passes are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, DimensionError, NumericError


class Var:
    __slots__ = ("value", "grad", "parents", "_backward", "name")

    def __init__(self, value, parents=(), backward=None, name=None):
        self.value = np.asarray(value)
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype}, name={self.name})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


def parameter(value, name=None) -> Var:
    return Var(np.asarray(value), name=name)


def _topo(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Var) -> None:
    """Populate .grad on every node reachable from a scalar-valued root."""
    if root.value.size != 1:
        raise ContractError(f"backward requires a scalar root, got shape {root.value.shape}")
    order = _topo(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None or node._backward is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# --- elementwise ---------------------------------------------------------

def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    val = a.value + b.value
    return Var(val, (a, b), lambda g: (_unbroadcast(g, a.value.shape),
                                       _unbroadcast(g, b.value.shape)))


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    val = a.value - b.value
    return Var(val, (a, b), lambda g: (_unbroadcast(g, a.value.shape),
                                       _unbroadcast(-g, b.value.shape)))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    val = a.value * b.value
    return Var(val, (a, b), lambda g: (_unbroadcast(g * b.value, a.value.shape),
                                       _unbroadcast(g * a.value, b.value.shape)))


def scale(a, s: float) -> Var:
    a = as_var(a)
    s = float(s)
    return Var(a.value * s, (a,), lambda g: (g * s,))


def relu(a) -> Var:
    a = as_var(a)
    mask = a.value > 0
    return Var(a.value * mask, (a,), lambda g: (g * mask,))


def sigmoid(a) -> Var:
    a = as_var(a)
    val = 1.0 / (1.0 + np.exp(-a.value))
    return Var(val, (a,), lambda g: (g * val * (1.0 - val),))


def vsum(a) -> Var:
    a = as_var(a)
    return Var(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def mean(a) -> Var:
    a = as_var(a)
    n = a.value.size
    return Var(np.mean(a.value),
               (a,), lambda g: (np.broadcast_to(g / n, a.value.shape).copy(),))


def reduce_to_channel(w: Var) -> Var:
    """Sum a weight tensor (C, Cg, kh, kw) over all but the out-channel axis,
    returned as (1, C, 1, 1) for broadcasting against NCHW features."""
    w = as_var(w)
    c = w.value.shape[0]
    val = w.value.sum(axis=(1, 2, 3)).reshape(1, c, 1, 1)

    def bwd(g):
        gw = np.broadcast_to(g.reshape(c, 1, 1, 1), w.value.shape).copy()
        return (gw,)

    return Var(val, (w,), bwd)


# --- convolution ---------------------------------------------------------

def conv(x, w, spec: T.ConvSpec, bias: Var | None = None) -> Var:
    x, w = as_var(x), as_var(w)
    b_arr = bias.value if bias is not None else None
    val = T.conv2d(x.value, T.ConvWeights(w.value, b_arr), spec)
    parents = (x, w) if bias is None else (x, w, bias)

    def bwd(g):
        gx = T.conv2d_input_grad(g, w.value, spec, x.value.shape)
        gw = T.conv2d_weight_grad(g, x.value, spec, w.value.shape)
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)))

    return Var(val, parents, bwd)


def pointwise(x, w, bias: Var | None = None) -> Var:
    return conv(x, w, T.pointwise_spec(), bias)


# --- structure ops -------------------------------------------------------

def concat_channels(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    ca = a.value.shape[1]
    val = np.concatenate([a.value, b.value], axis=1)
    return Var(val, (a, b), lambda g: (g[:, :ca], g[:, ca:]))


def _interp_matrix(n_out: int, n_in: int, dtype) -> np.ndarray:
    """Bilinear interpolation matrix (half-pixel centers, edges clamped)."""
    a = np.zeros((n_out, n_in), dtype=dtype)
    ratio = n_in / n_out
    for o in range(n_out):
        src = (o + 0.5) * ratio - 0.5
        i0 = math.floor(src)
        t = src - i0
        lo = min(max(i0, 0), n_in - 1)
        hi = min(max(i0 + 1, 0), n_in - 1)
        a[o, lo] += 1.0 - t
        a[o, hi] += t
    return a


def upsample_bilinear(x, out_hw: tuple[int, int]) -> Var:
    x = as_var(x)
    n, c, h, w = x.value.shape
    ho, wo = out_hw
    ah = _interp_matrix(ho, h, x.value.dtype)
    aw = _interp_matrix(wo, w, x.value.dtype)
    val = ah @ x.value @ aw.T

    def bwd(g):
        return (ah.T @ g @ aw,)

    return Var(val, (x,), bwd)


def standardize(x, eps: float = 1e-5) -> Var:
    """Zero-mean unit-variance per (sample, channel) over spatial dims."""
    x = as_var(x)
    mu = x.value.mean(axis=(2, 3), keepdims=True)
    var = x.value.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.value - mu) * inv

    def bwd(g):
        gm = g.mean(axis=(2, 3), keepdims=True)
        gym = (g * y).mean(axis=(2, 3), keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return Var(y, (x,), bwd)


def cross_entropy(logits, labels: np.ndarray) -> Var:
    """Mean pixel-wise cross-entropy from raw logits (N,M,H,W) and integer
    labels (N,H,W)."""
    logits = as_var(logits)
    n, m, h, w = logits.value.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise DimensionError(f"labels shape {labels.shape} does not match logits {(n, h, w)}")
    bad = (labels < 0) | (labels >= m)
    if bad.any():
        ni, hi, wi = (int(v[0]) for v in np.nonzero(bad))
        raise DataError(
            f"label {int(labels[ni, hi, wi])} out of range [0,{m}) at pixel "
            f"(n={ni}, h={hi}, w={wi})"
        )
    z = logits.value
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(ez.sum(axis=1, keepdims=True))
    onehot_logp = np.take_along_axis(logp, labels[:, None], axis=1)[:, 0]
    total = n * h * w
    loss = -onehot_logp.sum() / total

    def bwd(g):
        grad = softmax.copy()
        np.put_along_axis(grad, labels[:, None],
                          np.take_along_axis(grad, labels[:, None], axis=1) - 1.0, axis=1)
        return (grad * (g / total),)

    return Var(loss, (logits,), bwd)


# --- gradient checking ---------------------------------------------------

@dataclass
class GradReport:
    """Max relative analytic-vs-numeric gradient error per parameter."""

    step: float
    dtype: str
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    def passed(self, tol: float = 1e-4) -> bool:
        return all(np.isfinite(e) and e <= tol for e in self.errors.values())


def gradcheck(f, params: dict[str, Var], step: float = 1e-5,
              max_coords: int | None = None, rng: np.random.Generator | None = None,
              ) -> GradReport:
    """Compare analytic gradients of scalar f() against central differences.

    ``f`` must rebuild its graph from the current parameter values on each
    call.  Relative error uses denominator max(|analytic|, |numeric|, 1e-8).
    When ``max_coords`` is set, at most that many coordinates per parameter
    are probed (sampled with ``rng``).
    """
    out = f()
    if not np.all(np.isfinite(out.value)):
        raise NumericError(f"non-finite forward value in gradcheck of {f!r}")
    backward(out)
    analytic = {}
    for name, p in params.items():
        analytic[name] = (p.grad.copy() if p.grad is not None
                          else np.zeros_like(p.value))
    report = GradReport(step=step, dtype=str(out.value.dtype))
    for name, p in params.items():
        flat = p.value.reshape(-1)
        count = flat.size
        if max_coords is not None and count > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(count, size=max_coords, replace=False)
        else:
            coords = range(count)
        worst = 0.0
        ana_flat = analytic[name].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            fp = float(f().value)
            flat[idx] = orig - step
            fm = float(f().value)
            flat[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(f"non-finite perturbation value for parameter {name}")
            numeric = (fp - fm) / (2.0 * step)
            ana = float(ana_flat[idx])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.errors[name] = worst
    return report
