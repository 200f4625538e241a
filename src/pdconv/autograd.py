"""Minimal reverse-mode differentiation over the numpy operator set.

A Var wraps a numpy value plus the backward rule that produced it.  Graphs
are built eagerly by the op functions below and differentiated by
``backward``; gradients accumulate additively across fan-out and the
traversal order is fixed, so two graphs built from the same inputs give
bit-identical gradients.  Gradients persist on leaves only (parameters and
inputs, the Vars with no backward rule).  Backward consumes the graph: once
a node's rule has run, the node lets go of its parents and its rule, so each
interior value is freed as soon as nothing reads it any more.  To
differentiate again, build the graph again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, NumericError
from .metrics import check_labels

GRADCHECK_STEP = 1e-5  # central-difference step of gradcheck
GRADCHECK_TOL = 1e-4  # largest relative error a gradcheck passes with
# numpy's ufunc buffer, in elements, while the net computes: at numpy's
# default 8192, per-channel broadcasts on small planes take a slow path
UFUNC_BUFSIZE = 1024


def small_ufunc_buffer(fn):
    """``fn`` run with numpy's ufunc buffer at UFUNC_BUFSIZE elements; the
    caller's (per-thread) size is restored on return and on raise."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        old = np.setbufsize(UFUNC_BUFSIZE)
        try:
            return fn(*args, **kwargs)
        finally:
            np.setbufsize(old)
    return run


class Var:
    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Var(shape={self.value.shape}, dtype={self.value.dtype})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


def parameter(value) -> Var:
    return Var(np.asarray(value))


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


def _consumed(g):
    raise ContractError("this graph was consumed by an earlier backward; build it again")


def _run_rule(node: Var) -> None:
    """Run node's rule, add its gradients into its parents' and consume node.

    A function of its own so that the rule's gradient tuple is released on
    return, before the next rule allocates.  Accumulation stays out of place:
    a rule may hand the same array to several parents (``add`` does), so
    ``+=`` would corrupt them.
    """
    grads = node._backward(node.grad)
    parents = node.parents
    node.grad, node.parents, node._backward = None, (), _consumed
    for parent, g in zip(parents, grads):
        if g is None:
            continue
        if parent.grad is None:
            parent.grad = g
        else:
            parent.grad = parent.grad + g


@small_ufunc_buffer
def backward(root: Var) -> None:
    """Populate .grad on every leaf reachable from a scalar-valued root.

    Consumes the graph: right after a node's rule has run, its .grad is set
    to None, its parents to () and its rule to one that raises
    ContractError, so a second backward through any of its nodes fails
    rather than using stale values.  Rules run consumers before producers,
    so each interior value is released once the last rule that reads it has
    run; a Var the caller still holds keeps its .value.
    """
    if root.value.size != 1:
        raise ContractError(f"backward requires a scalar root, got shape {root.value.shape}")
    order = _topo(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    while order:
        node = order.pop()
        if node.grad is not None and node._backward is not None:
            _run_rule(node)


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
    """Conv of x by w; an operand passed as a plain array is a constant, so
    backward computes no gradient for it (the network's input images)."""
    need_gx, need_gw = isinstance(x, Var), isinstance(w, Var)
    x, w = as_var(x), as_var(w)
    # bias passed positionally: a tracing wrapper of conv2d may take only
    # (x, w, spec, *rest)
    val = T.conv2d(x.value, w.value, spec, None if bias is None else bias.value)
    parents = (x, w) if bias is None else (x, w, bias)

    def bwd(g):
        gx = T.conv2d_input_grad(g, w.value, spec, x.value.shape) if need_gx else None
        gw = T.conv2d_weight_grad(g, x.value, spec, w.value.shape) if need_gw else None
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


def standardize(x) -> Var:
    """Zero-mean unit-variance (eps 1e-5) per (sample, channel) over spatial dims."""
    x = as_var(x)
    mu = x.value.mean(axis=(2, 3), keepdims=True)
    var = x.value.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = (x.value - mu) * inv

    def bwd(g):
        gm = g.mean(axis=(2, 3), keepdims=True)
        gym = (g * y).mean(axis=(2, 3), keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return Var(y, (x,), bwd)


def norm_act(y, gamma, beta, residual=None) -> Var:
    """relu(standardize(y)·gamma + beta [+ residual]) as one tape node that
    keeps only the (N, C, 1, 1) mean and inverse std; backward recomputes the
    standardized value from y and the relu mask from the output.  Values and
    gradients are byte-identical to the unfused standardize/mul/add/relu chain.
    """
    y, gamma, beta = as_var(y), as_var(gamma), as_var(beta)
    mu = y.value.mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(y.value.var(axis=(2, 3), keepdims=True) + 1e-5)
    pre = (y.value - mu) * inv * gamma.value + beta.value
    parents = (y, gamma, beta)
    if residual is not None:
        residual = as_var(residual)
        pre = pre + residual.value
        parents += (residual,)
    out = pre * (pre > 0)

    def bwd(g):
        ga = g * (out > 0)
        yhat = (y.value - mu) * inv
        gs = ga * gamma.value
        gm = gs.mean(axis=(2, 3), keepdims=True)
        gym = (gs * yhat).mean(axis=(2, 3), keepdims=True)
        grads = ((gs - gm - yhat * gym) * inv, _unbroadcast(ga * yhat, gamma.value.shape),
                 _unbroadcast(ga, beta.value.shape))
        return grads if residual is None else grads + (ga,)

    return Var(out, parents, bwd)


def cross_entropy(logits, labels: np.ndarray) -> Var:
    """Mean pixel-wise cross-entropy from raw logits (N,M,H,W) and integer
    labels (N,H,W) in [0, M); any other label map is a DataError."""
    logits = as_var(logits)
    n, m, h, w = logits.value.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise DimensionError(f"labels shape {labels.shape} does not match logits {(n, h, w)}")
    check_labels(labels, m, "cross_entropy:")
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

    dtype: str
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    def passed(self, tol: float = GRADCHECK_TOL) -> bool:
        return all(np.isfinite(e) and e <= tol for e in self.errors.values())


def gradcheck(f, params: dict[str, Var], max_coords: int | None = None,
              rng: np.random.Generator | None = None) -> GradReport:
    """Compare analytic gradients of scalar f() against central differences.

    ``f`` must rebuild its graph from the current parameter values on each
    call.  Relative error uses denominator max(|analytic|, |numeric|, 1e-8);
    a parameter whose analytic gradient is not finite gets an error of inf.
    When ``max_coords`` is set, at most that many coordinates per parameter
    are probed, sampled with ``rng``, which must then be given.
    """
    if max_coords is not None and rng is None:
        raise ContractError("gradcheck with max_coords needs an rng to sample coordinates")
    out = f()
    if not np.all(np.isfinite(out.value)):
        raise NumericError(f"non-finite forward value in gradcheck of {f!r}")
    backward(out)
    analytic = {}
    for name, p in params.items():
        analytic[name] = (p.grad.copy() if p.grad is not None
                          else np.zeros_like(p.value))
    report = GradReport(dtype=str(out.value.dtype))
    for name, p in params.items():
        flat = p.value.reshape(-1)
        count = flat.size
        if max_coords is not None and count > max_coords:
            coords = rng.choice(count, size=max_coords, replace=False)
        else:
            coords = range(count)
        # set here, since max() below would drop a NaN error
        worst = 0.0 if np.isfinite(analytic[name]).all() else math.inf
        ana_flat = analytic[name].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + GRADCHECK_STEP
            fp = float(f().value)
            flat[idx] = orig - GRADCHECK_STEP
            fm = float(f().value)
            flat[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(f"non-finite perturbation value for parameter {name}")
            numeric = (fp - fm) / (2.0 * GRADCHECK_STEP)
            ana = float(ana_flat[idx])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.errors[name] = worst
    return report
