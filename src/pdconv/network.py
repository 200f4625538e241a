"""Toy two-branch encoder-decoder segmentation network and its training loop.

The RGB and depth branches share the same small backbone (a stem plus three
stages of residual blocks with stride-2 transitions, channels 16/32/64).
After each stage the RGB branch computes a composed difference-conv feature
and the depth branch a local difference-conv feature; the two are fused and
the fused map feeds the next RGB stage while the depth branch continues from
its own features.  The decoder projects the stage-1 and stage-3 fused maps,
upsamples the deep one, concatenates, classifies with a 1x1 conv, and
bilinearly upsamples to the input size.

Normalization is per-channel spatial standardization with a learned affine
(no batch statistics), which keeps tiny-batch training stable and runs
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import tensor as T
from .clk import CpdcLayer, cpdc_raw, make_cpdc_layer
from .errors import ConfigurationError, TrainingDiverged
from .fusion import EcfLayer, ecf_fuse, make_ecf_layer
from .metrics import ConfusionMatrix
from .pdc import PdcLayer, init_weights, make_pdc_layer, pdc_forward
from .pdtio import load_into, read_checkpoint, write_checkpoint
from .scenes import SegSample

VARIANTS = ("full", "vanilla-baseline", "swap", "pdc-only", "cpdc-only")

cross_entropy = ag.cross_entropy


# --- building blocks -------------------------------------------------------

@dataclass
class ConvUnit:
    """conv -> standardize -> affine -> relu.

    No conv bias: standardization would cancel it; beta provides the shift.
    """

    w: ag.Var
    gamma: ag.Var
    beta: ag.Var
    spec: T.ConvSpec

    def affine(self, x: ag.Var) -> ag.Var:
        """conv -> standardize -> affine, without the relu."""
        y = ag.conv(x, self.w, self.spec)
        return ag.add(ag.mul(ag.standardize(y), self.gamma), self.beta)

    def __call__(self, x: ag.Var) -> ag.Var:
        return ag.relu(self.affine(x))

    def parameters(self, prefix: str) -> dict[str, ag.Var]:
        return {f"{prefix}.w": self.w,
                f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


def make_conv_unit(c_in, c_out, rng, dtype, kernel=(3, 3), stride=1) -> ConvUnit:
    spec = T.ConvSpec(kernel=kernel, stride=stride)
    return ConvUnit(
        w=ag.parameter(init_weights(rng, (c_out, c_in) + kernel, dtype)),
        gamma=ag.parameter(np.ones((1, c_out, 1, 1), dtype=dtype)),
        beta=ag.parameter(np.zeros((1, c_out, 1, 1), dtype=dtype)),
        spec=spec,
    )


@dataclass
class ResBlock:
    """relu(unit2.affine(unit1(x)) + x): the second unit's relu follows the add."""

    unit1: ConvUnit
    unit2: ConvUnit

    def __call__(self, x: ag.Var) -> ag.Var:
        return ag.relu(ag.add(self.unit2.affine(self.unit1(x)), x))

    def parameters(self, prefix: str) -> dict[str, ag.Var]:
        params = self.unit1.parameters(f"{prefix}.c1")
        params.update(self.unit2.parameters(f"{prefix}.c2"))
        return params


def make_res_block(c, rng, dtype) -> ResBlock:
    return ResBlock(make_conv_unit(c, c, rng, dtype), make_conv_unit(c, c, rng, dtype))


# --- the network ------------------------------------------------------------

@dataclass
class NetConfig:
    classes: int = 5
    channels: tuple[int, ...] = (16, 32, 64)
    blocks_per_stage: int = 2
    decoder_channels: int = 32
    variant: str = "full"
    alpha_mode: str = "learnable"   # or "fixed"
    alpha_value: float = 0.5        # used when alpha_mode == "fixed"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.alpha_mode not in ("learnable", "fixed"):
            raise ConfigurationError(f"alpha_mode must be learnable or fixed, got {self.alpha_mode}")
        if not (0.0 <= self.alpha_value <= 1.0):
            raise ConfigurationError(f"alpha_value must be in [0,1], got {self.alpha_value}")
        if self.classes < 2:
            raise ConfigurationError("need at least 2 classes")
        if (not self.channels or min(self.channels) < 1 or self.blocks_per_stage < 1
                or self.decoder_channels < 1):
            raise ConfigurationError(
                "channels (non-empty), blocks_per_stage and decoder_channels must be positive")


def _branch_ops(cfg: NetConfig) -> tuple[str, str]:
    """(rgb op, depth op) per variant; 'vanilla' means blend fixed at 0."""
    if cfg.variant == "full":
        return "cpdc", "pdc"
    if cfg.variant == "vanilla-baseline":
        return "cpdc0", "pdc0"
    if cfg.variant == "swap":
        return "pdc", "cpdc"
    if cfg.variant == "pdc-only":
        return "cpdc0", "pdc"
    return "cpdc", "pdc0"  # cpdc-only


class ToyPdcNet:
    def __init__(self, cfg: NetConfig, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        self.dtype = dtype
        ch = cfg.channels
        alpha_fixed = cfg.alpha_value if cfg.alpha_mode == "fixed" else None
        rgb_op, depth_op = _branch_ops(cfg)

        # learnable blends start at 0.8 (stored ln 4): the difference term is
        # the operator's point, so it dominates from the first step and the
        # optimizer can still move away from it
        alpha_init = math.log(4.0)

        def stage_op(kind: str, channels: int):
            fixed = 0.0 if kind.endswith("0") else alpha_fixed
            if kind.startswith("cpdc"):
                return make_cpdc_layer(channels, rng=rng, dtype=dtype,
                                       alpha_init=alpha_init,
                                       alpha_fixed=fixed, with_gate=False)
            return make_pdc_layer(channels, rng=rng, dtype=dtype,
                                  alpha_init=alpha_init,
                                  alpha_fixed=fixed, with_gate=False)

        self.stem_rgb = make_conv_unit(3, ch[0], rng, dtype)
        self.stem_depth = make_conv_unit(1, ch[0], rng, dtype)
        self.trans_rgb, self.trans_depth = [], []
        self.blocks_rgb, self.blocks_depth = [], []
        self.ops_rgb, self.ops_depth, self.ecf = [], [], []
        prev = ch[0]
        for c in ch:
            self.trans_rgb.append(make_conv_unit(prev, c, rng, dtype, stride=2))
            self.trans_depth.append(make_conv_unit(prev, c, rng, dtype, stride=2))
            self.blocks_rgb.append([make_res_block(c, rng, dtype)
                                    for _ in range(cfg.blocks_per_stage)])
            self.blocks_depth.append([make_res_block(c, rng, dtype)
                                      for _ in range(cfg.blocks_per_stage)])
            self.ops_rgb.append(stage_op(rgb_op, c))
            self.ops_depth.append(stage_op(depth_op, c))
            self.ecf.append(make_ecf_layer(c, rng=rng, dtype=dtype))
            prev = c
        dc = cfg.decoder_channels
        self.proj_low_w = ag.parameter(init_weights(rng, (dc, ch[0], 1, 1), dtype))
        self.proj_low_b = ag.parameter(np.zeros(dc, dtype=dtype))
        self.proj_high_w = ag.parameter(init_weights(rng, (dc, ch[-1], 1, 1), dtype))
        self.proj_high_b = ag.parameter(np.zeros(dc, dtype=dtype))
        self.cls_w = ag.parameter(init_weights(rng, (cfg.classes, 2 * dc, 1, 1), dtype))
        self.cls_b = ag.parameter(np.zeros(cfg.classes, dtype=dtype))

    # -- parameters --------------------------------------------------------

    def parameters(self) -> dict[str, ag.Var]:
        params: dict[str, ag.Var] = {}
        params.update(self.stem_rgb.parameters("stem_rgb"))
        params.update(self.stem_depth.parameters("stem_depth"))
        for i in range(len(self.cfg.channels)):
            params.update(self.trans_rgb[i].parameters(f"s{i}.trans_rgb"))
            params.update(self.trans_depth[i].parameters(f"s{i}.trans_depth"))
            for j, blk in enumerate(self.blocks_rgb[i]):
                params.update(blk.parameters(f"s{i}.rgb_blk{j}"))
            for j, blk in enumerate(self.blocks_depth[i]):
                params.update(blk.parameters(f"s{i}.depth_blk{j}"))
            params.update(self.ops_rgb[i].parameters(f"s{i}.op_rgb"))
            params.update(self.ops_depth[i].parameters(f"s{i}.op_depth"))
            params.update(self.ecf[i].parameters(f"s{i}.ecf"))
        params.update({"dec.low_w": self.proj_low_w, "dec.low_b": self.proj_low_b,
                       "dec.high_w": self.proj_high_w, "dec.high_b": self.proj_high_b,
                       "dec.cls_w": self.cls_w, "dec.cls_b": self.cls_b})
        return params

    def decayable(self) -> set[str]:
        """Conv and gate weight names; scalars, biases, and affines are not decayed."""
        return {name for name, p in self.parameters().items()
                if p.value.ndim == 4 and name.endswith(("w", ".dw"))}

    # -- forward ------------------------------------------------------------

    def _op_raw(self, layer, x: ag.Var) -> ag.Var:
        if isinstance(layer, CpdcLayer):
            return cpdc_raw(x, layer)
        return pdc_forward(x, layer)

    def forward(self, rgb, depth) -> ag.Var:
        rgb, depth = ag.as_var(rgb), ag.as_var(depth)
        n, _, h, w = rgb.value.shape
        xr = self.stem_rgb(rgb)
        xd = self.stem_depth(depth)
        fused_maps = []
        for i in range(len(self.cfg.channels)):
            xr = self.trans_rgb[i](xr)
            xd = self.trans_depth[i](xd)
            for blk in self.blocks_rgb[i]:
                xr = blk(xr)
            for blk in self.blocks_depth[i]:
                xd = blk(xd)
            hat_r = self._op_raw(self.ops_rgb[i], xr)
            hat_d = self._op_raw(self.ops_depth[i], xd)
            fused = ecf_fuse(xr, xd, hat_r, hat_d, self.ecf[i])
            fused_maps.append(fused)
            xr = fused  # the depth branch continues un-fused
        low = ag.pointwise(fused_maps[0], self.proj_low_w, self.proj_low_b)
        high = ag.pointwise(fused_maps[-1], self.proj_high_w, self.proj_high_b)
        high = ag.upsample_bilinear(high, low.value.shape[2:])
        logits = ag.pointwise(ag.concat_channels(low, high), self.cls_w, self.cls_b)
        return ag.upsample_bilinear(logits, (h, w))

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.value for name, p in self.parameters().items()}
        state["meta.classes"] = np.asarray([self.cfg.classes], dtype=np.int32)
        state["meta.channels"] = np.asarray(self.cfg.channels, dtype=np.int32)
        state["meta.blocks_per_stage"] = np.asarray([self.cfg.blocks_per_stage], dtype=np.int32)
        state["meta.decoder_channels"] = np.asarray([self.cfg.decoder_channels], dtype=np.int32)
        state["meta.variant"] = np.asarray([VARIANTS.index(self.cfg.variant)], dtype=np.int32)
        state["meta.alpha_mode"] = np.asarray(
            [0 if self.cfg.alpha_mode == "learnable" else 1], dtype=np.int32)
        state["meta.alpha_value"] = np.asarray([self.cfg.alpha_value], dtype=np.float64)
        return state

    def save(self, path: str) -> None:
        write_checkpoint(path, self.state_dict())

    @classmethod
    def load(cls, path: str, dtype=np.float32) -> "ToyPdcNet":
        saved = read_checkpoint(path)
        meta = {k: saved.pop(k) for k in list(saved) if k.startswith("meta.")}
        cfg = NetConfig(
            classes=int(meta["meta.classes"][0]),
            channels=tuple(int(c) for c in meta["meta.channels"]),
            blocks_per_stage=int(meta["meta.blocks_per_stage"][0]),
            decoder_channels=int(meta["meta.decoder_channels"][0]),
            variant=VARIANTS[int(meta["meta.variant"][0])],
            alpha_mode="learnable" if int(meta["meta.alpha_mode"][0]) == 0 else "fixed",
            alpha_value=float(meta["meta.alpha_value"][0]),
        )
        net = cls(cfg, dtype=dtype)
        load_into({name: p.value for name, p in net.parameters().items()}, saved)
        return net


# --- batching and evaluation -------------------------------------------------

def normalize_depth(depth: np.ndarray) -> np.ndarray:
    """Min-max normalize one depth image to [0, 1]."""
    lo, hi = depth.min(), depth.max()
    if hi - lo <= 0:
        return np.zeros_like(depth)
    return (depth - lo) / (hi - lo)


def make_batch(samples: list[SegSample], dtype=np.float32):
    rgb = np.stack([s.rgb for s in samples]).astype(dtype)
    depth = np.stack([normalize_depth(s.depth) for s in samples]).astype(dtype)
    labels = np.stack([s.labels for s in samples])
    return rgb, depth, labels


def evaluate(net: ToyPdcNet, samples: list[SegSample], batch_size: int = 16,
             ) -> tuple[float, float, ConfusionMatrix]:
    m = net.cfg.classes
    cm = ConfusionMatrix(np.zeros((m, m), dtype=np.int64))
    for start in range(0, len(samples), batch_size):
        rgb, depth, labels = make_batch(samples[start : start + batch_size], net.dtype)
        logits = net.forward(rgb, depth).value
        preds = np.argmax(logits, axis=1)
        cm = cm.merge(ConfusionMatrix.from_labels(preds, labels, m))
    return cm.pixel_accuracy(), cm.mean_iou(), cm


# --- training ----------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 8e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    poly_power: float = 0.9
    epochs: int = 12
    batch_size: int = 8
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.lr > 0) or self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("lr, epochs, and batch_size must be positive")
        if not (0 <= self.momentum < 1) or not (self.weight_decay >= 0):
            raise ConfigurationError("momentum must be in [0,1), weight_decay non-negative")
        if not (0 <= self.val_fraction < 1):
            raise ConfigurationError(f"val_fraction must be in [0,1), got {self.val_fraction}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


def poly_lr(lr0: float, iteration: int, max_iterations: int, power: float = 0.9) -> float:
    return lr0 * (1.0 - iteration / max_iterations) ** power


@dataclass
class SgdState:
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: dict[str, ag.Var], decayable: set[str],
             lr: float, momentum: float, weight_decay: float) -> None:
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            if weight_decay and name in decayable:
                g = g + weight_decay * p.value
            v = self.velocity.get(name)
            v = g if v is None else momentum * v + g
            self.velocity[name] = v
            p.value = p.value - (lr * v).astype(p.value.dtype)


def train(net: ToyPdcNet, train_samples: list[SegSample],
          val_samples: list[SegSample] | None, hyper: TrainConfig,
          log_fn=None) -> list[dict]:
    """SGD with momentum, weight decay, and a poly learning-rate schedule.

    Returns one history record per epoch; raises TrainingDiverged (with the
    iteration index) if the loss goes non-finite, and ConfigurationError if
    no sample is left to train on.
    """
    rng = np.random.default_rng(hyper.seed)
    if val_samples is None:
        n_val = max(1, int(len(train_samples) * hyper.val_fraction))
        val_samples = train_samples[-n_val:]
        train_samples = train_samples[:-n_val]
    if not train_samples:
        raise ConfigurationError("the training split is empty; use more samples "
                                 "or a smaller val_fraction")
    params = net.parameters()
    decayable = net.decayable()
    opt = SgdState()
    batches_per_epoch = math.ceil(len(train_samples) / hyper.batch_size)
    max_iterations = hyper.epochs * batches_per_epoch
    history = []
    iteration = 0
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = [train_samples[i] for i in order[start : start + hyper.batch_size]]
            rgb, depth, labels = make_batch(batch, net.dtype)
            loss = cross_entropy(net.forward(rgb, depth), labels)
            loss_val = float(loss.value)
            if not np.isfinite(loss_val):
                raise TrainingDiverged(iteration)
            ag.backward(loss)
            lr = poly_lr(hyper.lr, iteration, max_iterations, hyper.poly_power)
            opt.step(params, decayable, lr, hyper.momentum, hyper.weight_decay)
            epoch_loss += loss_val * len(batch)
            iteration += 1
        pix_acc, miou, _ = evaluate(net, val_samples)
        record = {
            "epoch": epoch,
            "iter": iteration,
            "lr": poly_lr(hyper.lr, min(iteration, max_iterations - 1),
                          max_iterations, hyper.poly_power),
            "loss": epoch_loss / len(train_samples),
            "pix_acc": pix_acc,
            "miou": miou,
        }
        history.append(record)
        if log_fn is not None:
            log_fn(record)
    return history
