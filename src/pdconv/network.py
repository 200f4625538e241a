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

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import tensor as T
from .clk import CpdcLayer, cpdc_raw, make_cpdc_layer
from .errors import ConfigurationError, DimensionError, FormatError, TrainingDiverged
from .fusion import ecf_fuse, make_ecf_layer
from .metrics import ConfusionMatrix
from .pdc import init_weights, make_pdc_layer, make_pointwise, pdc_forward
from .pdtio import read_checkpoint, write_checkpoint
from .scenes import SegSample

# (rgb op, depth op) per variant, in checkpoint code order; a trailing "0"
# means the op's blend is fixed at 0, a vanilla depthwise conv
_BRANCH_OPS = {"full": ("cpdc", "pdc"), "vanilla-baseline": ("cpdc0", "pdc0"),
               "swap": ("pdc", "cpdc"), "pdc-only": ("cpdc0", "pdc"),
               "cpdc-only": ("cpdc", "pdc0")}
VARIANTS = tuple(_BRANCH_OPS)
ALPHA_MODES = ("learnable", "fixed")
# NetConfig's string fields and their values; a checkpoint stores the index
CHOICES = {"variant": VARIANTS, "alpha_mode": ALPHA_MODES}

cross_entropy = ag.cross_entropy


# --- building blocks -------------------------------------------------------

@dataclass
class ConvUnit:
    """conv -> standardize -> affine (-> + residual) -> relu.

    No conv bias: standardization would cancel it; beta provides the shift.
    Everything after the conv is one ``ag.norm_act`` node.
    """

    w: ag.Var
    gamma: ag.Var
    beta: ag.Var
    spec: T.ConvSpec

    def __call__(self, x: ag.Var, residual: ag.Var | None = None) -> ag.Var:
        return ag.norm_act(ag.conv(x, self.w, self.spec), self.gamma, self.beta, residual)

    def parameters(self, prefix: str) -> dict[str, ag.Var]:
        return {f"{prefix}.w": self.w,
                f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


def make_conv_unit(c_in, c_out, rng, dtype, stride=1) -> ConvUnit:
    spec = T.ConvSpec(kernel=(3, 3), stride=stride)
    return ConvUnit(
        w=ag.parameter(init_weights(rng, (c_out, c_in, 3, 3), dtype)),
        gamma=ag.parameter(np.ones((1, c_out, 1, 1), dtype=dtype)),
        beta=ag.parameter(np.zeros((1, c_out, 1, 1), dtype=dtype)),
        spec=spec,
    )


@dataclass
class ResBlock:
    """unit2(unit1(x), x): the second unit's relu follows the residual add."""

    unit1: ConvUnit
    unit2: ConvUnit

    def __call__(self, x: ag.Var) -> ag.Var:
        return self.unit2(self.unit1(x), x)

    def parameters(self, prefix: str) -> dict[str, ag.Var]:
        params = self.unit1.parameters(f"{prefix}.c1")
        params.update(self.unit2.parameters(f"{prefix}.c2"))
        return params


def make_res_block(c, rng, dtype) -> ResBlock:
    return ResBlock(make_conv_unit(c, c, rng, dtype), make_conv_unit(c, c, rng, dtype))


# --- config schema: how run.json and a checkpoint's meta.* become configs ----

def _typed(value, like, where: str):
    """``value`` checked against the type of the field default ``like``.

    An int may stand for a float, a bool stands for no number, and a list
    stands for a tuple: it must be non-empty and each element is checked.
    """
    if isinstance(like, tuple):
        if not isinstance(value, list) or not value:
            raise ConfigurationError(f"{where} must be a non-empty list, got {value!r}")
        return tuple(_typed(v, like[0], where) for v in value)
    want = (int, float) if isinstance(like, float) else type(like)
    if isinstance(value, bool) or not isinstance(value, want):
        raise ConfigurationError(f"{where} must be {type(like).__name__}, got {value!r}")
    return float(value) if isinstance(like, float) else value


def _build(cls, data, where: str, skip: dict[str, str] | None = None,
           required: bool = False):
    """``cls`` from section ``where``'s dict ``data``, each value checked by
    ``_typed``; a missing field keeps its default unless ``required``."""
    skip = skip or {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    for name in data:
        if name in skip:
            raise ConfigurationError(f"{where}.{name} is not set here; it comes from {skip[name]}")
    fields = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}
    for problem, names in (("unknown", set(data) - set(fields)),
                           ("missing", set(fields) - set(data) if required else ())):
        if names:
            raise ConfigurationError(f"{problem} key(s) "
                                     + ", ".join(f"{where}.{n}" for n in sorted(names)))
    values = {name: _typed(value, fields[name], f"{where}.{name}")
              for name, value in data.items()}
    try:
        return cls(**values)
    except ConfigurationError as e:
        raise ConfigurationError(f"'{where}.*' value out of range: {e}") from None


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
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigurationError(
                    f"{key} must be one of {choices}, got {getattr(self, key)!r}")
        if not (0.0 <= self.alpha_value <= 1.0):
            raise ConfigurationError(f"alpha_value must be in [0,1], got {self.alpha_value}")
        if self.classes < 2:
            raise ConfigurationError(f"classes must be at least 2, got {self.classes}")
        if not self.channels or min(self.channels) < 1:
            raise ConfigurationError(
                f"channels must be non-empty and positive, got {self.channels}")
        for key in ("blocks_per_stage", "decoder_channels"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be positive, got {getattr(self, key)}")


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
        for name, ok, want in (
                ("lr", 0 < self.lr < math.inf, "positive and finite"),
                ("momentum", 0 <= self.momentum < 1, "in [0,1)"),
                ("weight_decay", 0 <= self.weight_decay < math.inf, "non-negative and finite"),
                ("poly_power", 0 <= self.poly_power < math.inf, "non-negative and finite"),
                ("epochs", self.epochs >= 1, "positive"),
                ("batch_size", self.batch_size >= 1, "positive"),
                ("val_fraction", 0 <= self.val_fraction < 1, "in [0,1)"),
                ("seed", self.seed >= 0, "non-negative")):
            if not ok:
                raise ConfigurationError(f"{name} must be {want}, got {getattr(self, name)}")


@dataclass
class RunConfig:
    seed: int = 0
    model: NetConfig = field(default_factory=NetConfig)
    training: TrainConfig = field(default_factory=TrainConfig)


# run.json fields a run sets elsewhere, each with where it comes from
_MODEL_SET_PER_RUN = {"classes": "the dataset manifest", "variant": "--variant"}
_TRAINING_SET_PER_RUN = {"seed": "the top-level 'seed' (or --seed)"}


def load_run_config(path: str) -> RunConfig:
    """A run.json file; strict about unknown keys and value types, by the
    rules a checkpoint's NetConfig is read with."""
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as e:
            raise ConfigurationError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    unknown = set(data) - {"seed", "model", "training"}
    if unknown:
        raise ConfigurationError(f"unknown top-level key(s) {sorted(unknown)} in {path}")
    try:
        run = RunConfig(
            seed=_typed(data.get("seed", 0), 0, "seed"),
            model=_build(NetConfig, data.get("model", {}), "model", skip=_MODEL_SET_PER_RUN),
            training=_build(TrainConfig, data.get("training", {}), "training",
                            skip=_TRAINING_SET_PER_RUN),
        )
        if "alpha_value" in data.get("model", {}) and run.model.alpha_mode == "learnable":
            raise ConfigurationError("model.alpha_value has no effect while model.alpha_mode "
                                     "is 'learnable'; set alpha_mode 'fixed' or drop alpha_value")
        return run
    except ConfigurationError as e:
        raise ConfigurationError(f"config {path}: {e}") from None


# --- the network ------------------------------------------------------------

class ToyPdcNet:
    def __init__(self, cfg: NetConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        ch = cfg.channels
        alpha_fixed = cfg.alpha_value if cfg.alpha_mode == "fixed" else None

        # learnable blends start at 0.8 (stored ln 4): the difference term is
        # the operator's point, so it dominates from the first step and the
        # optimizer can still move away from it
        alpha_init = math.log(4.0)

        def stage_op(kind: str, channels: int):
            make = make_cpdc_layer if kind.startswith("cpdc") else make_pdc_layer
            return make(channels, rng=rng, dtype=dtype, alpha_init=alpha_init,
                        alpha_fixed=0.0 if kind.endswith("0") else alpha_fixed,
                        with_gate=False)

        # named as built: names run in the order of the draws and of the checkpoint
        self._params: dict[str, ag.Var] = {}

        def named(prefix: str, layer):
            self._params.update(layer.parameters(prefix))
            return layer

        self.stem_rgb = named("stem_rgb", make_conv_unit(3, ch[0], rng, dtype))
        self.stem_depth = named("stem_depth", make_conv_unit(1, ch[0], rng, dtype))
        # one tuple per stage, in build order: the rgb and depth stride-2
        # units, their residual blocks, their difference ops, the ECF layer
        self.stages = []
        prev = ch[0]
        for i, c in enumerate(ch):
            trans = [named(f"s{i}.trans_{side}", make_conv_unit(prev, c, rng, dtype, stride=2))
                     for side in ("rgb", "depth")]
            blocks = [[named(f"s{i}.{side}_blk{j}", make_res_block(c, rng, dtype))
                       for j in range(cfg.blocks_per_stage)] for side in ("rgb", "depth")]
            ops = [named(f"s{i}.op_{side}", stage_op(kind, c))
                   for side, kind in zip(("rgb", "depth"), _BRANCH_OPS[cfg.variant])]
            ecf = named(f"s{i}.ecf", make_ecf_layer(c, rng=rng, dtype=dtype))
            self.stages.append((*trans, *blocks, *ops, ecf))
            prev = c
        dc = cfg.decoder_channels
        self.dec_low = named("dec.low", make_pointwise(ch[0], dc, rng, dtype))
        self.dec_high = named("dec.high", make_pointwise(ch[-1], dc, rng, dtype))
        self.dec_cls = named("dec.cls", make_pointwise(2 * dc, cfg.classes, rng, dtype))

    # -- parameters --------------------------------------------------------

    def parameters(self) -> dict[str, ag.Var]:
        return dict(self._params)

    def decayable(self) -> set[str]:
        """Conv and gate weight names; scalars, biases, and affines are not decayed."""
        return {name for name, p in self.parameters().items()
                if p.value.ndim == 4 and name.endswith("w")}

    # -- forward ------------------------------------------------------------

    def _op_raw(self, layer, x: ag.Var) -> ag.Var:
        if isinstance(layer, CpdcLayer):
            return cpdc_raw(x, layer)
        return pdc_forward(x, layer)

    @ag.small_ufunc_buffer
    def forward(self, rgb, depth) -> ag.Var:
        # plain image arrays reach the stem convs as constants: no input gradient
        n, _, h, w = rgb.shape
        xr, xd = self.stem_rgb(rgb), self.stem_depth(depth)
        fused_maps = []
        for trans_r, trans_d, blocks_r, blocks_d, op_r, op_d, ecf in self.stages:
            xr, xd = trans_r(xr), trans_d(xd)
            for blk in blocks_r:
                xr = blk(xr)
            for blk in blocks_d:
                xd = blk(xd)
            xr = ecf_fuse(xr, xd, self._op_raw(op_r, xr), self._op_raw(op_d, xd), ecf)
            fused_maps.append(xr)  # the depth branch continues un-fused
        low = self.dec_low(fused_maps[0])
        high = ag.upsample_bilinear(self.dec_high(fused_maps[-1]), low.value.shape[2:])
        logits = self.dec_cls(ag.concat_channels(low, high))
        return ag.upsample_bilinear(logits, (h, w))

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters, then one i32 or f64 ``meta.<field>`` per NetConfig field."""
        state = {name: p.value for name, p in self.parameters().items()}
        for f in dataclasses.fields(NetConfig):
            value = getattr(self.cfg, f.name)
            code = CHOICES[f.name].index(value) if f.name in CHOICES else value
            dtype = np.float64 if isinstance(f.default, float) else np.int32
            state[f"meta.{f.name}"] = np.asarray(code, dtype=dtype).reshape(-1)
        return state

    def save(self, path: str) -> None:
        write_checkpoint(path, self.state_dict())

    @classmethod
    def load(cls, path: str) -> "ToyPdcNet":
        """Read a checkpoint: meta.* by _build's rules with every field required, then
        each parameter by name, shape and finiteness in its dtype; refusals name the file."""
        saved = read_checkpoint(path)
        defaults = {f.name: f.default for f in dataclasses.fields(NetConfig)}
        values = {}
        try:
            for key in [k for k in saved if k.startswith("meta.")]:
                name, value = key[len("meta."):], saved.pop(key).reshape(-1).tolist()
                if len(value) == 1 and not isinstance(defaults.get(name), tuple):
                    value = value[0]  # else _typed refuses the list
                choices = CHOICES.get(name)
                if choices and (type(value) is not int or not 0 <= value < len(choices)):
                    raise ConfigurationError(
                        f"{key} is {value}, not a code in 0..{len(choices) - 1}")
                values[name] = choices[value] if choices else value
            cfg = _build(NetConfig, values, "meta", required=True)
        except ConfigurationError as e:
            raise FormatError(f"checkpoint {path}: {e}") from None

        # every size is the first axis of a tensor the file holds; checked
        # before the build, which allocates whatever sizes it is given
        sizes = [(f"channels[{i}]", f"s{i}.trans_rgb.w", c) for i, c in enumerate(cfg.channels)]
        sizes += [("blocks_per_stage", f"s0.rgb_blk{cfg.blocks_per_stage - 1}.c1.w",
                   cfg.channels[0]),
                  ("decoder_channels", "dec.low_w", cfg.decoder_channels),
                  ("classes", "dec.cls_w", cfg.classes)]
        for name, key, size in sizes:
            if key not in saved or saved[key].shape[:1] != (size,):
                raise FormatError(f"checkpoint {path}: meta.{name} needs a tensor {key!r} "
                                  f"of first axis {size}, and the file holds no such tensor")
        net = cls(cfg, np.random.default_rng(0))  # every drawn value is overwritten below
        params = net.parameters()
        for name in saved:
            if name not in params:
                raise FormatError(f"checkpoint {path}: unknown tensor {name!r}")
        for name, p in params.items():
            src = saved.get(name)
            if src is None:
                raise FormatError(f"checkpoint {path}: missing tensor {name!r}")
            if src.shape != p.value.shape:
                raise DimensionError(f"checkpoint {path}: tensor {name!r} has shape "
                                     f"{src.shape}, expected {p.value.shape}")
            with np.errstate(over="ignore"):  # an overflow is reported just below
                value = src.astype(p.value.dtype)
            if not np.isfinite(value).all():
                raise FormatError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
            p.value[...] = value
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


EVAL_BATCH = 16


def evaluate(net: ToyPdcNet, samples: list[SegSample]) -> tuple[float, float, ConfusionMatrix]:
    if not samples:
        raise ConfigurationError("nothing to evaluate: the dataset holds no samples")
    m = net.cfg.classes
    cm = ConfusionMatrix(np.zeros((m, m), dtype=np.int64))
    for start in range(0, len(samples), EVAL_BATCH):
        rgb, depth, labels = make_batch(samples[start : start + EVAL_BATCH], net.dtype)
        logits = net.forward(rgb, depth).value
        preds = np.argmax(logits, axis=1)
        cm = cm.merge(ConfusionMatrix.from_labels(preds, labels, m))
    return cm.pixel_accuracy(), cm.mean_iou(), cm


# --- training ----------------------------------------------------------------

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


def train(net: ToyPdcNet, samples: list[SegSample], hyper: TrainConfig,
          log_fn=None) -> list[dict]:
    """SGD with momentum, weight decay, and a poly learning-rate schedule.

    The last max(1, int(len(samples) * val_fraction)) samples are held out
    and evaluated after each epoch.  Returns one history record per epoch;
    raises TrainingDiverged (with the iteration index) if the loss goes
    non-finite, and ConfigurationError if no sample is left to train on.
    """
    rng = np.random.default_rng(hyper.seed)
    n_val = max(1, int(len(samples) * hyper.val_fraction))
    train_samples, val_samples = samples[:-n_val], samples[-n_val:]
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
