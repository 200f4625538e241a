"""JSON run configuration for training runs; strict about unknown keys and
value types.  Range checks live in the config dataclasses themselves."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .network import NetConfig, TrainConfig
from .scenes import SceneConfig

# NetConfig fields a run takes from the dataset manifest and --variant
_SET_PER_RUN = ("classes", "variant")


@dataclass
class RunConfig:
    seed: int = 0
    model: NetConfig = field(default_factory=NetConfig)
    generator: SceneConfig = field(default_factory=SceneConfig)
    training: TrainConfig = field(default_factory=TrainConfig)


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


def _build(cls, data, where: str, skip: tuple[str, ...] = ()):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    fields = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown key(s) {sorted(unknown)} in {where}")
    values = {name: _typed(value, fields[name], f"{where}.{name}")
              for name, value in data.items()}
    try:
        return cls(**values)
    except ConfigurationError as e:
        raise ConfigurationError(f"{where}: {e}") from None


def load_run_config(path: str) -> RunConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as e:
            raise ConfigurationError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    unknown = set(data) - {"seed", "model", "generator", "training"}
    if unknown:
        raise ConfigurationError(f"unknown top-level key(s) {sorted(unknown)} in {path}")
    return RunConfig(
        seed=_typed(data.get("seed", 0), 0, f"{path} seed"),
        model=_build(NetConfig, data.get("model", {}), f"{path} model",
                     skip=_SET_PER_RUN),
        generator=_build(SceneConfig, data.get("generator", {}), f"{path} generator"),
        training=_build(TrainConfig, data.get("training", {}), f"{path} training"),
    )
