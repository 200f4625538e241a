"""JSON run configuration for training runs; strict about unknown keys and
value types, by the same rules a checkpoint's NetConfig is read with."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .network import NetConfig, TrainConfig, _build, _typed

# Fields a run sets elsewhere, each with where it comes from
_MODEL_SET_PER_RUN = {"classes": "the dataset manifest", "variant": "--variant"}
_TRAINING_SET_PER_RUN = {"seed": "the top-level 'seed' (or --seed)"}


@dataclass
class RunConfig:
    seed: int = 0
    model: NetConfig = field(default_factory=NetConfig)
    training: TrainConfig = field(default_factory=TrainConfig)


def load_run_config(path: str) -> RunConfig:
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
        return RunConfig(
            seed=_typed(data.get("seed", 0), 0, "seed"),
            model=_build(NetConfig, data.get("model", {}), "model", skip=_MODEL_SET_PER_RUN),
            training=_build(TrainConfig, data.get("training", {}), "training",
                            skip=_TRAINING_SET_PER_RUN),
        )
    except ConfigurationError as e:
        raise ConfigurationError(f"config {path}: {e}") from None
