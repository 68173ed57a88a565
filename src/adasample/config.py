"""Run configuration: a flat key=value file with dotted namespaces.

Example::

    seed = 7
    data.num_classes = 200
    train.epochs = 12
    sampler.lambda = 10

Lines starting with '#' (or anything after an inline '#') are comments.
Unknown keys and a key given twice are rejected. All randomness flows
from the single ``seed`` through named substreams (data, train, eval), so
any sub-seed can also be pinned explicitly via ``data.seed``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DatasetSpec
from .metricspace import MetricKind
from .miner import NegMode
from .sampler import SamplerConfig
from .tensornet import Activation
from .trainer import TrainConfig

_SUBSTREAMS = {"data": 0, "train": 1, "eval": 2}


def substream_seed(seed: int, name: str) -> int:
    """Deterministic integer seed for a named substream of the run seed."""
    code = _SUBSTREAMS[name]
    return int(np.random.SeedSequence([seed, code]).generate_state(1)[0])


@dataclass(frozen=True)
class EvalOptions:
    num_pairs: int = 5000
    num_queries: int = 200
    holdout_fraction: float = 0.25
    probe_classes: int = 32

    def validate(self) -> None:
        if self.num_pairs < 1:
            raise ValueError("eval.num_pairs must be >= 1")
        if self.num_queries < 1:
            raise ValueError("eval.num_queries must be >= 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("eval.holdout_fraction must be in (0, 1)")
        if self.probe_classes < 2:
            raise ValueError("eval.probe_classes must be >= 2")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalOptions = field(default_factory=EvalOptions)
    expand_to_k: int = 0            # generate_positives target; 0 disables
    rotation_range: float = 30.0    # degrees, for generated positives

    def validate(self) -> None:
        self.dataset.validate()
        self.train.validate()
        self.eval.validate()
        if self.expand_to_k and self.expand_to_k < self.dataset.patches_per_class:
            raise ValueError("data.expand_to_k must be 0 or >= "
                             "data.patches_per_class")
        if not np.isfinite(self.rotation_range):
            raise ValueError(f"data.rotation_range must be finite, "
                             f"got {self.rotation_range}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _parse_lambda(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "cap"):
        return float("inf")
    return float(text)


def _enum_parser(kind: type[enum.Enum], what: str):
    """Parser of a value of ``kind``, case-insensitive; an unknown name
    raises a ValueError that calls it a ``what``."""
    def parse(name: str):
        try:
            return kind(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown {what} {name!r}; expected one of "
                             f"{[m.value for m in kind]}") from None
    return parse


# key -> (section, field name, parser)
_KEYMAP = {
    "seed": ("root", "seed", int),
    "data.num_classes": ("data", "num_classes", int),
    "data.patches_per_class": ("data", "patches_per_class", int),
    "data.patch_size": ("data", "patch_size", int),
    "data.texture_octaves": ("data", "texture_octaves", int),
    "data.warp_magnitude": ("data", "warp_magnitude", float),
    "data.noise_sigma": ("data", "noise_sigma", float),
    "data.brightness_jitter": ("data", "brightness_jitter", float),
    "data.outlier_fraction": ("data", "outlier_fraction", float),
    "data.seed": ("data", "seed", int),
    "data.expand_to_k": ("root", "expand_to_k", int),
    "data.rotation_range": ("root", "rotation_range", float),
    "train.batch_size": ("train", "batch_size", int),
    "train.margin": ("train", "margin", float),
    "train.metric": ("train", "metric",
                     _enum_parser(MetricKind, "metric kind")),
    "train.lr": ("train", "lr", float),
    "train.momentum": ("train", "momentum", float),
    "train.weight_decay": ("train", "weight_decay", float),
    "train.epochs": ("train", "epochs", int),
    "train.lr_drop_epochs": ("train", "lr_drop_epochs", _parse_int_list),
    "train.pairs_per_epoch": ("train", "pairs_per_epoch", int),
    "train.neg_mode": ("train", "neg_mode",
                       _enum_parser(NegMode, "neg_mode")),
    "train.hidden_dims": ("train", "hidden_dims", _parse_int_list),
    "train.descriptor_dim": ("train", "descriptor_dim", int),
    "train.activation": ("train", "activation",
                         _enum_parser(Activation, "activation")),
    "sampler.lambda": ("sampler", "lambda_", _parse_lambda),
    "sampler.ema_decay": ("sampler", "ema_decay", float),
    "sampler.exponent_cap": ("sampler", "exponent_cap", float),
    "sampler.loss_floor": ("sampler", "loss_floor", float),
    "eval.num_pairs": ("eval", "num_pairs", int),
    "eval.num_queries": ("eval", "num_queries", int),
    "eval.holdout_fraction": ("eval", "holdout_fraction", float),
    "eval.probe_classes": ("eval", "probe_classes", int),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the key=value document into per-section field dicts."""
    sections: dict[str, dict] = {"root": {}, "data": {}, "train": {},
                                 "sampler": {}, "eval": {}}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected KEY = VALUE, "
                             f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYMAP:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"{source}:{lineno}: key {key!r} repeats line "
                             f"{first_line[key]}")
        first_line[key] = lineno
        section, fname, parser = _KEYMAP[key]
        try:
            sections[section][fname] = parser(value)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad value for "
                             f"{key!r}: {exc}") from None
    return sections


def load_run_config(path, seed_override: int | None = None,
                    lambda_override: float | None = None) -> RunConfig:
    """Read, override, derive substream seeds, assemble, and validate."""
    text = Path(path).read_text()
    sections = parse_config_text(text, source=str(path))
    if seed_override is not None:
        sections["root"]["seed"] = seed_override
    if lambda_override is not None:
        sections["sampler"]["lambda_"] = lambda_override
    return assemble_run_config(sections)


def assemble_run_config(sections: dict) -> RunConfig:
    root = sections.get("root", {})
    seed = int(root.get("seed", 0))
    data_fields = dict(sections.get("data", {}))
    # checked before a substream seed is derived from them
    for key, value in (("seed", seed),
                       ("data.seed", data_fields.get("seed", 0))):
        if value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
    data_fields.setdefault("seed", substream_seed(seed, "data"))
    sampler_cfg = SamplerConfig(**sections.get("sampler", {}))
    train_fields = dict(sections.get("train", {}))
    train_fields["sampler"] = sampler_cfg
    train_fields.setdefault("seed", substream_seed(seed, "train"))
    config = RunConfig(
        seed=seed,
        dataset=DatasetSpec(**data_fields),
        train=TrainConfig(**train_fields),
        eval=EvalOptions(**sections.get("eval", {})),
        expand_to_k=int(root.get("expand_to_k", 0)),
        rotation_range=float(root.get("rotation_range", 30.0)),
    )
    config.validate()
    return config

