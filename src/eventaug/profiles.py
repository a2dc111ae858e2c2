"""Dataset profiles and layered run configuration.

A profile bundles the per-dataset hyperparameters (mixing probability,
noise scales, clipping bound, frequency keep ratio and noise level) plus
the 70/10/20 split. Precedence when resolving a run: CLI flag > config
file > profile default.

The config file is INI-style text. Its sections and keys:

  [run]      profile, seed, out
  [split]    the fields of core.SplitSpec
  [implicit] the fields of perturb.PerturbationConfig
  [train]    the fields of classify.TrainConfig but seed and perturbation
  [fusion]   the fields of graph.FusionParams
  [explicit] strategies, copies, cache_dir and the fields of
             textaug.ProviderConfig
"""

from __future__ import annotations

import configparser
import json
import typing
from dataclasses import asdict, dataclass, field, fields, replace

from .classify import TrainConfig
from .core import SplitSpec
from .graph import FusionParams
from .perturb import PerturbationConfig
from .textaug import DEFAULT_STRATEGIES, ProviderConfig, check_strategies

PROFILE_NAMES = ("kawarith6", "twitter2012", "twitter2018", "custom")

_PROFILE_IMPLICIT = {
    "kawarith6": dict(alpha=0.3, sigma=0.01, clip_c=0.005,
                      keep_ratio=0.98, noise_level=0.02),
    "twitter2012": dict(alpha=0.6, sigma=0.1, clip_c=0.05,
                        keep_ratio=0.95, noise_level=0.02),
    "twitter2018": dict(alpha=0.6, sigma=0.1, clip_c=0.0006,
                        keep_ratio=0.98, noise_level=0.02),
    "custom": {},
}


def profile_perturbation(name: str) -> PerturbationConfig:
    if name not in PROFILE_NAMES:
        raise ValueError(f"unknown profile {name!r}; expected one of {PROFILE_NAMES}")
    return PerturbationConfig(**_PROFILE_IMPLICIT[name])


# INI section -> (RunConfig field, dataclass). The dataclass fields are the
# section's keys, so a field added with a default is readable from the file
# and written to the snapshot with no other edit.
_SECTIONS = {
    "split": ("split", SplitSpec),
    "implicit": ("perturbation", PerturbationConfig),
    "train": ("train", TrainConfig),
    "fusion": ("fusion", FusionParams),
    "explicit": ("provider", ProviderConfig),
}
# Set from [run] and [implicit], not from their own section.
_NOT_IN_FILE = {"train": ("seed", "perturbation")}


def config_keys() -> dict:
    """{section: {key: caster}} of every key the config file accepts."""
    keys = {"run": {"profile": str, "seed": int, "out": str}}
    for section, (_, cls) in _SECTIONS.items():
        hints = typing.get_type_hints(cls)
        keys[section] = {f.name: hints[f.name] for f in fields(cls)
                         if f.name not in _NOT_IN_FILE.get(section, ())}
    keys["explicit"].update(strategies=str, copies=int, cache_dir=str)
    return keys


def read_config_file(path) -> dict:
    """Parse the INI config into a {section: {key: typed value}} dict."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    out: dict = {}
    schema = config_keys()
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"unknown config section [{section}]")
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            caster = schema[section][key]
            try:
                out[section][key] = caster(raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
    return out


@dataclass
class RunConfig:
    """Effective parameters for one command run, after layering."""

    profile: str = "custom"
    seed: int = 0
    out_dir: str = "out"
    split: SplitSpec = field(default_factory=SplitSpec)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    fusion: FusionParams = field(default_factory=FusionParams)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    copies: int = 1
    cache_dir: str | None = None

    def snapshot_json(self, **extra) -> str:
        """The resolved-config.json text: every effective parameter, by
        config section, plus the ``extra`` top-level keys."""
        snap = {"profile": self.profile, "seed": self.seed, "out_dir": self.out_dir,
                **{section: asdict(getattr(self, attr))
                   for section, (attr, _) in _SECTIONS.items()}, **extra}
        del snap["train"]["perturbation"]  # written out as [implicit]
        snap["explicit"].update(strategies=list(self.strategies),
                                copies=self.copies, cache_dir=self.cache_dir)
        return json.dumps(snap, sort_keys=True, indent=2) + "\n"


def resolve_config(profile: str | None = None, file_values: dict | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Layer profile defaults, config file values, and CLI overrides.

    ``overrides`` mirrors the config file structure; None values are
    ignored so unset CLI flags never shadow the file.
    """
    file_values = file_values or {}
    overrides = overrides or {}

    def merged(section: str) -> dict:
        vals = dict(file_values.get(section, {}))
        for key, value in overrides.get(section, {}).items():
            if value is not None:
                vals[key] = value
        return vals

    run_vals = merged("run")
    profile = profile or run_vals.get("profile") or "custom"
    perturbation = replace(profile_perturbation(profile), **merged("implicit"))
    seed = int(run_vals.get("seed", 0))
    explicit = merged("explicit")
    strategies = explicit.pop("strategies", None)
    if isinstance(strategies, str):
        strategies = [s.strip() for s in strategies.split(",") if s.strip()]
    copies = int(explicit.pop("copies", 1))
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    cache_dir = explicit.pop("cache_dir", None)
    return RunConfig(
        profile=profile, seed=seed, out_dir=run_vals.get("out", "out"),
        split=SplitSpec(**{"seed": seed, **merged("split")}),
        perturbation=perturbation,
        train=TrainConfig(**{**merged("train"), "seed": seed,
                             "perturbation": perturbation}),
        fusion=FusionParams(**merged("fusion")),
        provider=ProviderConfig(**explicit),
        strategies=check_strategies(strategies) if strategies else DEFAULT_STRATEGIES,
        copies=copies, cache_dir=cache_dir)
