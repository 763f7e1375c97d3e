"""Experiment configuration: YAML loading, defaults, validation and the
canonical hash embedded in every output artifact."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import yaml

from .dataset import (
    MultiLabelDataset,
    ToyConfig,
    filter_labels,
    generate_toy,
    scale_min_max,
)
from .arff_io import load_mulan
from .linear import TrainConfig
from .oversample import OversampleConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSource:
    name: str
    toy: ToyConfig | None = None
    arff_path: str | None = None
    xml_path: str | None = None

    def load(self) -> MultiLabelDataset:
        """The dataset, generated or read."""
        if self.toy is not None:
            return generate_toy(self.toy)
        return load_mulan(self.arff_path, self.xml_path)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    datasets: tuple[DatasetSource, ...]
    methods: tuple[str, ...]
    oversample: OversampleConfig
    train: TrainConfig
    cv_reps: int
    cv_folds: int
    filter_enabled: bool
    max_ir: float
    min_pos: int
    scale: str  # none | minmax
    raw: dict = field(compare=False, default_factory=dict)

    def config_hash(self) -> str:
        # the output directory has no effect on results, so it is excluded
        # from the canonical hash
        hashed = {k: v for k, v in self.raw.items() if k != "out"}
        return hashlib.sha256(
            json.dumps(hashed, sort_keys=True).encode()
        ).hexdigest()[:16]

    def prepare(self, ds: MultiLabelDataset) -> MultiLabelDataset:
        """Apply the configured scaling and label filtering."""
        if self.scale == "minmax":
            ds = scale_min_max(ds)
        if self.filter_enabled:
            ds, _ = filter_labels(ds, self.max_ir, self.min_pos)
        return ds


# Every accepted key, by section; any other key is rejected at load time.
TOP_KEYS = (
    "seed", "out", "datasets", "methods", "scale", "oversample", "train", "cv",
    "filter",
)
DATASET_KEYS = ("name", "toy", "mulan")
TOY_KEYS = ("points_per_blob", "blob_centers", "blob_spreads", "minority_rules", "seed")
MULAN_KEYS = ("arff", "xml")
OVERSAMPLE_KEYS = tuple(f.name for f in fields(OversampleConfig))
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
CV_KEYS = ("reps", "folds")
FILTER_KEYS = ("enabled", "max_ir", "min_pos")


def _section(value, allowed: tuple[str, ...], where: str) -> dict:
    """value as a mapping holding only the allowed keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in value:
        if key not in allowed:
            raise ConfigError(
                f"{where}: unknown key {key!r} (accepted: {', '.join(allowed)})"
            )
    return value


def _is_int(value) -> bool:
    """A YAML integer: not a float, bool or string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A YAML integer or float: not a bool or string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(section: dict, key: str, default: int, where: str) -> int:
    """section[key], or default, as a YAML integer: a float, bool or string
    is rejected, not truncated or parsed, and so is a negative seed."""
    value = section.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    if key == "seed" and value < 0:
        raise ConfigError(f"{where}: seed must be >= 0, got {value}")
    return value


def _float(section: dict, key: str, default: float, where: str) -> float:
    """section[key], or default, as a YAML number; a bool or string is
    rejected."""
    value = section.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def _from_fields(cls, section: dict, seed: int, where: str):
    """cls from a config section. A missing field takes cls's default, or
    for a seed the top-level seed; a given value must be of its type."""
    args = {}
    for f in fields(cls):
        default = seed if f.name == "seed" else f.default
        if isinstance(default, str):
            args[f.name] = str(section.get(f.name, default))
        elif isinstance(default, int):
            args[f.name] = _int(section, f.name, default, where)
        else:
            args[f.name] = _float(section, f.name, default, where)
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(f"invalid {where} config: {exc}") from None


def _list_of(value, ok) -> bool:
    """value is a YAML list whose every item passes ok."""
    return isinstance(value, list) and all(ok(v) for v in value)


def _is_rule(value) -> bool:
    """A mapping from blob index (a YAML integer) to fraction (a number)."""
    return isinstance(value, dict) and all(
        _is_int(b) and _is_number(f) for b, f in value.items()
    )


# Each required toy key, the test its value must pass and what that test
# asks for: counts and rule keys are YAML integers, centres, spreads and
# fractions YAML numbers, so a bool or string is rejected, not truncated
# or parsed.
TOY_VALUES = (
    ("points_per_blob", lambda v: _list_of(v, _is_int), "a list of integers"),
    ("blob_centers", lambda v: _list_of(v, lambda c: _list_of(c, _is_number)),
     "a list of lists of numbers"),
    ("blob_spreads", lambda v: _list_of(v, _is_number), "a list of numbers"),
    ("minority_rules", lambda v: _list_of(v, _is_rule),
     "a list of mappings from blob index (an integer) to fraction (a number)"),
)


def _toy_from_dict(d: dict, default_seed: int, where: str) -> ToyConfig:
    seed = _int(d, "seed", default_seed, where)
    for key, ok, wanted in TOY_VALUES:
        if key not in d:
            raise ConfigError(f"{where}: missing key {key!r}")
        if not ok(d[key]):
            raise ConfigError(f"{where}: {key} must be {wanted}, got {d[key]!r}")
    try:
        return ToyConfig(
            points_per_blob=tuple(d["points_per_blob"]),
            blob_centers=tuple(tuple(c) for c in d["blob_centers"]),
            blob_spreads=tuple(d["blob_spreads"]),
            minority_rules=tuple(d["minority_rules"]),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_file(path, what: str, missing: str) -> None:
    """Reject a path that does not name a regular file: open() would take
    a number for a file descriptor, and cannot read a directory."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{what} must be a path string, got {path!r}")
    if not os.path.exists(path):
        raise ConfigError(f"{missing}: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} {path} is not a regular file")


def load_config(
    path: str,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    """Read a YAML experiment config, applying CLI overrides before the
    canonical hash is computed."""
    _check_file(path, "config file", "config file not found")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ConfigError(
                f"config file {path} is not UTF-8 text: byte 0x{bad:02x} ({exc.reason})"
            ) from None
    _section(data, TOP_KEYS, "config")
    if seed_override is not None:
        data["seed"] = int(seed_override)
    if out_override is not None:
        data["out"] = out_override
    seed = _int(data, "seed", 0, "config")
    out_dir = data.get("out", "results")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config: out must be a non-empty string, got {out_dir!r}")
    # every command makes out_dir, which fails if it, or the nearest of its
    # ancestors that exists (a dangling link counts), is not a directory
    existing = os.path.abspath(out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out {out_dir!r}: {existing} is not a directory")

    raw_datasets = data.get("datasets")
    if not raw_datasets:
        raise ConfigError("config names no datasets")
    if not isinstance(raw_datasets, list):
        raise ConfigError(f"config: datasets must be a list, got {raw_datasets!r}")
    sources = []
    for i, entry in enumerate(raw_datasets):
        _section(entry, DATASET_KEYS, f"dataset entry {i}")
        name = entry.get("name", f"dataset_{i}")
        if not isinstance(name, str):
            raise ConfigError(
                f"dataset entry {i}: name must be a non-empty string, got {name!r}"
            )
        # a name becomes part of file names, and toy-gen's ARFF @relation line
        if name in ("", ".", "..") or any(c in name for c in "/\0\r\n" + os.sep):
            raise ConfigError(
                f"dataset entry {i}: name {name!r} is not a plain file name"
            )
        where = f"dataset {name!r}"
        if "toy" in entry:
            toy = _section(entry["toy"], TOY_KEYS, f"{where} toy")
            toy_cfg = _toy_from_dict(toy, seed + i, f"{where} toy")
            sources.append(DatasetSource(name, toy=toy_cfg))
        elif "mulan" in entry:
            mulan = _section(entry["mulan"], MULAN_KEYS, f"{where} mulan")
            arff = mulan.get("arff")
            xml = mulan.get("xml")
            if not arff or not xml:
                raise ConfigError(f"{where}: mulan needs arff and xml paths")
            for key in MULAN_KEYS:
                _check_file(mulan[key], f"{where}: mulan {key}", f"{where}: path not found")
            sources.append(DatasetSource(name, arff_path=arff, xml_path=xml))
        else:
            raise ConfigError(f"{where} needs a 'toy' or 'mulan' entry")
    if len({s.name for s in sources}) != len(sources):
        raise ConfigError("duplicate dataset names")

    raw_methods = data.get("methods", ["none", "smote", "uclso"])
    if not isinstance(raw_methods, list):
        raise ConfigError(f"config: methods must be a list, got {raw_methods!r}")
    methods = tuple(raw_methods)
    for i, m in enumerate(methods):
        if m not in ("none", "smote", "uclso"):
            raise ConfigError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"config: duplicate method {m!r}")
    if not methods:
        raise ConfigError("config names no methods")

    os_raw = _section(data.get("oversample", {}), OVERSAMPLE_KEYS, "oversample")
    oversample = _from_fields(OversampleConfig, os_raw, seed, "oversample")
    tr = _section(data.get("train", {}), TRAIN_KEYS, "train")
    train = _from_fields(TrainConfig, tr, seed, "train")

    cv = _section(data.get("cv", {}), CV_KEYS, "cv")
    filt = _section(data.get("filter", {}), FILTER_KEYS, "filter")
    cv_reps = _int(cv, "reps", 10, "cv")
    cv_folds = _int(cv, "folds", 2, "cv")
    max_ir = _float(filt, "max_ir", 50.0, "filter")
    min_pos = _int(filt, "min_pos", 20, "filter")
    if cv_reps < 1 or cv_folds < 2:
        raise ConfigError(f"cv needs reps >= 1, folds >= 2; got {cv_reps}, {cv_folds}")
    # an imbalance ratio is at least 1 and labels with ir >= max_ir are
    # dropped, so max_ir <= 1 would drop every label
    if not max_ir > 1:
        raise ConfigError(f"filter: max_ir must be > 1, got {max_ir}")
    if min_pos < 0:
        raise ConfigError(f"filter: min_pos must be >= 0, got {min_pos}")
    filter_enabled = filt.get("enabled", False)
    if not isinstance(filter_enabled, bool):
        raise ConfigError(f"filter.enabled must be a boolean, got {filter_enabled!r}")
    scale = str(data.get("scale", "none"))
    if scale not in ("none", "minmax"):
        raise ConfigError(f"unknown scale mode {scale!r}")
    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        datasets=tuple(sources),
        methods=methods,
        oversample=oversample,
        train=train,
        cv_reps=cv_reps,
        cv_folds=cv_folds,
        filter_enabled=filter_enabled,
        max_ir=max_ir,
        min_pos=min_pos,
        scale=scale,
        raw=data,
    )
