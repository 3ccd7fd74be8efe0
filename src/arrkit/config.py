"""Run configuration: a single versioned JSON file driving every pipeline stage.

Splits are half-open session-index ranges (robust against calendar gaps and unambiguous
for synthetic data). The config hash covers the canonical JSON of everything that affects
outputs, so manifests can prove two runs used identical settings.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import date
from typing import get_type_hints

from .forecasting import FAMILIES
from .market_data import (
    ONE_WEEK,
    WINDOWS,
    CoMovementSpec,
    RegimeSpec,
    SyntheticMarketConfig,
)
from .serialization import write_json

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SplitSpec:
    """Half-open session-index ranges; must be chronological and disjoint."""

    train: tuple[int, int]
    validation: tuple[int, int]
    test: tuple[int, int]

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi <= lo:
                raise ValueError(f"{name} split range [{lo}, {hi}) is empty or negative")
        if not (self.train[1] <= self.validation[0] and self.validation[1] <= self.test[0]):
            raise ValueError("splits must be chronological: train < validation < test")

    @property
    def fit_range(self) -> tuple[int, int]:
        """train+validation window (the covariance / forecast-training window)."""
        return (self.train[0], self.validation[1])

    @property
    def n_sessions_needed(self) -> int:
        return self.test[1]


@dataclass(frozen=True)
class RunConfig:
    data_source: str  # "synthetic" | "csv"
    splits: SplitSpec
    synthetic: SyntheticMarketConfig | None = None
    csv_path: str | None = None
    csv_dates: tuple[str, ...] = ()
    csv_half_days: tuple[str, ...] = ()
    models: str = "both"  # "both" | "autoencoder" | "pca"
    frequencies: tuple[int, ...] = tuple(WINDOWS)
    horizons: tuple[int, ...] | None = None  # default: the frequencies
    regression_families: tuple[str, ...] = ("ridge", "gbdt", "mlp")
    classification_families: tuple[str, ...] = ("logistic_l1", "gbdt", "mlp")
    crash_half_life: float = 10.0
    crash_threshold: float = -1.5
    ae_search_iterations: int = 20
    forecast_search_iterations: int = 200
    cv_folds: int = 3
    smooth_half_life_days: float = 1.0
    analyze_source: str | None = None  # default: autoencoder when trained, else pca
    seed: int = 0
    output_dir: str = "run"

    def __post_init__(self):
        if self.horizons is None:
            object.__setattr__(self, "horizons", self.frequencies)
        if self.data_source not in ("synthetic", "csv"):
            raise ValueError(f"unknown data source {self.data_source!r}")
        if self.data_source == "synthetic" and self.synthetic is None:
            raise ValueError("synthetic source needs a synthetic block")
        if self.data_source == "csv" and (self.csv_path is None or not self.csv_dates):
            raise ValueError("csv source needs csv_path and csv_dates")
        # a source's JSON holds its own fields only: the other's could not load back
        csv_fields = self.csv_path is not None or self.csv_dates or self.csv_half_days
        if self.data_source == "synthetic" and csv_fields:
            raise ValueError("synthetic source takes no csv_path, csv_dates or csv_half_days")
        if self.data_source == "csv" and self.synthetic is not None:
            raise ValueError("csv source takes no synthetic block")
        if self.models not in ("both", "autoencoder", "pca"):
            raise ValueError(f"unknown models selection {self.models!r}")
        for f in self.frequencies:
            if f not in WINDOWS:
                raise ValueError(f"unsupported frequency {f}")
        for h in self.horizons:
            if h not in self.frequencies:
                raise ValueError(f"horizon {h} not among configured frequencies")
        for fam in self.regression_families + self.classification_families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
        if "logistic_l1" in self.regression_families:
            raise ValueError("logistic_l1 is classification-only")
        if "ridge" in self.classification_families:
            raise ValueError("ridge is regression-only")
        if self.analyze_source not in (None, "autoencoder", "pca"):
            raise ValueError(f"unknown analyze source {self.analyze_source!r}")
        if min(self.ae_search_iterations, self.forecast_search_iterations) < 1:
            raise ValueError("search budgets must be positive")
        if self.cv_folds < 2:
            raise ValueError("need at least 2 CV folds")
        if self.synthetic is not None and self.synthetic.n_sessions < self.splits.n_sessions_needed:
            raise ValueError(
                f"splits need {self.splits.n_sessions_needed} sessions, "
                f"synthetic config generates {self.synthetic.n_sessions}"
            )
        if self.synthetic is not None:
            n_sessions = self.synthetic.n_sessions
        else:
            n_sessions = sum(d not in self.csv_half_days for d in self.csv_dates)
        if ONE_WEEK in self.frequencies and n_sessions < 5:
            raise ValueError(f"the 1-week frequency needs 5 sessions, the data has {n_sessions}")

    def resolved_analyze_source(self) -> str:
        if self.analyze_source is not None:
            return self.analyze_source
        return "autoencoder" if self.models in ("both", "autoencoder") else "pca"


# Where a field sits in the config JSON, for the fields not stored under their own name;
# a dotted path is a key of a nested object.
_PATHS = {
    "data_source": "data.source",
    "synthetic": "data.synthetic",
    "csv_path": "data.csv_path",
    "csv_dates": "data.dates",
    "csv_half_days": "data.half_days",
    "regression_families": "families.regression",
    "classification_families": "families.classification",
    "crash_half_life": "crash.half_life",
    "crash_threshold": "crash.threshold",
    "ae_search_iterations": "search.ae_iterations",
    "forecast_search_iterations": "search.forecast_iterations",
    "cv_folds": "search.cv_folds",
    "regime_schedule": "regimes",  # of SyntheticMarketConfig
}

_CASTS = {int: int, float: float, bool: bool, str: str, date: date.fromisoformat}
_type_hints = functools.cache(get_type_hints)  # field types of a dataclass, evaluated once


def _to_json(value, kind=None):
    """A config value as JSON: a dataclass becomes an object without its fields left at an
    empty default (None or ()), a regime a 4-item row, a tuple a list, a date ISO text, and
    an int held by a field of type `kind` float a float, as the parser reads it back."""
    if is_dataclass(value):
        hints = _type_hints(type(value))
        items = {
            _PATHS.get(f.name, f.name): _to_json(v, hints[f.name])
            for f in fields(value)
            if not ((v := getattr(value, f.name)) in (None, ()) and v == f.default)
        }
        return list(items.values()) if isinstance(value, RegimeSpec) else items
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if kind is float and isinstance(value, int):
        return float(value)
    return value.isoformat() if isinstance(value, date) else value


def _block(data, path: str, required, keys) -> dict:
    """The object at `path`, refused if it lacks a required key or has an unread one."""
    if not isinstance(data, dict):
        raise ValueError(f"config field {path} must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in data:
            raise ValueError(f"config missing required field: {prefix}{key}")
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown config field: {prefix}{key}")
    return data


def _cast(kind, value):
    """A JSON value as a field of type `kind`; a list always becomes a tuple."""
    if kind in _CASTS:
        return _CASTS[kind](value)
    return tuple(value) if isinstance(value, list) else value


def _read(cls, data, path: str, skip=(), required=()) -> dict:
    """The constructor arguments of dataclass `cls` held in the JSON object at `path`.

    A field sits at its `_PATHS` entry or under its own name. A field without a default,
    or named in `required`, must be present; a missing one takes its default; any key no
    field claims is refused. Fields named in `skip` are not read.
    """
    layout = {"": {}}  # object at `path` ("") or nested in it -> {key: field}
    for f in fields(cls):
        if f.name not in skip:
            head, _, key = _PATHS.get(f.name, f.name).rpartition(".")
            layout.setdefault(head, {})[key] = f
    needed = {
        head: [key for key, f in members.items() if f.default is MISSING or f.name in required]
        for head, members in layout.items()
    }
    heads = list(layout)[1:]
    top = [head for head in heads if needed[head]] + needed[""]
    objects = {"": _block(data, path, top, [*heads, *layout[""]])}
    for head in heads:
        where = f"{path}.{head}" if path else head
        objects[head] = _block(data.get(head, {}), where, needed[head], layout[head])
    hints = _type_hints(cls)
    return {
        f.name: _cast(hints[f.name], objects[head][key])
        for head, members in layout.items() for key, f in members.items() if key in objects[head]
    }


def _synthetic_from_dict(data) -> SyntheticMarketConfig:
    kwargs = _read(SyntheticMarketConfig, data, "data.synthetic")
    if any(not isinstance(r, list) or len(r) != 4 for r in data["regimes"]):
        raise ValueError("data.synthetic.regimes rows must be "
                         "[start, stop, factor_loading_scale, idiosyncratic_vol]")
    regimes = tuple(RegimeSpec(int(a), int(b), float(c), float(d)) for a, b, c, d in data["regimes"])
    kwargs["regime_schedule"] = regimes
    if "comovement" in data:
        path = "data.synthetic.comovement"
        kwargs["comovement"] = CoMovementSpec(**_read(CoMovementSpec, data["comovement"], path))
    return SyntheticMarketConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    out = {"schema_version": SCHEMA_VERSION}
    for path, value in _to_json(cfg).items():
        head, _, key = path.rpartition(".")
        (out.setdefault(head, {}) if head else out)[key] = value
    return out


def config_from_dict(data: dict) -> RunConfig:
    """Parse a config object; a malformed shape, missing field or unknown key is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    data = dict(data)
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    synthetic = isinstance(data.get("data"), dict) and data["data"].get("source") == "synthetic"
    other = "csv" if synthetic else "synthetic"  # a source's own fields are named after it
    try:
        kwargs = _read(RunConfig, data, "",
                       skip=[f.name for f in fields(RunConfig) if f.name.startswith(other)],
                       required=["synthetic"] if synthetic else [])
        kwargs["splits"] = SplitSpec(**_read(SplitSpec, kwargs["splits"], "splits"))
        if synthetic:
            kwargs["synthetic"] = _synthetic_from_dict(kwargs["synthetic"])
        return RunConfig(**kwargs)
    except TypeError as exc:  # a field of the wrong JSON type, e.g. a number for a list
        raise ValueError(f"malformed config: {exc}") from exc


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    write_json(config_to_dict(cfg), path)


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 of the canonical config JSON (excluding the output directory)."""
    payload = config_to_dict(cfg)
    payload.pop("output_dir", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def data_hash(cfg: RunConfig) -> str:
    """SHA-256 of the data block alone: the source and its settings, not the run seed."""
    canonical = json.dumps(config_to_dict(cfg)["data"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
