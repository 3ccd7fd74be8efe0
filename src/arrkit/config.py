"""Run configuration: a single versioned JSON file driving every pipeline stage.

Splits are half-open session-index ranges (robust against calendar gaps and unambiguous
for synthetic data). The config hash covers the canonical JSON of everything that affects
outputs, so manifests can prove two runs used identical settings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from datetime import date

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

DEFAULT_FREQUENCIES = tuple(WINDOWS)
DEFAULT_REGRESSION_FAMILIES = ("ridge", "gbdt", "mlp")
DEFAULT_CLASSIFICATION_FAMILIES = ("logistic_l1", "gbdt", "mlp")


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
    frequencies: tuple[int, ...] = DEFAULT_FREQUENCIES
    horizons: tuple[int, ...] = DEFAULT_FREQUENCIES
    regression_families: tuple[str, ...] = DEFAULT_REGRESSION_FAMILIES
    classification_families: tuple[str, ...] = DEFAULT_CLASSIFICATION_FAMILIES
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
        if self.data_source not in ("synthetic", "csv"):
            raise ValueError(f"unknown data source {self.data_source!r}")
        if self.data_source == "synthetic" and self.synthetic is None:
            raise ValueError("synthetic source needs a synthetic block")
        if self.data_source == "csv" and (self.csv_path is None or not self.csv_dates):
            raise ValueError("csv source needs csv_path and csv_dates")
        if self.models not in ("both", "autoencoder", "pca"):
            raise ValueError(f"unknown models selection {self.models!r}")
        for f in self.frequencies:
            if f not in DEFAULT_FREQUENCIES:
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


def _synthetic_to_dict(cfg: SyntheticMarketConfig) -> dict:
    out = {
        "n_assets": cfg.n_assets,
        "n_sessions": cfg.n_sessions,
        "n_factors": cfg.n_factors,
        "nonlinearity": cfg.nonlinearity,
        "base_vol": cfg.base_vol,
        "intraday_amplitude": cfg.intraday_amplitude,
        "start_date": cfg.start_date.isoformat(),
        "market_composite": cfg.market_composite,
        "seed": cfg.seed,
        "regimes": [
            [r.start, r.stop, r.factor_loading_scale, r.idiosyncratic_vol]
            for r in cfg.regime_schedule
        ],
    }
    if cfg.comovement is not None:
        c = cfg.comovement
        out["comovement"] = {
            "window_seconds": c.window_seconds,
            "half_life_windows": c.half_life_windows,
            "mean_share": c.mean_share,
            "share_innovation": c.share_innovation,
            "vol_feedback": c.vol_feedback,
        }
    return out


def _block(data, path: str, required: tuple = (), optional: tuple = ()) -> dict:
    """The object at `path`, refused if it lacks a required key or has an unread one."""
    if not isinstance(data, dict):
        raise ValueError(f"config field {path} must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in data:
            raise ValueError(f"config missing required field: {prefix}{key}")
    for key in data:
        if key not in required + optional:
            raise ValueError(f"unknown config field: {prefix}{key}")
    return data


def _synthetic_from_dict(data: dict) -> SyntheticMarketConfig:
    data = _block(data, "data.synthetic", ("n_assets", "n_sessions", "n_factors", "regimes"), (
        "nonlinearity", "seed", "base_vol", "intraday_amplitude", "start_date",
        "market_composite", "comovement",
    ))
    comovement = None
    if "comovement" in data:
        keys = tuple(f.name for f in fields(CoMovementSpec))
        comovement = CoMovementSpec(**_block(data["comovement"], "data.synthetic.comovement", (), keys))
    if any(not isinstance(r, list) or len(r) != 4 for r in data["regimes"]):
        raise ValueError("data.synthetic.regimes rows must be "
                         "[start, stop, factor_loading_scale, idiosyncratic_vol]")
    regimes = tuple(RegimeSpec(int(a), int(b), float(c), float(d)) for a, b, c, d in data["regimes"])
    return SyntheticMarketConfig(
        n_assets=int(data["n_assets"]),
        n_sessions=int(data["n_sessions"]),
        n_factors=int(data["n_factors"]),
        regime_schedule=regimes,
        nonlinearity=float(data.get("nonlinearity", 0.0)),
        seed=int(data.get("seed", 0)),
        base_vol=float(data.get("base_vol", 1e-4)),
        intraday_amplitude=float(data.get("intraday_amplitude", 0.0)),
        start_date=date.fromisoformat(data.get("start_date", "2012-01-02")),
        market_composite=bool(data.get("market_composite", False)),
        comovement=comovement,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "data": {"source": cfg.data_source},
        "splits": {
            "train": list(cfg.splits.train),
            "validation": list(cfg.splits.validation),
            "test": list(cfg.splits.test),
        },
        "models": cfg.models,
        "frequencies": list(cfg.frequencies),
        "horizons": list(cfg.horizons),
        "families": {
            "regression": list(cfg.regression_families),
            "classification": list(cfg.classification_families),
        },
        "crash": {"half_life": cfg.crash_half_life, "threshold": cfg.crash_threshold},
        "search": {
            "ae_iterations": cfg.ae_search_iterations,
            "forecast_iterations": cfg.forecast_search_iterations,
            "cv_folds": cfg.cv_folds,
        },
        "smooth_half_life_days": cfg.smooth_half_life_days,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }
    if cfg.analyze_source is not None:
        out["analyze_source"] = cfg.analyze_source
    if cfg.data_source == "synthetic":
        out["data"]["synthetic"] = _synthetic_to_dict(cfg.synthetic)
    else:
        out["data"]["csv_path"] = cfg.csv_path
        out["data"]["dates"] = list(cfg.csv_dates)
        if cfg.csv_half_days:
            out["data"]["half_days"] = list(cfg.csv_half_days)
    return out


def config_from_dict(data: dict) -> RunConfig:
    """Parse a config object; a malformed shape, missing field or unknown key is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    _block(data, "", ("data", "splits"), (
        "schema_version", "models", "frequencies", "horizons", "families", "crash", "search",
        "smooth_half_life_days", "analyze_source", "seed", "output_dir",
    ))
    synthetic = isinstance(data["data"], dict) and data["data"].get("source") == "synthetic"
    block = _block(data["data"], "data", ("source", "synthetic") if synthetic else ("source",),
                   () if synthetic else ("csv_path", "dates", "half_days"))
    splits = _block(data["splits"], "splits", ("train", "validation", "test"))
    families = _block(data.get("families", {}), "families", (), ("regression", "classification"))
    crash = _block(data.get("crash", {}), "crash", (), ("half_life", "threshold"))
    search = _block(data.get("search", {}), "search", (),
                    ("ae_iterations", "forecast_iterations", "cv_folds"))
    try:
        return RunConfig(
            data_source=block["source"],
            splits=SplitSpec(
                train=tuple(splits["train"]),
                validation=tuple(splits["validation"]),
                test=tuple(splits["test"]),
            ),
            synthetic=_synthetic_from_dict(block["synthetic"]) if synthetic else None,
            csv_path=block.get("csv_path"),
            csv_dates=tuple(block.get("dates", ())),
            csv_half_days=tuple(block.get("half_days", ())),
            models=data.get("models", "both"),
            frequencies=tuple(data.get("frequencies", DEFAULT_FREQUENCIES)),
            horizons=tuple(data.get("horizons", data.get("frequencies", DEFAULT_FREQUENCIES))),
            regression_families=tuple(families.get("regression", DEFAULT_REGRESSION_FAMILIES)),
            classification_families=tuple(
                families.get("classification", DEFAULT_CLASSIFICATION_FAMILIES)
            ),
            crash_half_life=float(crash.get("half_life", 10.0)),
            crash_threshold=float(crash.get("threshold", -1.5)),
            ae_search_iterations=int(search.get("ae_iterations", 20)),
            forecast_search_iterations=int(search.get("forecast_iterations", 200)),
            cv_folds=int(search.get("cv_folds", 3)),
            smooth_half_life_days=float(data.get("smooth_half_life_days", 1.0)),
            analyze_source=data.get("analyze_source"),
            seed=int(data.get("seed", 0)),
            output_dir=str(data.get("output_dir", "run")),
        )
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
