"""Reconstruction-ratio series: cross-sectional reconstruction error over aligned windows.

The ratio for a window is sum of squared reconstruction errors over all assets and
timestamps in the window, divided by the matching sum of squared returns. Low values mean
the compressed factor structure explains most of the cross-section (high co-movement);
values near one mean returns are mostly idiosyncratic. Numerator and denominator window
sums ride the same 5-minute-bucket machinery as realized variance, so re-aggregating
5-minute ratios into hourly/daily/weekly ones is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import ONE_WEEK
from .pca import PcaModel, pca_reconstruct
from .returns_metrics import ReturnsPanel, _check_interval, ewm_stats, window_sums

ARR_SOURCES = ("autoencoder", "pca")


@dataclass(frozen=True)
class ReconstructionResult:
    """Per-return actual vs reconstructed panels from one compression model."""

    timestamps: np.ndarray  # int64 [T]
    actual: np.ndarray  # float64 [T, N]
    reconstructed: np.ndarray  # float64 [T, N]
    session_index: np.ndarray  # int64 [T]
    asset_ids: tuple[str, ...]
    source: str

    def __post_init__(self):
        if self.source not in ARR_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.actual.shape != self.reconstructed.shape:
            raise ValueError("actual/reconstructed shape mismatch")
        if not np.all(np.isfinite(self.reconstructed)):
            raise ValueError("non-finite reconstruction")
        for name in ("timestamps", "actual", "reconstructed", "session_index"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ArrSeries:
    """Windowed reconstruction ratios; numerators/denominators kept for re-aggregation.

    Derived series (e.g. smoothed) drop the numerator/denominator pair.
    """

    timestamps: np.ndarray  # int64 [W] window right edges
    values: np.ndarray  # float64 [W]
    interval: int
    source: str
    numerators: np.ndarray | None = None
    denominators: np.ndarray | None = None
    rolling: bool = False

    def __post_init__(self):
        for name in ("timestamps", "values", "numerators", "denominators"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite ratio values")
        if np.any(self.values < 0):
            raise ValueError("negative ratio values")
        if (self.numerators is None) != (self.denominators is None):
            raise ValueError("numerators and denominators must come together")
        if self.numerators is not None:
            if np.any(self.denominators <= 0):
                raise ValueError("non-positive denominator")
            if not np.array_equal(self.values, self.numerators / self.denominators):
                raise ValueError("values must equal numerators/denominators")

    def __len__(self) -> int:
        return len(self.values)


def pca_reconstruction(model: PcaModel, returns: ReturnsPanel) -> ReconstructionResult:
    if model.n_assets != returns.n_assets:
        raise ValueError("model/panel asset count mismatch")
    return ReconstructionResult(
        timestamps=returns.timestamps,
        actual=returns.returns,
        reconstructed=pca_reconstruct(model, returns.returns),
        session_index=returns.session_index,
        asset_ids=returns.asset_ids,
        source="pca",
    )


def compute_arr(
    result: ReconstructionResult, interval: int, *, rolling_weekly: bool = False
) -> ArrSeries:
    """Reconstruction ratio over every aligned window of the given length.

    Windows whose squared-return denominator is zero are dropped (the ratio is undefined
    when nothing moved).
    """
    err = result.actual - result.reconstructed
    sq_err = np.einsum("ij,ij->i", err, err)
    sq_act = np.einsum("ij,ij->i", result.actual, result.actual)
    stamps, num, _ = window_sums(
        sq_err, result.timestamps, result.session_index, interval, rolling_weekly=rolling_weekly
    )
    _, den, _ = window_sums(
        sq_act, result.timestamps, result.session_index, interval, rolling_weekly=rolling_weekly
    )
    keep = den > 0
    return ArrSeries(
        timestamps=stamps[keep],
        values=num[keep] / den[keep],
        interval=interval,
        source=result.source,
        numerators=num[keep],
        denominators=den[keep],
        rolling=rolling_weekly,
    )


def steps_per_session(interval: int, rolling: bool = False) -> float:
    """Observations of a windowed series per 6.5-hour session."""
    per = _check_interval(interval)
    return 1.0 if rolling and interval == ONE_WEEK else float(per)


def smooth_arr(series: ArrSeries, half_life_days: float) -> ArrSeries:
    """EWMA-smoothed copy; the half-life is given in sessions and converted to steps."""
    if half_life_days <= 0:
        raise ValueError("half_life_days must be positive")
    steps = half_life_days * steps_per_session(series.interval, series.rolling)
    mean, _ = ewm_stats(series.values, steps)
    return ArrSeries(
        timestamps=series.timestamps,
        values=mean,
        interval=series.interval,
        source=series.source,
        rolling=series.rolling,
    )


def align_series(
    ts_a: np.ndarray, vals_a: np.ndarray, ts_b: np.ndarray, vals_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner-join two stamped series; returns (timestamps, a_values, b_values)."""
    common, ia, ib = np.intersect1d(ts_a, ts_b, return_indices=True)
    return common, np.asarray(vals_a)[ia], np.asarray(vals_b)[ib]
