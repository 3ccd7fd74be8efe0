"""Reconstruction-ratio series: cross-sectional reconstruction error over aligned windows.

The ratio for a window is sum of squared reconstruction errors over all assets and
timestamps in the window, divided by the matching sum of squared returns. Low values mean
the compressed factor structure explains most of the cross-section (high co-movement);
values near one mean returns are mostly idiosyncratic. Numerator and denominator window
sums are built from five-minute sums, as realized variance is, so re-aggregating 5-minute
ratios into hourly/daily/weekly ones is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import check_blocks
from .pca import PcaModel, pca_reconstruct
from .returns_metrics import ReturnsPanel, _check_interval, ewm_stats, five_minute_sums, window_sums

ARR_SOURCES = ("autoencoder", "pca")


@dataclass(frozen=True)
class ReconstructionResult:
    """Per-return actual vs reconstructed panels from one compression model, on the
    session-major rows of the `ReturnsPanel` they came from."""

    opens: np.ndarray  # int64 [S]
    actual: np.ndarray  # float64 [T, N]
    reconstructed: np.ndarray  # float64 [T, N]
    asset_ids: tuple[str, ...]
    source: str

    def __post_init__(self):
        if self.source not in ARR_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.actual.shape != self.reconstructed.shape:
            raise ValueError("actual/reconstructed shape mismatch")
        if not np.all(np.isfinite(self.reconstructed)):
            raise ValueError("non-finite reconstruction")
        object.__setattr__(self, "opens", check_blocks(self.opens, len(self.actual)))
        for name in ("actual", "reconstructed"):
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
        opens=returns.opens,
        actual=returns.returns,
        reconstructed=pca_reconstruct(model, returns.returns),
        asset_ids=returns.asset_ids,
        source="pca",
    )


def squared_error(result: ReconstructionResult) -> np.ndarray:
    """Per-row sum over assets of the squared reconstruction error."""
    err = result.actual - result.reconstructed
    return np.einsum("ij,ij->i", err, err)


def compute_arr(result: ReconstructionResult, interval: int) -> ArrSeries:
    """Reconstruction ratio over every aligned window of the given length."""
    sq_ret = np.einsum("ij,ij->i", result.actual, result.actual)
    fives = [five_minute_sums(v) for v in (squared_error(result), sq_ret)]
    return ratio_series(*fives, result.opens, interval, result.source)


def ratio_series(err_fives, ret_fives, opens, interval: int, source: str) -> ArrSeries:
    """The ratio over every aligned window from the five-minute sums of the per-row squared
    errors and squared returns of the sessions opening at `opens`. Windows whose denominator
    is zero are dropped (the ratio is undefined when nothing moved)."""
    stamps, num = window_sums(err_fives, opens, interval)
    _, den = window_sums(ret_fives, opens, interval)
    keep = den > 0
    num, den = num[keep], den[keep]
    return ArrSeries(stamps[keep], num / den, interval, source, num, den)


def smooth_arr(series: ArrSeries, half_life_days: float) -> ArrSeries:
    """EWMA-smoothed copy; the half-life is given in sessions and converted to steps (the
    windows that end per session)."""
    if half_life_days <= 0:
        raise ValueError("half_life_days must be positive")
    steps = half_life_days * _check_interval(series.interval)
    mean, _ = ewm_stats(series.values, steps)
    return ArrSeries(
        timestamps=series.timestamps,
        values=mean,
        interval=series.interval,
        source=series.source,
    )


def align_series(
    ts_a: np.ndarray, vals_a: np.ndarray, ts_b: np.ndarray, vals_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner-join two stamped series; returns (timestamps, a_values, b_values)."""
    common, ia, ib = np.intersect1d(ts_a, ts_b, return_indices=True)
    return common, np.asarray(vals_a)[ia], np.asarray(vals_b)[ib]
