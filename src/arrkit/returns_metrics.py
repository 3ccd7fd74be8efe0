"""Log returns, realized variance, drawdowns, EWMA statistics, crash labels, winsorization.

Window conventions (shared by realized variance, reconstruction ratios and interval returns):
the four windows of `market_data.WINDOWS` (5 minutes, 1 hour, 1 day, 1 week) are the only
ones, and they are summed from full sessions of one-second returns. Windows have right
edges at open + k*interval inside each session and never straddle sessions. A 6.5-hour
session yields 78 five-minute windows, 6 complete hourly windows (the final 30 minutes
belong to no hourly window) and one daily window; weekly windows span 5 sessions (rolling
for analysis/features, non-overlapping for targets). Every coarse window is the sum of its
5-minute window sums, so re-aggregating the 5-minute sums is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_WEEK,
    SESSION_SECONDS,
    WINDOWS,
    TickPanel,
    session_slices,
)

RISK_KINDS = ("log_rv", "drawdown", "return", "arr")


@dataclass(frozen=True)
class ReturnsPanel:
    """Log returns on the interval grid within sessions; no return spans a boundary."""

    timestamps: np.ndarray  # int64 [T] window right edges
    returns: np.ndarray  # float64 [T, N]
    asset_ids: tuple[str, ...]
    interval: int  # seconds of session time
    session_index: np.ndarray  # int64 [T]

    def __post_init__(self):
        for name in ("timestamps", "returns", "session_index"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.returns.shape != (len(self.timestamps), len(self.asset_ids)):
            raise ValueError("inconsistent returns panel shapes")

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    def session_slices(self) -> list[slice]:
        return session_slices(self.session_index)

    def column(self, asset_id: str) -> np.ndarray:
        return self.returns[:, self.asset_ids.index(asset_id)]

    def select_sessions(self, start: int, stop: int) -> "ReturnsPanel":
        mask = (self.session_index >= start) & (self.session_index < stop)
        if not mask.any():
            raise ValueError(f"no rows in session range [{start}, {stop})")
        return ReturnsPanel(
            self.timestamps[mask], self.returns[mask], self.asset_ids,
            self.interval, self.session_index[mask] - start,
        )


@dataclass(frozen=True)
class RiskSeries:
    timestamps: np.ndarray
    values: np.ndarray
    kind: str  # one of RISK_KINDS
    interval: int

    def __post_init__(self):
        if self.kind not in RISK_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in ("timestamps", "values"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.kind == "log_rv" and not np.all(np.isfinite(self.values)):
            raise ValueError("log_rv values must be finite")
        if self.kind == "drawdown" and (np.any(self.values < 0) or np.any(self.values >= 1)):
            raise ValueError("drawdown values must lie in [0, 1)")


@dataclass(frozen=True)
class CrashLabels:
    timestamps: np.ndarray
    labels: np.ndarray  # 0/1
    zscores: np.ndarray
    half_life: float
    threshold: float

    def __post_init__(self):
        if not np.array_equal(self.labels, (self.zscores < self.threshold).astype(self.labels.dtype)):
            raise ValueError("labels must equal (zscore < threshold)")


# ---------------------------------------------------------------------------
# window machinery


def window_sums(
    values: np.ndarray,
    timestamps: np.ndarray,
    session_index: np.ndarray,
    window: int,
    *,
    rolling_weekly: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum one-second `values` over every aligned window of a supported length.

    values may be [T] or [T, N] (summed along time only) on full sessions of one-second
    returns. Returns (stamps, sums, window_session) where stamps are window right-edge
    epochs and window_session is the ordinal of the session the window ends in.
    """
    values = np.asarray(values, dtype=np.float64)
    opens, sessions = _full_sessions(timestamps, session_index, first_offset=1)
    stamps, ends = _window_edges(opens, window, rolling_weekly)
    n, tail = len(opens), values.shape[1:]
    # one trailing -0.0 per session makes 78 whole 5-minute buckets; x + -0.0 == x bitwise
    grid = np.concatenate(
        [values.reshape((n, SESSION_SECONDS - 1) + tail), np.full((n, 1) + tail, -0.0)], axis=1
    )
    per_day = SESSION_SECONDS // FIVE_MIN
    fives = grid.reshape((n, per_day, FIVE_MIN) + tail).sum(axis=2)
    if window == ONE_WEEK:
        flat = fives.reshape((n * per_day,) + tail)
        sums = np.array([flat[(e - 4) * per_day : (e + 1) * per_day].sum(axis=0) for e in ends])
    else:
        group, per = window // FIVE_MIN, WINDOWS[window][1]
        sums = fives[:, : per * group].reshape((n * per, group) + tail).sum(axis=1)
    return stamps, sums, sessions[ends]


def _full_sessions(timestamps, session_index, first_offset):
    """Open epochs and ordinals of full sessions on a one-second grid whose rows sit at
    offsets first_offset..SESSION_SECONDS-1 from each open (1 for returns, 0 for prices)."""
    offsets = np.arange(first_offset, SESSION_SECONDS)
    n = len(timestamps) // len(offsets)
    if n == 0 or n * len(offsets) != len(timestamps):
        raise ValueError("incomplete session: expected a full 6.5-hour grid")
    ts = np.reshape(timestamps, (n, -1))
    si = np.reshape(session_index, (n, -1))
    opens = ts[:, 0] - first_offset
    grid_ok = np.all(ts == opens[:, None] + offsets)
    if not grid_ok or np.any(si != si[:, :1]) or np.any(np.diff(si[:, 0]) <= 0):
        raise ValueError("incomplete session: expected a full 6.5-hour grid")
    return opens, si[:, 0]


def _window_edges(opens, window, rolling_weekly):
    """Right-edge epochs of every window over sessions opening at `opens`, and the
    position of the session each window ends in."""
    per = _check_interval(window)
    n = len(opens)
    if window == ONE_WEEK:
        if n < 5:
            raise ValueError("interval larger than available data (need 5 sessions)")
        ends = np.arange(4, n, 1 if rolling_weekly else 5)
        return opens[ends] + ONE_DAY, ends
    return (opens[:, None] + window * np.arange(1, per + 1)).ravel(), np.repeat(np.arange(n), per)


def _check_interval(window: int) -> float:
    """Windows per session of a supported window length."""
    if window not in WINDOWS:
        raise ValueError(f"misaligned interval {window}: not 5 minutes, 1 hour, 1 day or 1 week")
    return WINDOWS[window][1]


# ---------------------------------------------------------------------------
# returns


def log_returns(
    panel: TickPanel, interval: int = 1, *, rolling_weekly: bool = False
) -> ReturnsPanel:
    """Log returns on the interval grid; daily = one session, weekly = 5 sessions."""
    slices = panel.session_slices()
    logp = np.log(panel.prices)
    per_second = np.vstack([np.diff(logp[sl], axis=0) for sl in slices])
    mask = np.ones(panel.n_rows, dtype=bool)
    firsts = np.array([sl.start for sl in slices])
    mask[firsts] = False
    ts_r = panel.timestamps[mask]
    si_r = panel.session_index[mask]

    if interval == 1:
        return ReturnsPanel(ts_r, per_second, panel.asset_ids, 1, si_r)

    stamps, sums, sess = window_sums(
        per_second, ts_r, si_r, interval, rolling_weekly=rolling_weekly
    )
    return ReturnsPanel(stamps, sums, panel.asset_ids, interval, sess)


def asset_return_series(returns: ReturnsPanel, asset_id: str) -> RiskSeries:
    return RiskSeries(returns.timestamps, returns.column(asset_id), "return", returns.interval)


# ---------------------------------------------------------------------------
# realized variance


def realized_variance_windows(
    returns: ReturnsPanel, window: int, asset_id: str | None = None, *, rolling_weekly: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Raw windowed RV sums (timestamps, values): RV(t, dt) = sum of r^2 over (t-dt, t]."""
    if asset_id is None:
        if returns.n_assets != 1:
            raise ValueError("asset_id required for multi-asset panels")
        col = returns.returns[:, 0]
    else:
        col = returns.column(asset_id)
    stamps, sums, _ = window_sums(
        col * col, returns.timestamps, returns.session_index, window, rolling_weekly=rolling_weekly
    )
    return stamps, sums


def realized_variance(
    returns: ReturnsPanel, window: int, asset_id: str | None = None, *, rolling_weekly: bool = False
) -> RiskSeries:
    """Log RV series: log of the windowed sum of squared returns, RV=0 windows absent."""
    stamps, rv = realized_variance_windows(returns, window, asset_id, rolling_weekly=rolling_weekly)
    keep = rv > 0.0
    return RiskSeries(stamps[keep], np.log(rv[keep]), "log_rv", window)


# ---------------------------------------------------------------------------
# drawdown


def drawdown(timestamps: np.ndarray, prices: np.ndarray, interval: int = 1) -> RiskSeries:
    """DD(t) = 1 - p(t)/max_{s<=t} p(s), running max from the start of the series."""
    prices = np.asarray(prices, dtype=np.float64)
    if np.any(prices <= 0):
        raise ValueError("non-positive price")
    dd = 1.0 - prices / np.maximum.accumulate(prices)
    return RiskSeries(np.asarray(timestamps), dd, "drawdown", interval)


def sample_price_series(
    panel: TickPanel, interval: int, asset_id: str, *, rolling_weekly: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Prices at window right edges (the final print of each window) for one asset."""
    col = panel.prices[:, panel.asset_ids.index(asset_id)]
    opens, _ = _full_sessions(panel.timestamps, panel.session_index, first_offset=0)
    stamps, _ = _window_edges(opens, interval, rolling_weekly)
    # price at or before each stamp
    idx = np.searchsorted(panel.timestamps, stamps, side="right") - 1
    return stamps, col[idx]


# ---------------------------------------------------------------------------
# EWMA statistics


def ewm_stats(values: np.ndarray, half_life: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponentially weighted mean/std, weights normalized over available history.

    West-style incremental weighted central moments: exact for constant series (std == 0)
    and identical to the direct normalized-weights definition. values may be [T] or
    [T, B] (B independent series advanced in lockstep).
    """
    if half_life <= 0:
        raise ValueError("half_life must be positive")
    x = np.asarray(values, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations for EWMA std")
    decay = np.exp(-np.log(2.0) / half_life)
    mean = np.empty_like(x)
    std = np.empty_like(x)
    w_sum = 0.0
    m = np.zeros(x.shape[1])
    s = np.zeros(x.shape[1])
    for t in range(x.shape[0]):
        w_sum = decay * w_sum + 1.0
        delta = x[t] - m
        m = m + delta / w_sum
        s = decay * s + delta * (x[t] - m)
        mean[t] = m
        std[t] = np.sqrt(np.maximum(s / w_sum, 0.0))
    if squeeze:
        return mean[:, 0], std[:, 0]
    return mean, std


def crash_labels(
    market_returns: RiskSeries, half_life: float = 10.0, threshold: float = -1.5
) -> CrashLabels:
    """Crash = return z-score vs EWMA mean/std below threshold.

    The EWMA includes the current observation. The first ceil(3*half_life) stamps are
    warm-up and excluded, as are stamps with zero EWMA std.
    """
    r = np.asarray(market_returns.values, dtype=np.float64)
    mean, std = ewm_stats(r, half_life)
    warm = int(np.ceil(3.0 * half_life))
    idx = np.arange(len(r))
    keep = (idx >= warm) & (std > 0.0)
    z = (r[keep] - mean[keep]) / std[keep]
    return CrashLabels(
        market_returns.timestamps[keep],
        (z < threshold).astype(np.int64),
        z,
        half_life,
        threshold,
    )


# ---------------------------------------------------------------------------
# winsorization


def winsorize(values: np.ndarray, lower: float = 0.01, upper: float = 0.99) -> np.ndarray:
    """Clamp below/above the (linearly interpolated) lower/upper percentiles."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty series")
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError("need 0 <= lower < upper <= 1")
    lo, hi = np.percentile(v, [100.0 * lower, 100.0 * upper])
    return np.clip(v, lo, hi)
