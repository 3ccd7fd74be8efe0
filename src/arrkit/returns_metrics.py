"""Log returns, realized variance, drawdowns, EWMA statistics, crash labels, winsorization.

Window conventions (shared by realized variance, reconstruction ratios and interval returns):
windows have right edges at open + k*interval inside each session and never straddle
sessions. A 6.5-hour session yields 78 five-minute windows, 6 complete hourly windows (the
final 30 minutes belong to no hourly window), one daily window, and weekly windows span 5
sessions (rolling for analysis/features, non-overlapping for targets). Coarse windows that
are multiples of 5 minutes are computed by summing the 5-minute window sums over the same
slices a re-aggregation check would use, so partition additivity is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_WEEK,
    SESSION_SECONDS,
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
    base_interval: int,
    window: int,
    *,
    rolling_weekly: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum per-return `values` over aligned windows.

    values may be [T] or [T, N] (summed along time only). Returns (stamps, sums,
    window_session) where stamps are window right-edge epochs and window_session is the
    ordinal of the session the window ends in.
    """
    values = np.asarray(values)
    if window < base_interval:
        raise ValueError("window smaller than base interval")
    slices = session_slices(session_index)
    n_sessions = session_index[-1] + 1 if len(session_index) else 0

    if window >= ONE_WEEK:
        if window != ONE_WEEK:
            raise ValueError(f"misaligned interval {window}")
        if n_sessions < 5:
            raise ValueError("interval larger than available data (need 5 sessions)")
        day_stamps, day_sums, _ = window_sums(values, timestamps, session_index, base_interval, ONE_DAY)
        if base_interval == 1:
            # exact re-aggregation: weeks are sums of the 5-min window sums
            _, fine, _ = window_sums(values, timestamps, session_index, base_interval, FIVE_MIN)
            per_day = SESSION_SECONDS // FIVE_MIN
        else:
            fine, per_day = day_sums, 1
        starts = range(4, int(n_sessions)) if rolling_weekly else range(4, int(n_sessions), 5)
        stamps, sums, sess = [], [], []
        for s in starts:
            lo, hi = (s - 4) * per_day, (s + 1) * per_day
            stamps.append(day_stamps[s])
            sums.append(np.sum(fine[lo:hi], axis=0))
            sess.append(s)
        return (np.array(stamps, dtype=np.int64), np.array(sums), np.array(sess, dtype=np.int64))

    if base_interval == 1 and window % FIVE_MIN == 0:
        f_stamps, fives, f_sess = _session_window_sums(values, timestamps, slices, session_index, 1, FIVE_MIN)
        if window == FIVE_MIN:
            return f_stamps, fives, f_sess
        group = window // FIVE_MIN
        m_max = SESSION_SECONDS // window
        stamps, sums, sess = [], [], []
        f_slices = session_slices(f_sess)
        for s, fsl in enumerate(f_slices):
            open_epoch = int(f_stamps[fsl.start]) - FIVE_MIN
            for m in range(1, m_max + 1):
                lo = fsl.start + (m - 1) * group
                stamps.append(open_epoch + m * window)
                sums.append(np.sum(fives[lo : lo + group], axis=0))
                sess.append(f_sess[fsl.start])
        return (np.array(stamps, dtype=np.int64), np.array(sums), np.array(sess, dtype=np.int64))

    return _session_window_sums(values, timestamps, slices, session_index, base_interval, window)


def _session_window_sums(values, timestamps, slices, session_index, base_interval, window):
    if window > SESSION_SECONDS:
        raise ValueError(f"misaligned interval {window}")
    m_max = SESSION_SECONDS // window
    per_session = SESSION_SECONDS - 1 if base_interval == 1 else SESSION_SECONDS // base_interval
    stamps, sums, sess = [], [], []
    for sl in slices:
        if sl.stop - sl.start != per_session:
            raise ValueError("incomplete session: expected a full 6.5-hour grid")
        offs = timestamps[sl] - (int(timestamps[sl.start]) - base_interval)
        open_epoch = int(timestamps[sl.start]) - base_interval
        for m in range(1, m_max + 1):
            lo = np.searchsorted(offs, (m - 1) * window, side="right")
            hi = np.searchsorted(offs, m * window, side="right")
            stamps.append(open_epoch + m * window)
            sums.append(np.sum(values[sl.start + lo : sl.start + hi], axis=0))
            sess.append(session_index[sl.start])
    if not stamps:
        raise ValueError("empty window set")
    return (np.array(stamps, dtype=np.int64), np.array(sums), np.array(sess, dtype=np.int64))


# ---------------------------------------------------------------------------
# returns


def log_returns(
    panel: TickPanel, interval: int = 1, *, rolling_weekly: bool = False
) -> ReturnsPanel:
    """Log returns on the interval grid; daily = one session, weekly = 5 sessions."""
    _check_interval(interval)
    slices = panel.session_slices()
    n_sessions = int(panel.session_index[-1]) + 1
    if interval == ONE_WEEK and n_sessions < 5:
        raise ValueError("interval larger than available data (need 5 sessions)")
    if interval != ONE_WEEK and interval > SESSION_SECONDS:
        raise ValueError("interval larger than available data")

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
        per_second, ts_r, si_r, 1, interval,
        rolling_weekly=rolling_weekly,
    )
    return ReturnsPanel(stamps, sums, panel.asset_ids, interval, sess)


def _check_interval(interval: int) -> None:
    if interval == ONE_WEEK:
        return
    ok = interval >= 1 and (SESSION_SECONDS % interval == 0 or interval == 3600)
    if not ok:
        raise ValueError(
            f"misaligned interval {interval}: must divide the session, or be 1 hour/1 day/1 week"
        )


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
    _check_interval(window)
    stamps, sums, _ = window_sums(
        col * col, returns.timestamps, returns.session_index, returns.interval, window,
        rolling_weekly=rolling_weekly,
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
    r = log_returns(panel, 1)
    stamps, _, sess = window_sums(
        np.zeros(len(r.timestamps)), r.timestamps, r.session_index, 1, interval,
        rolling_weekly=rolling_weekly,
    )
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
