"""Log returns, realized variance, drawdowns, EWMA statistics, crash labels, winsorization.

One-second log returns are session-major like the prices they come from: a block of
23,399 returns per session, at offsets 1..23399 from its open, and one open epoch per block.

Window conventions (shared by realized variance, reconstruction ratios and market returns):
the four windows of `market_data.WINDOWS` (5 minutes, 1 hour, 1 day, 1 week) are the only
ones. Five-minute sums are the one windowed intermediate: `five_minute_sums` sums one-second
values into each session's 78 buckets, and `window_sums` builds every window from those.
`session_five_minute_sums` makes them one session at a time from a row view of the prices,
so a stage holds no one-second array longer than a session. Windows have right
edges at open + k*interval inside each session and never straddle sessions. A 6.5-hour
session yields 78 five-minute windows, 6 complete hourly windows (the final 30 minutes
belong to no hourly window) and one daily window; a week spans 5 sessions and ends at
every session close from the fifth, so weeks roll one session at a time (a weekly
forecast target is the disjoint week five stamps ahead). Every coarse window is the sum of
its 5-minute window sums, so re-aggregating the 5-minute sums is exact, not approximate.
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
    block_stamps,
    check_blocks,
)

RISK_KINDS = ("log_rv", "drawdown", "return", "arr")


@dataclass(frozen=True)
class ReturnsPanel:
    """One-second log returns, session-major: row j of block s is the return over the
    second that ends at opens[s] + 1 + j, so no return spans two blocks."""

    opens: np.ndarray  # int64 [S], the open of each block's session
    returns: np.ndarray  # float64 [T, N]; T a multiple of S
    asset_ids: tuple[str, ...]

    def __post_init__(self):
        returns = np.asarray(self.returns)
        if returns.ndim != 2 or returns.shape[1] != len(self.asset_ids):
            raise ValueError("inconsistent returns panel shapes")
        object.__setattr__(self, "opens", check_blocks(self.opens, len(returns)))
        returns.setflags(write=False)
        object.__setattr__(self, "returns", returns)

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    @property
    def timestamps(self) -> np.ndarray:
        """The epoch second at which each row's return ends."""
        return block_stamps(self.opens, len(self.returns), 1)

    def select_sessions(self, start: int, stop: int) -> "ReturnsPanel":
        """Sessions [start, stop) of the panel, as a view of its rows."""
        opens = self.opens[start:stop]
        if len(opens) == 0:
            raise ValueError(f"no rows in session range [{start}, {stop})")
        per = len(self.returns) // len(self.opens)
        rows = self.returns[start * per : (start + len(opens)) * per]
        return ReturnsPanel(opens, rows, self.asset_ids)


@dataclass(frozen=True)
class RiskSeries:
    timestamps: np.ndarray
    values: np.ndarray
    kind: str  # one of RISK_KINDS

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


def five_minute_sums(values: np.ndarray) -> np.ndarray:
    """Sums (S, 78[, N]) of one-second `values` over each session's 5-minute buckets.

    values may be [T] or [T, N] (summed along time only): the one-second returns of S full
    sessions, or a per-row function of them; a session's last bucket holds 299 seconds.
    """
    values = np.asarray(values, dtype=np.float64)
    n, tail = len(values) // (SESSION_SECONDS - 1), values.shape[1:]
    if n == 0 or len(values) != n * (SESSION_SECONDS - 1):
        raise ValueError("incomplete session: expected a full 6.5-hour grid")
    # one trailing -0.0 per session makes 78 whole 5-minute buckets; x + -0.0 == x bitwise
    grid = np.concatenate(
        [values.reshape((n, SESSION_SECONDS - 1) + tail), np.full((n, 1) + tail, -0.0)], axis=1
    )
    return grid.reshape((n, SESSION_SECONDS // FIVE_MIN, FIVE_MIN) + tail).sum(axis=2)


def window_sums(fives: np.ndarray, opens: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum five-minute sums over every aligned window of a supported length.

    fives is (S, 78[, N]): the `five_minute_sums` of the full sessions opening at `opens`.
    Returns (stamps, sums), stamps being the windows' right-edge epochs.
    """
    fives = np.asarray(fives, dtype=np.float64)
    n, per_day, tail = len(opens), SESSION_SECONDS // FIVE_MIN, fives.shape[2:]
    if n == 0 or fives.shape[:2] != (n, per_day):
        raise ValueError(f"expected the five-minute sums of {n} sessions, got shape {fives.shape}")
    stamps, ends = _window_edges(opens, window)
    if window == ONE_WEEK:
        flat = fives.reshape((n * per_day,) + tail)
        sums = np.array([flat[(e - 4) * per_day : (e + 1) * per_day].sum(axis=0) for e in ends])
    else:
        group, per = window // FIVE_MIN, WINDOWS[window][1]
        sums = fives[:, : per * group].reshape((n * per, group) + tail).sum(axis=1)
    return stamps, sums


def session_five_minute_sums(ticks: TickPanel, per_second, columns=slice(None)) -> list:
    """One (S, 78[, n]) array of five-minute sums per value that `per_second` makes of the
    log returns, one session at a time: each session's `columns` of prices, a row view, go
    through `log_returns`, then `per_second` gives a tuple of [rows] or [rows, n] arrays."""
    sessions = (log_returns(ticks.select_sessions(s, s + 1, columns), 1) for s in range(len(ticks.opens)))
    sums = [[five_minute_sums(v) for v in per_second(returns)] for returns in sessions]
    return [np.concatenate(per_session) for per_session in zip(*sums)]


def _window_edges(opens, window):
    """Right-edge epochs of every window over sessions opening at `opens`, and the
    position of the session each window ends in."""
    per = _check_interval(window)
    n = len(opens)
    if window == ONE_WEEK:
        if n < 5:
            raise ValueError("interval larger than available data (need 5 sessions)")
        ends = np.arange(4, n)
        return opens[ends] + ONE_DAY, ends
    return (opens[:, None] + window * np.arange(1, per + 1)).ravel(), np.repeat(np.arange(n), per)


def _check_interval(window: int) -> int:
    """Windows ending per session at a supported window length."""
    if window not in WINDOWS:
        raise ValueError(f"misaligned interval {window}: not 5 minutes, 1 hour, 1 day or 1 week")
    return WINDOWS[window][1]


# ---------------------------------------------------------------------------
# returns


def log_returns(panel: TickPanel, interval: int = 1) -> ReturnsPanel:
    """One-second log returns inside each session of the panel; none spans two sessions.

    Only `interval` 1 is accepted; `five_minute_sums` and `window_sums` sum longer windows.
    """
    if interval != 1:
        raise ValueError(f"log returns are one-second only (interval {interval}); "
                         "sum longer windows with window_sums")
    prices = panel.prices.reshape(len(panel.opens), -1, panel.n_assets)
    per_second = np.empty((len(prices), prices.shape[1] - 1, panel.n_assets))
    for session, out in zip(prices, per_second):  # one session's log prices at a time
        out[...] = np.diff(np.log(session), axis=0)
    return ReturnsPanel(panel.opens, per_second.reshape(-1, panel.n_assets), panel.asset_ids)


# ---------------------------------------------------------------------------
# realized variance


def realized_variance(squared_fives: np.ndarray, opens: np.ndarray, window: int) -> RiskSeries:
    """Log RV series from the five-minute sums of squared returns: RV(t, dt) = sum of r^2
    over (t-dt, t], logged, with RV=0 windows absent."""
    stamps, rv = window_sums(squared_fives, opens, window)
    keep = rv > 0.0
    return RiskSeries(stamps[keep], np.log(rv[keep]), "log_rv")


# ---------------------------------------------------------------------------
# drawdown


def drawdown(timestamps: np.ndarray, prices: np.ndarray) -> RiskSeries:
    """DD(t) = 1 - p(t)/max_{s<=t} p(s), running max from the start of the series."""
    prices = np.asarray(prices, dtype=np.float64)
    if np.any(prices <= 0):
        raise ValueError("non-positive price")
    dd = 1.0 - prices / np.maximum.accumulate(prices)
    return RiskSeries(np.asarray(timestamps), dd, "drawdown")


def sample_price_series(panel: TickPanel, interval: int, asset_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Prices at window right edges (the final print of each window) for one asset."""
    col = panel.prices[:, panel.asset_ids.index(asset_id)]
    if len(col) != len(panel.opens) * SESSION_SECONDS:
        raise ValueError("incomplete session: expected a full 6.5-hour grid")
    stamps, ends = _window_edges(panel.opens, interval)
    # the price at or before each edge: an edge at the close takes the session's last second
    offsets = np.minimum(stamps - panel.opens[ends], SESSION_SECONDS - 1)
    return stamps, col[ends * SESSION_SECONDS + offsets]


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
    """Clamp below/above the (linearly interpolated) lower/upper percentiles: bitwise
    `np.percentile`'s 'linear' bounds, from one partition at its positions (which decide
    the sign of a zero bound too), without the numpy.ma import of its first call."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty series")
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError("need 0 <= lower < upper <= 1")
    n = v.size
    pos = [(n - 1) * ((100.0 * q) / 100) for q in (lower, upper)]
    below = [-1 if p >= n - 1 else int(p) for p in pos]  # -1: the last value, as numpy indexes it
    above = [-1 if i == -1 else i + 1 for i in below]
    part = np.partition(v.ravel(), sorted({0, -1, *below, *above}))
    if np.isnan(part[-1]):  # a NaN sorts last, and any NaN makes both bounds NaN
        return np.clip(v, np.nan, np.nan)
    bounds = []
    for p, i, j in zip(pos, below, above):
        a, b, t = float(part[i]), float(part[j]), p - i
        bounds.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return np.clip(v, *bounds)
