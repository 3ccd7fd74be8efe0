"""Trading-session price panels: calendar, synthetic factor-model generator, CSV ingestion.

Everything downstream (returns, realized variance, reconstruction ratios) is defined on the
per-second grid of a session calendar, so this module owns the grid conventions:

* a full session covers 23400 seconds (6.5 hours), grid seconds [open, open + 23400);
* returns never span a session boundary (the first second of a session has no return);
* timestamps are epoch seconds with sessions placed at 09:30-16:00 UTC.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field, replace

import numpy as np

SESSION_SECONDS = 23400  # 6.5 hours
SESSION_OPEN_OFFSET = 34200  # 09:30 as seconds from midnight
FIVE_MIN = 300
ONE_HOUR = 3600
ONE_DAY = SESSION_SECONDS
ONE_WEEK = 5 * SESSION_SECONDS
# The supported windows: seconds -> (name, windows per session). A session holds six
# whole hours (its last half hour belongs to no hourly window); a week spans five sessions.
WINDOWS = {
    FIVE_MIN: ("5min", SESSION_SECONDS // FIVE_MIN),
    ONE_HOUR: ("1hour", SESSION_SECONDS // ONE_HOUR),
    ONE_DAY: ("1day", 1),
    ONE_WEEK: ("1week", 0.2),
}


# ---------------------------------------------------------------------------
# calendar


@dataclass(frozen=True)
class SessionCalendar:
    """Ordered full trading sessions plus the dates deliberately excluded (half days)."""

    sessions: tuple[tuple[dt.date, int, int], ...]  # (date, open_epoch, close_epoch)
    excluded_dates: tuple[dt.date, ...] = ()

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    def dates(self) -> list[dt.date]:
        return [d for d, _, _ in self.sessions]

    def open_close(self, session: int) -> tuple[int, int]:
        _, o, c = self.sessions[session]
        return o, c

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-second (timestamps, session_index) rows of every session, in order."""
        opens = np.array([o for _, o, _ in self.sessions], dtype=np.int64)
        timestamps = (opens[:, None] + np.arange(SESSION_SECONDS, dtype=np.int64)).ravel()
        session_index = np.repeat(np.arange(self.n_sessions, dtype=np.int64), SESSION_SECONDS)
        return timestamps, session_index


def _date_open_epoch(date: dt.date) -> int:
    midnight = dt.datetime(date.year, date.month, date.day, tzinfo=dt.timezone.utc)
    return int(midnight.timestamp()) + SESSION_OPEN_OFFSET


def build_session_calendar(dates: list[dt.date], half_days: list[dt.date] = ()) -> SessionCalendar:
    """Build a calendar of full 6.5-hour sessions; half days go to excluded_dates."""
    if len(dates) == 0:
        raise ValueError("no sessions: empty date list")
    if sorted(dates) != list(dates):
        raise ValueError("dates must be sorted")
    if len(set(dates)) != len(dates):
        dupes = sorted({d for d in dates if dates.count(d) > 1})
        raise ValueError(f"duplicate dates: {dupes}")
    excluded = tuple(sorted(set(half_days)))
    sessions = []
    for d in dates:
        if d in excluded:
            continue
        o = _date_open_epoch(d)
        sessions.append((d, o, o + SESSION_SECONDS))
    if not sessions:
        raise ValueError("no sessions: every date excluded")
    return SessionCalendar(tuple(sessions), excluded)


def weekday_dates(start: dt.date, count: int) -> list[dt.date]:
    """The first `count` weekdays on/after `start` (synthetic calendars)."""
    out: list[dt.date] = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


# ---------------------------------------------------------------------------
# tick panel


@dataclass(frozen=True)
class TickPanel:
    """Aligned per-second prices for N assets across the sessions of a calendar.

    Immutable: arrays are marked read-only at construction and safe to share.
    """

    timestamps: np.ndarray  # int64 [T], strictly increasing
    prices: np.ndarray  # float64 [T, N], strictly positive
    asset_ids: tuple[str, ...]
    session_index: np.ndarray  # int64 [T]

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        px = np.ascontiguousarray(self.prices, dtype=np.float64)
        si = np.ascontiguousarray(self.session_index, dtype=np.int64)
        if px.ndim != 2 or ts.shape != (px.shape[0],) or si.shape != ts.shape:
            raise ValueError("inconsistent panel shapes")
        if px.shape[1] != len(self.asset_ids):
            raise ValueError("asset_ids length does not match price columns")
        if not np.all(np.isfinite(px)) or np.any(px <= 0.0):
            raise ValueError("non-positive price")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        # within a session the grid is exactly 1 second
        same = np.diff(si) == 0
        if np.any(np.diff(ts)[same] != 1):
            raise ValueError("gap in per-second grid within a session")
        if np.any(np.diff(si) < 0):
            raise ValueError("session_index must be non-decreasing")
        for name, arr in (("timestamps", ts), ("prices", px), ("session_index", si)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]

    @property
    def n_rows(self) -> int:
        return self.prices.shape[0]

    def session_slices(self) -> list[slice]:
        return session_slices(self.session_index)

    def select_sessions(self, start: int, stop: int) -> "TickPanel":
        """Rows of sessions start..stop-1, with session_index rebased to 0."""
        mask = (self.session_index >= start) & (self.session_index < stop)
        if not mask.any():
            raise ValueError(f"no rows in session range [{start}, {stop})")
        return TickPanel(
            self.timestamps[mask],
            self.prices[mask],
            self.asset_ids,
            self.session_index[mask] - start,
        )


def session_slices(session_index: np.ndarray) -> list[slice]:
    """Contiguous row slices, one per session ordinal present in the array."""
    if len(session_index) == 0:
        return []
    breaks = np.flatnonzero(np.diff(session_index) != 0) + 1
    edges = np.concatenate(([0], breaks, [len(session_index)]))
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# synthetic market


@dataclass(frozen=True)
class RegimeSpec:
    """Loading/idio scaling over a half-open session range [start, stop)."""

    start: int
    stop: int
    factor_loading_scale: float
    idiosyncratic_vol: float


@dataclass(frozen=True)
class CoMovementSpec:
    """Window-level stochastic co-movement share with optional vol feedback.

    The share s(w) of each asset's conditional variance explained by the common factors
    follows an AR(1) in logit space over fixed-length windows. Total per-asset conditional
    variance is held constant within a window regardless of the share, and the *next*
    window's volatility responds to the current share via exp(vol_feedback * (s - mean)):
    a co-movement signal observable through reconstruction ratios therefore leads future
    realized variance without being visible in current realized variance. vol_feedback = 0
    gives the matched placebo process.
    """

    window_seconds: int = FIVE_MIN
    half_life_windows: float = 6.0
    mean_share: float = 0.55
    share_innovation: float = 0.6  # std of the logit-share innovations
    vol_feedback: float = 0.0


@dataclass(frozen=True)
class SyntheticMarketConfig:
    n_assets: int
    n_sessions: int
    n_factors: int
    regime_schedule: tuple[RegimeSpec, ...]
    nonlinearity: float = 0.0  # c in the odd-polynomial response z + c*z^3
    seed: int = 0
    base_vol: float = 1e-4  # per-second return scale
    intraday_amplitude: float = 0.0  # strength of the U-shaped time-of-day vol profile
    start_date: dt.date = dt.date(2012, 1, 2)
    market_composite: bool = False  # asset 0 = equal-weighted mean of the others
    comovement: CoMovementSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "regime_schedule", tuple(self.regime_schedule))

    def validate(self) -> None:
        n_gen = self.n_assets - (1 if self.market_composite else 0)
        if self.n_assets < 1 or self.n_sessions < 1:
            raise ValueError("n_assets and n_sessions must be positive")
        if not (0 < self.n_factors < n_gen):
            raise ValueError("require 0 < n_factors < n_assets (excluding composite)")
        if self.base_vol <= 0:
            raise ValueError("base_vol must be positive")
        if self.intraday_amplitude < 0 or self.intraday_amplitude >= 1.5:
            raise ValueError("intraday_amplitude out of range [0, 1.5)")
        covered = np.zeros(self.n_sessions, dtype=int)
        for reg in self.regime_schedule:
            if reg.stop <= reg.start:
                raise ValueError("regime range empty")
            if reg.idiosyncratic_vol < 0 or reg.factor_loading_scale < 0:
                raise ValueError("regime volatilities must be non-negative")
            covered[reg.start : reg.stop] += 1
        if np.any(covered != 1):
            raise ValueError("regime ranges must cover all sessions exactly once")
        if self.comovement is not None:
            cm = self.comovement
            if SESSION_SECONDS % cm.window_seconds != 0:
                raise ValueError("comovement window must divide the session length")
            if not (0 < cm.mean_share < 1):
                raise ValueError("mean_share must be in (0, 1)")
            if cm.half_life_windows <= 0 or cm.share_innovation < 0:
                raise ValueError("bad comovement dynamics parameters")
            if len(self.regime_schedule) != 1:
                raise ValueError("comovement mode requires a single regime "
                                 "(the share process supersedes loading/idio scaling)")


def default_asset_ids(n_assets: int, market_composite: bool) -> tuple[str, ...]:
    width = max(2, len(str(n_assets)))
    if market_composite:
        return ("MKT",) + tuple(f"S{i:0{width}d}" for i in range(1, n_assets))
    return tuple(f"A{i:0{width}d}" for i in range(1, n_assets + 1))


def intraday_profile(offsets: np.ndarray, amplitude: float) -> np.ndarray:
    """U-shaped vol multiplier over the session, unit mean: high at open/close, low midday."""
    x = 2.0 * offsets / SESSION_SECONDS - 1.0  # [-1, 1)
    return 1.0 + amplitude * (x * x - 1.0 / 3.0)


@dataclass(frozen=True)
class SyntheticDetails:
    """Ground-truth internals of a generated panel, for diagnostics and oracles."""

    loadings_linear: np.ndarray  # [n_generated, K]
    loadings_cubic: np.ndarray  # [n_generated, K]
    share_path: np.ndarray | None  # per-window co-movement share (comovement mode)
    window_vol: np.ndarray | None  # per-window vol multiplier (comovement mode)


def generate_synthetic_market(config: SyntheticMarketConfig) -> TickPanel:
    panel, _ = generate_synthetic_market_details(config)
    return panel


def generate_synthetic_market_details(
    config: SyntheticMarketConfig,
) -> tuple[TickPanel, SyntheticDetails]:
    """Per-second factor-model returns -> cumulative-exponential prices from 100.0.

    r = B_lin z + c * B_cub z^3 + xi * eps per second, loadings scaled per regime (or the
    co-movement share process when configured), times base_vol and the intraday profile.
    Deterministic given config.seed: one PCG64 stream per factor and per asset, spawned
    from a single SeedSequence.
    """
    config.validate()
    n_gen = config.n_assets - (1 if config.market_composite else 0)
    k = config.n_factors
    s_count = config.n_sessions
    t_total = s_count * SESSION_SECONDS

    root = np.random.SeedSequence(config.seed)
    seq_loadings, seq_share, seq_factors, seq_assets = root.spawn(4)
    rng_loadings = np.random.default_rng(seq_loadings)

    loadings_lin = np.empty((n_gen, k))
    loadings_lin[:, 0] = rng_loadings.uniform(0.5, 1.5, size=n_gen)  # common market factor
    if k > 1:
        loadings_lin[:, 1:] = rng_loadings.uniform(-1.0, 1.0, size=(n_gen, k - 1))
    loadings_cub = rng_loadings.uniform(-1.0, 1.0, size=(n_gen, k))

    factors = np.empty((t_total, k))
    for j, seq in enumerate(seq_factors.spawn(k)):
        factors[:, j] = np.random.default_rng(seq).standard_normal(t_total)
    idio = np.empty((t_total, n_gen))
    for j, seq in enumerate(seq_assets.spawn(n_gen)):
        idio[:, j] = np.random.default_rng(seq).standard_normal(t_total)

    c = config.nonlinearity
    signal = factors @ loadings_lin.T
    if c != 0.0:
        signal += (factors ** 3) @ (c * loadings_cub.T)

    offsets = np.tile(np.arange(SESSION_SECONDS, dtype=np.int64), s_count)
    profile = intraday_profile(offsets, config.intraday_amplitude)

    share_path = None
    window_vol = None
    if config.comovement is None:
        scale = np.empty(s_count)
        xi = np.empty(s_count)
        for reg in config.regime_schedule:
            scale[reg.start : reg.stop] = reg.factor_loading_scale
            xi[reg.start : reg.stop] = reg.idiosyncratic_vol
        scale_sec = np.repeat(scale, SESSION_SECONDS)
        xi_sec = np.repeat(xi, SESSION_SECONDS)
        returns = scale_sec[:, None] * signal + xi_sec[:, None] * idio
    else:
        cm = config.comovement
        w_len = cm.window_seconds
        n_windows = t_total // w_len
        # AR(1) in logit space, started from its stationary distribution
        phi = 0.5 ** (1.0 / cm.half_life_windows)
        mu = math.log(cm.mean_share / (1.0 - cm.mean_share))
        rng_share = np.random.default_rng(seq_share)
        eta = rng_share.standard_normal(n_windows)
        x = np.empty(n_windows)
        stationary_sd = cm.share_innovation / math.sqrt(1.0 - phi * phi) if phi < 1 else cm.share_innovation
        x[0] = mu + stationary_sd * eta[0]
        for w in range(1, n_windows):
            x[w] = mu + phi * (x[w - 1] - mu) + cm.share_innovation * eta[w]
        share_path = 1.0 / (1.0 + np.exp(-x))
        lagged = np.concatenate(([cm.mean_share], share_path[:-1]))
        window_vol = np.exp(cm.vol_feedback * (lagged - cm.mean_share))
        # normalize the common signal to unit variance per asset (exact Gaussian moments:
        # Var(a z + b z^3) = a^2 + 6ab + 15b^2 per factor), so the share controls the
        # co-movement mix without moving total variance
        a = loadings_lin
        b = c * loadings_cub
        var_n = np.sum(a * a + 6.0 * a * b + 15.0 * b * b, axis=1)
        if np.any(var_n <= 0):
            raise ValueError("degenerate loadings: zero common-signal variance")
        signal_hat = signal / np.sqrt(var_n)
        s_sec = np.repeat(share_path, w_len)
        vol_sec = np.repeat(window_vol, w_len)
        returns = vol_sec[:, None] * (
            np.sqrt(s_sec)[:, None] * signal_hat + np.sqrt(1.0 - s_sec)[:, None] * idio
        )

    returns *= config.base_vol * profile[:, None]
    if config.market_composite:
        market = returns.mean(axis=1, keepdims=True)
        returns = np.hstack([market, returns])

    # no overnight move: the first second of each session carries no return
    returns[offsets == 0, :] = 0.0
    prices = 100.0 * np.exp(np.cumsum(returns, axis=0))

    timestamps, session_index = synthetic_calendar(config).grid()
    panel = TickPanel(timestamps, prices, default_asset_ids(config.n_assets, config.market_composite), session_index)
    details = SyntheticDetails(loadings_lin, loadings_cub, share_path, window_vol)
    return panel, details


def synthetic_calendar(config: SyntheticMarketConfig) -> SessionCalendar:
    return build_session_calendar(weekday_dates(config.start_date, config.n_sessions))


# ---------------------------------------------------------------------------
# CSV interface: header `timestamp,asset_id,price`


def write_tick_csv(panel: TickPanel, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "asset_id", "price"])
        ts = panel.timestamps
        for j, asset in enumerate(panel.asset_ids):
            col = panel.prices[:, j]
            writer.writerows(zip(ts.tolist(), (asset,) * len(ts), map(repr, col.tolist())))


def _parse_timestamp(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        parsed = dt.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {raw!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=dt.timezone.utc)
    return int(parsed.timestamp())


def _forward_fill(grid: np.ndarray) -> np.ndarray:
    """Forward-fill NaNs; leading NaNs take the first observed value."""
    filled = np.flatnonzero(~np.isnan(grid))
    idx = np.zeros(len(grid), dtype=np.int64)
    idx[filled] = filled
    idx = np.maximum.accumulate(idx)
    out = grid[np.maximum(idx, filled[0])]
    return out


def load_tick_csv(path, calendar: SessionCalendar) -> TickPanel:
    """Load `timestamp,asset_id,price` rows onto the calendar's 1-second grid.

    Timestamps may be epoch seconds or ISO-8601 (auto-detected). Missing seconds are
    forward-filled within the session; rows on excluded dates, unknown dates, or outside
    session hours are dropped; duplicate (second, asset) rows keep the last value.
    """
    date_to_session = {d: i for i, (d, _, _) in enumerate(calendar.sessions)}
    excluded = set(calendar.excluded_dates)
    raw: dict[str, list[tuple[int, int, float]]] = {}

    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["timestamp", "asset_id", "price"]:
            raise ValueError("malformed header: expected timestamp,asset_id,price")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"malformed row at line {lineno}: {row!r}")
            try:
                ts = _parse_timestamp(row[0].strip())
                price = float(row[2])
            except ValueError as exc:
                raise ValueError(f"malformed row at line {lineno}: {exc}") from exc
            if not math.isfinite(price) or price <= 0.0:
                raise ValueError(f"non-positive price at line {lineno}")
            date = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).date()
            if date in excluded:
                continue
            sess = date_to_session.get(date)
            if sess is None:
                continue
            o, c = calendar.open_close(sess)
            if not (o <= ts < c):
                continue
            raw.setdefault(row[1].strip(), []).append((sess, ts - o, price))

    if not raw:
        raise ValueError("no usable rows in CSV")
    asset_ids = tuple(sorted(raw))
    n_sessions = calendar.n_sessions
    prices = np.empty((n_sessions * SESSION_SECONDS, len(asset_ids)))
    for j, asset in enumerate(asset_ids):
        by_session: dict[int, list[tuple[int, float]]] = {}
        for sess, off, price in raw[asset]:
            by_session.setdefault(sess, []).append((off, price))
        for s in range(n_sessions):
            ticks = by_session.get(s)
            if not ticks:
                date = calendar.sessions[s][0]
                raise ValueError(f"asset {asset!r} has no data in session {date.isoformat()}")
            grid = np.full(SESSION_SECONDS, np.nan)
            for off, price in ticks:  # later rows overwrite earlier duplicates
                grid[off] = price
            prices[s * SESSION_SECONDS : (s + 1) * SESSION_SECONDS, j] = _forward_fill(grid)

    timestamps, session_index = calendar.grid()
    return TickPanel(timestamps, prices, asset_ids, session_index)
