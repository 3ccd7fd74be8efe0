"""Trading-session price panels: calendar, synthetic factor-model generator, CSV ingestion.

Everything downstream (returns, realized variance, reconstruction ratios) is defined on the
per-second grid of a session calendar, so this module owns the grid conventions:

* a full session covers 23400 seconds (6.5 hours), grid seconds [open, open + 23400);
* returns never span a session boundary (the first second of a session has no return);
* timestamps are epoch seconds with sessions placed at 09:30-16:00 UTC;
* a panel is session-major: its rows are blocks of consecutive seconds, one block per
  session, and it stores one open epoch per block; a row's timestamp is derived from
  its block's open, never stored.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

SESSION_SECONDS = 23400  # 6.5 hours
SESSION_OPEN_OFFSET = 34200  # 09:30 as seconds from midnight
FIVE_MIN = 300
ONE_HOUR = 3600
ONE_DAY = SESSION_SECONDS
ONE_WEEK = 5 * SESSION_SECONDS
# The supported windows: seconds -> (name, windows ending per session). A session holds
# six whole hours (its last half hour belongs to no hourly window); a week spans five
# sessions and ends at every session close from the fifth.
WINDOWS = {
    FIVE_MIN: ("5min", SESSION_SECONDS // FIVE_MIN),
    ONE_HOUR: ("1hour", SESSION_SECONDS // ONE_HOUR),
    ONE_DAY: ("1day", 1),
    ONE_WEEK: ("1week", 1),
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

    @property
    def opens(self) -> np.ndarray:
        """The open epoch of every session, in order."""
        return np.array([o for _, o, _ in self.sessions], dtype=np.int64)

    def dates(self) -> list[dt.date]:
        return [d for d, _, _ in self.sessions]


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


def check_blocks(opens, n_rows: int) -> np.ndarray:
    """`opens` as read-only int64, once `n_rows` rows split into len(opens) equal blocks of
    consecutive seconds, each block opening after the one before it has ended."""
    opens = np.ascontiguousarray(opens, dtype=np.int64)
    if opens.ndim != 1 or len(opens) == 0 or n_rows % len(opens):
        raise ValueError(f"{n_rows} rows do not split into {len(opens)} equal blocks")
    if np.any(np.diff(opens) < max(n_rows // len(opens), 1)):
        raise ValueError("block opens must increase, and blocks must not overlap")
    opens.setflags(write=False)
    return opens


def block_stamps(opens: np.ndarray, n_rows: int, first: int) -> np.ndarray:
    """The epoch second of each of `n_rows` rows whose blocks start at opens + first."""
    return (opens[:, None] + np.arange(first, first + n_rows // len(opens))).ravel()


@dataclass(frozen=True)
class TickPanel:
    """Per-second prices for N assets, session-major: row j of block s is the price at
    second opens[s] + j. A panel on a calendar has one 23,400-row block per session.

    Immutable: arrays are marked read-only at construction and safe to share.
    """

    opens: np.ndarray  # int64 [S], the first second of each block
    prices: np.ndarray  # float64 [T, N], strictly positive; T a multiple of S
    asset_ids: tuple[str, ...]

    def __post_init__(self):
        px = np.ascontiguousarray(self.prices, dtype=np.float64)
        if px.ndim != 2 or px.shape[1] != len(self.asset_ids):
            raise ValueError("prices must be a 2-D array with one column per asset id")
        # two reductions, no panel-sized mask: a NaN fails min() > 0, an inf fails isfinite
        if px.size and not (px.min() > 0.0 and np.isfinite(px.max())):
            raise ValueError("non-positive price")
        object.__setattr__(self, "opens", check_blocks(self.opens, len(px)))
        px.setflags(write=False)
        object.__setattr__(self, "prices", px)
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]

    @property
    def n_rows(self) -> int:
        return self.prices.shape[0]

    @property
    def timestamps(self) -> np.ndarray:
        """The epoch second of every row."""
        return block_stamps(self.opens, self.n_rows, 0)

    def select_sessions(self, start: int, stop: int, columns=slice(None)) -> "TickPanel":
        """Sessions [start, stop) of the panel's `columns`: a view of its rows when every
        column is kept, else a copy of those sessions alone."""
        per = self.n_rows // len(self.opens)
        rows = self.prices[start * per : stop * per, columns]
        return TickPanel(self.opens[start:stop], rows, self.asset_ids[columns])


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

    seq_loadings, seq_share, seq_factors, seq_assets = np.random.SeedSequence(config.seed).spawn(4)
    rng_loadings = np.random.default_rng(seq_loadings)

    loadings_lin = np.empty((n_gen, k))
    loadings_lin[:, 0] = rng_loadings.uniform(0.5, 1.5, size=n_gen)  # common market factor
    loadings_lin[:, 1:] = rng_loadings.uniform(-1.0, 1.0, size=(n_gen, k - 1))
    loadings_cub = rng_loadings.uniform(-1.0, 1.0, size=(n_gen, k))
    c = config.nonlinearity
    cubic = c * loadings_cub.T
    profile = config.base_vol * intraday_profile(np.arange(SESSION_SECONDS), config.intraday_amplitude)

    share_path = window_vol = None
    if config.comovement is None:
        scale, xi = np.empty((2, s_count))
        for reg in config.regime_schedule:
            scale[reg.start : reg.stop] = reg.factor_loading_scale
            xi[reg.start : reg.stop] = reg.idiosyncratic_vol
    else:
        cm = config.comovement
        w_len = cm.window_seconds
        n_windows = s_count * SESSION_SECONDS // w_len
        # AR(1) in logit space, started from its stationary distribution
        phi = 0.5 ** (1.0 / cm.half_life_windows)
        mu = math.log(cm.mean_share / (1.0 - cm.mean_share))
        eta = np.random.default_rng(seq_share).standard_normal(n_windows)
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
        a, b = loadings_lin, c * loadings_cub
        var_n = np.sum(a * a + 6.0 * a * b + 15.0 * b * b, axis=1)
        if np.any(var_n <= 0):
            raise ValueError("degenerate loadings: zero common-signal variance")
        signal_sd = np.sqrt(var_n)

    # one session at a time: each factor and asset keeps one stream across sessions, so
    # the draws are those of one whole-panel call, and cumsum adds in sequence, so a
    # session that starts from the last log price carries the whole-panel sum bit for bit
    factor_rngs = [np.random.default_rng(seq) for seq in seq_factors.spawn(k)]
    asset_rngs = [np.random.default_rng(seq) for seq in seq_assets.spawn(n_gen)]
    prices = np.empty((s_count * SESSION_SECONDS, config.n_assets))
    log_price = np.zeros(config.n_assets)
    for s, rows in enumerate(prices.reshape(s_count, SESSION_SECONDS, -1)):
        factors = np.stack([rng.standard_normal(SESSION_SECONDS) for rng in factor_rngs], axis=1)
        idio = np.stack([rng.standard_normal(SESSION_SECONDS) for rng in asset_rngs], axis=1)
        signal = factors @ loadings_lin.T
        if c != 0.0:
            signal += (factors ** 3) @ cubic
        if config.comovement is None:
            returns = scale[s] * signal + xi[s] * idio
        else:
            s_sec = np.repeat(share_path.reshape(s_count, -1)[s], w_len)[:, None]
            vol_sec = np.repeat(window_vol.reshape(s_count, -1)[s], w_len)[:, None]
            returns = vol_sec * (np.sqrt(s_sec) * (signal / signal_sd) + np.sqrt(1.0 - s_sec) * idio)
        returns *= profile[:, None]
        if config.market_composite:
            returns = np.hstack([returns.mean(axis=1, keepdims=True), returns])
        # no overnight move: a session's first second carries no return, so it holds the last log price
        returns[0] = log_price
        log_price = np.cumsum(returns, axis=0, out=returns)[-1].copy()
        np.multiply(100.0, np.exp(returns, out=returns), out=rows)

    ids = default_asset_ids(config.n_assets, config.market_composite)
    panel = TickPanel(synthetic_calendar(config).opens, prices, ids)
    return panel, SyntheticDetails(loadings_lin, loadings_cub, share_path, window_vol)


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


def load_tick_csv(path, calendar: SessionCalendar) -> TickPanel:
    """Load `timestamp,asset_id,price` rows onto the calendar's 1-second grid.

    Timestamps may be epoch seconds or ISO-8601 (auto-detected). Missing seconds are
    forward-filled within the session, and a session that opens on a gap takes its first
    print; rows on excluded dates, unknown dates, or outside session hours are dropped;
    duplicate (second, asset) rows keep the last value in file order.
    """
    stamps, names, values = [], [], []
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
            stamps.append(ts)
            names.append(row[1].strip())
            values.append(price)

    # sessions are disjoint and ordered, so a row belongs to the last session opening
    # at or before it, if it falls before that session's close
    opens = calendar.opens
    ts = np.array(stamps, dtype=np.int64)
    session = np.searchsorted(opens, ts, side="right") - 1
    offset = ts - opens[session]
    keep = (session >= 0) & (offset < SESSION_SECONDS)
    if not keep.any():
        raise ValueError("no usable rows in CSV")
    ids, column = np.unique(np.array(names)[keep], return_inverse=True)
    asset_ids = tuple(ids.tolist())
    shape = (calendar.n_sessions, SESSION_SECONDS, len(asset_ids))
    cell = np.ravel_multi_index((session[keep], offset[keep], column), shape)
    # the last row of a cell in file order is the first one met reading backwards
    cells, back = np.unique(cell[::-1], return_index=True)
    grid = np.full(shape, np.nan)
    grid.flat[cells] = np.array(values)[keep][::-1][back]
    seen = ~np.isnan(grid)

    empty = np.argwhere(~seen.any(axis=1).T)  # (asset, session) pairs, asset-major
    if len(empty):
        j, s = empty[0]
        date = calendar.sessions[s][0]
        raise ValueError(f"asset {asset_ids[j]!r} has no data in session {date.isoformat()}")
    # each second takes the latest print at or before it, else the session's first print
    source = np.where(seen, np.arange(SESSION_SECONDS)[:, None], 0)
    np.maximum.accumulate(source, axis=1, out=source)
    np.maximum(source, seen.argmax(axis=1)[:, None, :], out=source)
    prices = np.take_along_axis(grid, source, axis=1).reshape(-1, len(asset_ids))
    return TickPanel(opens, prices, asset_ids)
