import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrkit.market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_HOUR,
    ONE_WEEK,
    SESSION_SECONDS,
    generate_synthetic_market,
)
from arrkit.returns_metrics import (
    CrashLabels,
    ReturnsPanel,
    RiskSeries,
    asset_return_series,
    crash_labels,
    drawdown,
    ewm_stats,
    log_returns,
    realized_variance,
    realized_variance_windows,
    sample_price_series,
    window_sums,
    winsorize,
)

from conftest import small_config


# ---------------------------------------------------------------------------
# log returns


def test_log_returns_hand_oracle(tiny_panel):
    r = log_returns(tiny_panel, 1)
    logp = np.log(tiny_panel.prices)
    # second row of session 0: r = log p_1 - log p_0
    assert r.returns[0, 0] == pytest.approx(logp[1, 0] - logp[0, 0], abs=0)
    # one return per second except the session's first
    assert len(r.timestamps) == 2 * (SESSION_SECONDS - 1)
    assert r.interval == 1


def test_log_returns_skip_session_boundary(tiny_panel):
    r = log_returns(tiny_panel, 1)
    # no return is computed across the overnight gap
    per_session = np.bincount(r.session_index)
    assert list(per_session) == [SESSION_SECONDS - 1, SESSION_SECONDS - 1]


def test_log_returns_window_is_price_ratio(tiny_panel):
    hourly = log_returns(tiny_panel, ONE_HOUR)
    stamps, prices = sample_price_series(tiny_panel, ONE_HOUR, tiny_panel.asset_ids[0])
    open_price = tiny_panel.prices[0, 0]
    expected = np.log(prices[0] / open_price)
    assert hourly.returns[0, 0] == pytest.approx(expected, rel=1e-12)


def test_misaligned_interval_rejected(tiny_panel):
    with pytest.raises(ValueError, match="misaligned"):
        log_returns(tiny_panel, 7)


def test_weekly_needs_five_sessions(tiny_panel):
    with pytest.raises(ValueError, match="5 sessions"):
        log_returns(tiny_panel, ONE_WEEK)


# ---------------------------------------------------------------------------
# window sums: the aggregation backbone


@pytest.fixture(scope="module")
def second_grid():
    """Random per-second values on a 6-session grid (offsets 1..23399 per session)."""
    rng = np.random.default_rng(7)
    n_sessions = 6
    per = SESSION_SECONDS - 1
    offsets = np.tile(np.arange(1, SESSION_SECONDS, dtype=np.int64), n_sessions)
    day = np.repeat(np.arange(n_sessions, dtype=np.int64), per)
    ts = day * 86400 + offsets + 34200
    values = rng.standard_normal(n_sessions * per)
    return ts, values, day


def test_five_minute_window_layout(second_grid):
    ts, values, day = second_grid
    stamps, sums, sess = window_sums(values, ts, day, 300)
    assert len(stamps) == 6 * 78  # 78 five-minute windows per session
    # window right edges sit on the 300s grid from the open
    assert np.all((stamps - 34200) % 300 == 0)
    # first window of session 0 sums offsets 1..300; the last sums 299 values
    assert sums[0] == np.sum(values[:300])
    assert sums[77] == np.sum(values[77 * 300 : 78 * 300 - 1])


def test_hourly_daily_weekly_bitwise_reaggregation(second_grid):
    ts, values, day = second_grid
    _, fives, _ = window_sums(values, ts, day, 300)
    _, hours, _ = window_sums(values, ts, day, ONE_HOUR)
    _, days, _ = window_sums(values, ts, day, ONE_DAY)
    _, weeks, _ = window_sums(values, ts, day, ONE_WEEK)
    per_day = fives.reshape(6, 78)
    # hourly windows are the first 6x12 five-minute buckets of each session, then a
    # half-hour stub that belongs to no hourly window
    for d in range(6):
        for h in range(6):
            oracle = np.sum(per_day[d, h * 12 : (h + 1) * 12])
            assert hours[d * 6 + h] == oracle  # bitwise
    for d in range(6):
        assert days[d] == np.sum(per_day[d])  # bitwise
    assert weeks[0] == np.sum(fives[: 5 * 78])  # bitwise


def test_rolling_weekly_windows(second_grid):
    ts, values, day = second_grid
    _, fives, _ = window_sums(values, ts, day, 300)
    stamps, rolled, sess = window_sums(values, ts, day, ONE_WEEK, rolling_weekly=True)
    assert len(stamps) == 2  # sessions 4 and 5 complete a trailing week
    assert rolled[0] == np.sum(fives[: 5 * 78])
    assert rolled[1] == np.sum(fives[78 : 6 * 78])
    assert list(sess) == [4, 5]


def test_window_sums_incomplete_session():
    ts = np.arange(1, 100, dtype=np.int64) + 34200
    with pytest.raises(ValueError, match="incomplete session"):
        window_sums(np.ones(99), ts, np.zeros(99, dtype=np.int64), ONE_HOUR)


def test_window_sums_rejects_other_windows_and_coarse_grids(second_grid, tiny_panel):
    ts, values, day = second_grid
    with pytest.raises(ValueError, match="misaligned"):
        window_sums(values, ts, day, 900)  # divides the session, but is not a supported window
    fives = log_returns(tiny_panel, FIVE_MIN)
    with pytest.raises(ValueError, match="incomplete session"):
        window_sums(fives.returns, fives.timestamps, fives.session_index, ONE_HOUR)


@pytest.fixture(scope="module")
def week_panel():
    """3 assets x 6 sessions: two rolling weeks and one blocked week."""
    return generate_synthetic_market(small_config(n_assets=3, n_sessions=6, seed=5))


def _window_oracle(panel, window, rolling_weekly):
    """Stamps and per-window np.sum slices: a 5-minute window sums its one-second returns,
    and a coarser window sums its 5-minute windows."""
    per_second = log_returns(panel, 1).returns
    per = SESSION_SECONDS - 1
    opens = panel.timestamps[::SESSION_SECONDS]
    n, per_day = len(opens), SESSION_SECONDS // FIVE_MIN
    fives = np.array([
        np.sum(per_second[s * per + lo : s * per + min(lo + FIVE_MIN, per)], axis=0)
        for s in range(n) for lo in range(0, per, FIVE_MIN)
    ])
    if window == ONE_WEEK:
        ends = range(4, n, 1 if rolling_weekly else 5)
        stamps = [opens[e] + ONE_DAY for e in ends]
        sums = [np.sum(fives[(e - 4) * per_day : (e + 1) * per_day], axis=0) for e in ends]
        return np.array(stamps), np.array(sums)
    group, stamps, sums = window // FIVE_MIN, [], []
    for s in range(n):
        for k in range(SESSION_SECONDS // window):
            stamps.append(opens[s] + (k + 1) * window)
            lo = s * per_day + k * group
            sums.append(np.sum(fives[lo : lo + group], axis=0))
    return np.array(stamps), np.array(sums)


@pytest.mark.parametrize(
    "window,rolling",
    [(FIVE_MIN, False), (ONE_HOUR, False), (ONE_DAY, False), (ONE_WEEK, False), (ONE_WEEK, True)],
)
def test_log_returns_windows_match_slice_oracle_bitwise(week_panel, window, rolling):
    got = log_returns(week_panel, window, rolling_weekly=rolling)
    stamps, sums = _window_oracle(week_panel, window, rolling)
    assert np.array_equal(got.timestamps, stamps)
    assert got.returns.shape == sums.shape == (len(stamps), 3)
    assert np.array_equal(got.returns.view(np.uint64), sums.view(np.uint64))


# every supported window that partitions the session; the 1-hour grid is excluded on
# purpose (its half-hour stub belongs to no window, so it does not partition the session)
@settings(max_examples=10, deadline=None)
@given(window=st.sampled_from([300, ONE_DAY]))
def test_window_partition_additivity(window):
    rng = np.random.default_rng(99)
    per = SESSION_SECONDS - 1
    ts = np.arange(1, SESSION_SECONDS, dtype=np.int64) + 34200
    day = np.zeros(per, dtype=np.int64)
    values = rng.standard_normal(per)
    _, sums, _ = window_sums(values, ts, day, window)
    assert len(sums) == SESSION_SECONDS // window
    assert np.isclose(np.sum(sums), np.sum(values), rtol=1e-12)


def test_hourly_windows_exclude_half_hour_stub(second_grid):
    ts, values, day = second_grid
    stamps, sums, _ = window_sums(values, ts, day, ONE_HOUR)
    assert len(sums) == 6 * 6  # six complete hours per session
    # the last hourly edge sits 30 minutes before the close
    assert (stamps[5] - 34200) % 86400 == 6 * ONE_HOUR


# ---------------------------------------------------------------------------
# realized variance


def test_rv_is_sum_of_squares(tiny_returns):
    asset = tiny_returns.asset_ids[0]
    stamps, rv = realized_variance_windows(tiny_returns, 300, asset)
    col = tiny_returns.column(asset)
    assert rv[0] == np.sum(col[:300] ** 2)  # bitwise: same slice, same reduction


def test_rv_additivity_bitwise(tiny_returns):
    asset = tiny_returns.asset_ids[0]
    _, fives = realized_variance_windows(tiny_returns, 300, asset)
    _, daily = realized_variance_windows(tiny_returns, ONE_DAY, asset)
    assert daily[0] == np.sum(fives[:78])
    assert daily[1] == np.sum(fives[78:])


def test_log_rv_drops_zero_windows():
    ts = np.arange(1, SESSION_SECONDS, dtype=np.int64) + 34200
    day = np.zeros(SESSION_SECONDS - 1, dtype=np.int64)
    values = np.zeros((SESSION_SECONDS - 1, 1))
    values[500, 0] = 0.01  # only the second five-minute window moves
    panel = ReturnsPanel(ts, values, ("Z",), 1, day)
    series = realized_variance(panel, 300, "Z")
    assert len(series.values) == 1
    assert series.values[0] == pytest.approx(np.log(0.01**2), rel=1e-12)
    assert series.kind == "log_rv"


def test_rv_multi_asset_requires_id(tiny_returns):
    with pytest.raises(ValueError, match="asset_id"):
        realized_variance_windows(tiny_returns, 300)


# ---------------------------------------------------------------------------
# drawdown


def test_drawdown_hand_oracle():
    prices = np.array([100.0, 110.0, 99.0, 104.5, 120.0, 90.0])
    series = drawdown(np.arange(6), prices)
    expected = np.array([0.0, 0.0, 1 - 99 / 110, 1 - 104.5 / 110, 0.0, 0.25])
    assert np.allclose(series.values, expected, atol=1e-15)
    assert series.kind == "drawdown"


def test_drawdown_bounds(tiny_panel):
    stamps, prices = sample_price_series(tiny_panel, 300, tiny_panel.asset_ids[1])
    series = drawdown(stamps, prices, 300)
    assert np.all(series.values >= 0.0) and np.all(series.values < 1.0)


def test_drawdown_rejects_nonpositive():
    with pytest.raises(ValueError, match="price"):
        drawdown(np.arange(3), np.array([1.0, -2.0, 3.0]))


# ---------------------------------------------------------------------------
# EWMA


def test_ewm_matches_direct_weighted_mean(rng):
    x = rng.standard_normal(40)
    lam = 7.0
    mean, std = ewm_stats(x, lam)
    delta = np.exp(-np.log(2.0) / lam)
    for t in (0, 3, 17, 39):
        w = delta ** np.arange(t, -1, -1.0)
        m = np.sum(w * x[: t + 1]) / np.sum(w)
        v = np.sum(w * (x[: t + 1] - m) ** 2) / np.sum(w)
        assert mean[t] == pytest.approx(m, abs=1e-12)
        assert std[t] == pytest.approx(np.sqrt(v), abs=1e-12)


def test_ewm_half_life_property():
    # an observation half_life steps old carries exactly half the current weight
    lam = 10
    x = np.zeros(lam + 1)
    x[0] = 1.0
    mean, _ = ewm_stats(x, float(lam))
    delta = np.exp(-np.log(2.0) / lam)
    total = lambda t: (1 - delta ** (t + 1)) / (1 - delta)
    numerator_now = mean[0] * total(0)
    numerator_then = mean[lam] * total(lam)
    assert abs(numerator_then / numerator_now - 0.5) < 1e-12


def test_ewm_constant_is_exact():
    mean, std = ewm_stats(np.full(25, 3.25), 5.0)
    assert np.all(mean == 3.25)
    assert np.all(std == 0.0)


def test_ewm_needs_two_observations():
    with pytest.raises(ValueError):
        ewm_stats(np.array([1.0]), 5.0)


# ---------------------------------------------------------------------------
# crash labels


def test_crash_labels_warmup_and_consistency(rng):
    n = 200
    series = RiskSeries(np.arange(n, dtype=np.int64), rng.standard_normal(n), "return", ONE_DAY)
    labels = crash_labels(series, half_life=10.0, threshold=-1.5)
    warm = int(np.ceil(3 * 10.0))
    assert labels.timestamps[0] == warm  # first ceil(3*lambda) stamps excluded
    assert np.array_equal(labels.labels, (labels.zscores < -1.5).astype(np.int64))
    assert labels.half_life == 10.0 and labels.threshold == -1.5


def test_crash_labels_zero_std_excluded():
    vals = np.concatenate([np.zeros(40), [1.0], np.zeros(10)])
    series = RiskSeries(np.arange(51, dtype=np.int64), vals, "return", ONE_DAY)
    labels = crash_labels(series, half_life=5.0, threshold=-1.5)
    warm = int(np.ceil(15.0))
    # stamps 15..39 have zero EWMA std and are dropped
    assert labels.timestamps[0] >= 40
    assert len(labels.timestamps) > 0


def test_crash_label_invariant_enforced():
    with pytest.raises(ValueError):
        CrashLabels(
            np.array([0, 1]), np.array([1, 1]), np.array([-2.0, 0.0]), 10.0, -1.5
        )


# ---------------------------------------------------------------------------
# winsorize


def test_winsorize_percentile_oracle(rng):
    x = rng.standard_normal(500)
    out = winsorize(x, 0.01, 0.99)
    lo, hi = np.percentile(x, [1.0, 99.0])
    assert np.array_equal(out, np.clip(x, lo, hi))
    assert np.array_equal(winsorize(out, 0.0, 1.0), out)  # full range is identity


def test_winsorize_validates_bounds():
    with pytest.raises(ValueError):
        winsorize(np.arange(5.0), 0.9, 0.1)


# ---------------------------------------------------------------------------
# series containers and CSV export


def test_risk_series_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        RiskSeries(np.array([1]), np.array([0.5]), "mystery", 300)
    with pytest.raises(ValueError):
        RiskSeries(np.array([1]), np.array([-0.5]), "drawdown", 300)  # negative drawdown


def test_asset_return_series(tiny_returns):
    asset = tiny_returns.asset_ids[2]
    series = asset_return_series(tiny_returns, asset)
    assert np.array_equal(series.values, tiny_returns.column(asset))
    assert series.kind == "return"


def test_returns_panel_select_sessions(tiny_returns):
    sub = tiny_returns.select_sessions(1, 2)
    assert sub.session_index.max() == 0
    assert len(sub.timestamps) == SESSION_SECONDS - 1
