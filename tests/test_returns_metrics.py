import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrkit.market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_HOUR,
    ONE_WEEK,
    SESSION_SECONDS,
    TickPanel,
    generate_synthetic_market,
)
from arrkit.returns_metrics import (
    CrashLabels,
    ReturnsPanel,
    RiskSeries,
    crash_labels,
    drawdown,
    ewm_stats,
    five_minute_closes,
    five_minute_sums,
    log_returns,
    realized_variance,
    session_five_minute_sums,
    window_closes,
    window_sums,
    winsorize,
)

from conftest import small_config, whole_panel_window_sums


# ---------------------------------------------------------------------------
# log returns


def test_log_returns_hand_oracle(tiny_panel):
    r = log_returns(tiny_panel, 1)
    logp = np.log(tiny_panel.prices)
    # second row of session 0: r = log p_1 - log p_0
    assert r.returns[0, 0] == pytest.approx(logp[1, 0] - logp[0, 0], abs=0)
    # one return per second except the session's first
    assert len(r.timestamps) == 2 * (SESSION_SECONDS - 1)
    assert np.array_equal(r.opens, tiny_panel.opens)
    # bitwise the per-session differences of the log prices
    per_session = np.vstack([np.diff(logp[s * SESSION_SECONDS : (s + 1) * SESSION_SECONDS], axis=0)
                             for s in range(2)])
    assert np.array_equal(r.returns.view(np.uint64), per_session.view(np.uint64))


@pytest.mark.parametrize("blocks, rows", [(2, SESSION_SECONDS), (3, 7), (1, 2)])
def test_log_returns_match_the_whole_panel_diff_bitwise(blocks, rows):
    """Each session's differences, written one session at a time, equal one np.diff over
    the whole (sessions, seconds, assets) panel."""
    rng = np.random.default_rng(blocks * rows)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(scale=1e-3, size=(blocks * rows, 3)), axis=0))
    panel = TickPanel(34200 + 86400 * np.arange(blocks), prices, ("A", "B", "C"))
    want = np.diff(np.log(prices).reshape(blocks, rows, 3), axis=1).reshape(-1, 3)
    got = log_returns(panel, 1)
    assert got.returns.shape == want.shape
    assert got.returns.tobytes() == want.tobytes()


def test_log_returns_skip_session_boundary(tiny_panel):
    r = log_returns(tiny_panel, 1)
    # no return is computed across the overnight gap: each session's returns end at
    # offsets 1..SESSION_SECONDS-1 from its own open
    offsets = r.timestamps.reshape(2, -1) - tiny_panel.opens[:, None]
    assert np.array_equal(offsets, np.tile(np.arange(1, SESSION_SECONDS), (2, 1)))
    logp = np.log(tiny_panel.prices)
    first = SESSION_SECONDS - 1  # the first return row of session 1
    assert r.returns[first, 0] == logp[SESSION_SECONDS + 1, 0] - logp[SESSION_SECONDS, 0]


def test_log_returns_window_is_price_ratio(tiny_panel):
    r = log_returns(tiny_panel, 1)
    _, hourly = window_sums(five_minute_sums(r.returns), r.opens, ONE_HOUR)
    closes = five_minute_closes(tiny_panel.prices[:, 0], len(tiny_panel.opens))
    stamps, prices = window_closes(closes, tiny_panel.opens, ONE_HOUR)
    open_price = tiny_panel.prices[0, 0]
    expected = np.log(prices[0] / open_price)
    assert hourly[0, 0] == pytest.approx(expected, rel=1e-12)


def test_misaligned_interval_rejected(tiny_panel, tiny_returns):
    with pytest.raises(ValueError, match="misaligned"):
        window_sums(five_minute_sums(tiny_returns.returns), tiny_returns.opens, 7)
    with pytest.raises(ValueError, match="one-second only"):
        log_returns(tiny_panel, FIVE_MIN)  # windows are summed by window_sums


def test_weekly_needs_five_sessions(tiny_returns):
    with pytest.raises(ValueError, match="5 sessions"):
        window_sums(five_minute_sums(tiny_returns.returns), tiny_returns.opens, ONE_WEEK)


# ---------------------------------------------------------------------------
# window sums: the aggregation backbone


@pytest.fixture(scope="module")
def second_grid():
    """Random per-second values on a 6-session grid (offsets 1..23399 per session)."""
    rng = np.random.default_rng(7)
    n_sessions = 6
    opens = np.arange(n_sessions, dtype=np.int64) * 86400 + 34200
    values = rng.standard_normal(n_sessions * (SESSION_SECONDS - 1))
    return opens, values


def test_five_minute_window_layout(second_grid):
    opens, values = second_grid
    stamps, sums = window_sums(five_minute_sums(values), opens, 300)
    assert len(stamps) == 6 * 78  # 78 five-minute windows per session
    # window right edges sit on the 300s grid from the open, 78 in each session
    assert np.all((stamps - 34200) % 300 == 0)
    assert np.array_equal((stamps - 34200) // 86400, np.repeat(np.arange(6), 78))
    # first window of session 0 sums offsets 1..300; the last sums 299 values
    assert sums[0] == np.sum(values[:300])
    assert sums[77] == np.sum(values[77 * 300 : 78 * 300 - 1])


def test_hourly_daily_weekly_bitwise_reaggregation(second_grid):
    opens, values = second_grid
    _, fives = window_sums(five_minute_sums(values), opens, 300)
    _, hours = window_sums(five_minute_sums(values), opens, ONE_HOUR)
    _, days = window_sums(five_minute_sums(values), opens, ONE_DAY)
    _, weeks = window_sums(five_minute_sums(values), opens, ONE_WEEK)
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
    opens, values = second_grid
    _, fives = window_sums(five_minute_sums(values), opens, 300)
    stamps, rolled = window_sums(five_minute_sums(values), opens, ONE_WEEK)
    assert len(stamps) == 2  # sessions 4 and 5 complete a trailing week
    assert rolled[0] == np.sum(fives[: 5 * 78])
    assert rolled[1] == np.sum(fives[78 : 6 * 78])
    assert np.array_equal(stamps, opens[4:] + ONE_DAY)  # each at its session's close


def test_window_sums_incomplete_session(second_grid):
    with pytest.raises(ValueError, match="incomplete session"):
        window_sums(five_minute_sums(np.ones(99)), np.array([34200]), ONE_HOUR)
    opens, values = second_grid
    with pytest.raises(ValueError, match="five-minute sums of 5 sessions"):
        window_sums(five_minute_sums(values), opens[:5], ONE_HOUR)  # one session too many
    with pytest.raises(ValueError, match="five-minute sums of 6 sessions"):
        window_sums(values, opens, ONE_HOUR)  # one-second values, not their sums


def test_window_sums_rejects_other_windows_and_coarse_grids(second_grid, tiny_returns):
    opens, values = second_grid
    with pytest.raises(ValueError, match="misaligned"):
        window_sums(five_minute_sums(values), opens, 900)  # divides the session, but is not supported
    _, fives = window_sums(five_minute_sums(tiny_returns.returns), tiny_returns.opens, FIVE_MIN)
    with pytest.raises(ValueError, match="incomplete session"):
        window_sums(five_minute_sums(fives), tiny_returns.opens, ONE_HOUR)


@pytest.fixture(scope="module")
def week_panel():
    """3 assets x 6 sessions: two weeks, ending at the closes of sessions 4 and 5."""
    return generate_synthetic_market(small_config(n_assets=3, n_sessions=6, seed=5))


def _window_oracle(panel, window):
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
        ends = range(4, n)
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
    "window,overlapping",
    [(FIVE_MIN, False), (ONE_HOUR, False), (ONE_DAY, False), (ONE_WEEK, True)],
)
def test_log_returns_windows_match_slice_oracle_bitwise(week_panel, window, overlapping):
    """Window sums equal np.sum slices bit for bit; only the weeks overlap (their lengths
    add up to more than the panel's six sessions)."""
    per_second = log_returns(week_panel, 1)
    got_stamps, got = window_sums(five_minute_sums(per_second.returns), per_second.opens, window)
    stamps, sums = _window_oracle(week_panel, window)
    assert np.array_equal(got_stamps, stamps)
    assert (len(stamps) * window > 6 * SESSION_SECONDS) is overlapping
    assert got.shape == sums.shape == (len(stamps), 3)
    assert np.array_equal(got.view(np.uint64), sums.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(
    n_sessions=st.integers(1, 7),
    n_assets=st.integers(1, 3),
    one_dimensional=st.booleans(),
    squared=st.booleans(),
    flat_stretch=st.booleans(),
    window=st.sampled_from([FIVE_MIN, ONE_HOUR, ONE_DAY, ONE_WEEK]),
    seed=st.integers(0, 2**16),
)
def test_session_five_minute_sums_match_the_whole_panel_oracle_bitwise(
    n_sessions, n_assets, one_dimensional, squared, flat_stretch, window, seed
):
    """Five-minute sums made one session at a time, then summed into each window, equal
    the whole-panel window sums bit for bit, for [T] and [T, N] values alike."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=1e-3, size=(n_sessions * SESSION_SECONDS, n_assets))
    if flat_stretch:  # runs of exactly zero returns
        steps[rng.integers(0, len(steps) - 900) :][:900] = 0.0
    prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
    opens = 34200 + 86400 * np.arange(n_sessions, dtype=np.int64)
    panel = TickPanel(opens, prices, tuple("ABC"[:n_assets]))

    def per_second(returns):
        r = returns.returns[:, 0] if one_dimensional else returns.returns
        return (r * r if squared else r,)

    whole = per_second(log_returns(panel, 1))[0]
    (fives,) = session_five_minute_sums(panel, per_second)
    assert fives.shape == (n_sessions, 78) + whole.shape[1:]
    if window == ONE_WEEK and n_sessions < 5:
        with pytest.raises(ValueError, match="need 5 sessions"):
            window_sums(fives, opens, window)
        return
    stamps, sums = whole_panel_window_sums(whole, opens, window)
    got_stamps, got = window_sums(fives, opens, window)
    assert np.array_equal(got_stamps, stamps)
    assert got.shape == sums.shape
    assert got.tobytes() == sums.tobytes()


def test_session_five_minute_sums_take_row_views_of_the_chosen_columns(week_panel):
    seen = []

    def per_second(returns):
        seen.append((returns.asset_ids, returns.opens.tolist(), len(returns.returns)))
        return returns.returns[:, 0], returns.returns

    first, both = session_five_minute_sums(week_panel, per_second, slice(1, None))
    assert seen == [(week_panel.asset_ids[1:], [o], SESSION_SECONDS - 1) for o in week_panel.opens]
    assert first.shape == (6, 78) and both.shape == (6, 78, 2)
    whole = log_returns(week_panel, 1).returns[:, 1:]
    assert both.tobytes() == five_minute_sums(whole).tobytes()


# every supported window that partitions the session; the 1-hour grid is excluded on
# purpose (its half-hour stub belongs to no window, so it does not partition the session)
@settings(max_examples=10, deadline=None)
@given(window=st.sampled_from([300, ONE_DAY]))
def test_window_partition_additivity(window):
    rng = np.random.default_rng(99)
    values = rng.standard_normal(SESSION_SECONDS - 1)
    _, sums = window_sums(five_minute_sums(values), np.array([34200]), window)
    assert len(sums) == SESSION_SECONDS // window
    assert np.isclose(np.sum(sums), np.sum(values), rtol=1e-12)


def test_hourly_windows_exclude_half_hour_stub(second_grid):
    opens, values = second_grid
    stamps, sums = window_sums(five_minute_sums(values), opens, ONE_HOUR)
    assert len(sums) == 6 * 6  # six complete hours per session
    # the last hourly edge sits 30 minutes before the close
    assert (stamps[5] - 34200) % 86400 == 6 * ONE_HOUR


# ---------------------------------------------------------------------------
# realized variance


def _squared_fives(returns):
    """Five-minute sums of the first asset's squared returns."""
    col = returns.returns[:, 0]
    return five_minute_sums(col * col)


def test_rv_is_sum_of_squares(tiny_returns):
    squared = _squared_fives(tiny_returns)
    stamps, rv = window_sums(squared, tiny_returns.opens, 300)
    col = tiny_returns.returns[:, 0]
    assert rv[0] == np.sum(col[:300] ** 2)  # bitwise: same slice, same reduction
    series = realized_variance(squared, tiny_returns.opens, 300)
    assert np.array_equal(series.timestamps, stamps[rv > 0])
    assert series.values.tobytes() == np.log(rv[rv > 0]).tobytes()


def test_rv_additivity_bitwise(tiny_returns):
    squared = _squared_fives(tiny_returns)
    _, fives = window_sums(squared, tiny_returns.opens, 300)
    _, daily = window_sums(squared, tiny_returns.opens, ONE_DAY)
    assert daily[0] == np.sum(fives[:78])
    assert daily[1] == np.sum(fives[78:])


def test_log_rv_drops_zero_windows():
    values = np.zeros((SESSION_SECONDS - 1, 1))
    values[500, 0] = 0.01  # only the second five-minute window moves
    panel = ReturnsPanel(np.array([34200]), values, ("Z",))
    series = realized_variance(_squared_fives(panel), panel.opens, 300)
    assert len(series.values) == 1
    assert series.values[0] == pytest.approx(np.log(0.01**2), rel=1e-12)
    assert series.kind == "log_rv"


def test_realized_variance_refuses_one_second_values(tiny_returns):
    col = tiny_returns.returns[:, 0]
    with pytest.raises(ValueError, match="five-minute sums of 2 sessions"):
        realized_variance(col * col, tiny_returns.opens, 300)


# ---------------------------------------------------------------------------
# drawdown


def test_drawdown_hand_oracle():
    prices = np.array([100.0, 110.0, 99.0, 104.5, 120.0, 90.0])
    series = drawdown(np.arange(6), prices)
    expected = np.array([0.0, 0.0, 1 - 99 / 110, 1 - 104.5 / 110, 0.0, 0.25])
    assert np.allclose(series.values, expected, atol=1e-15)
    assert series.kind == "drawdown"


def test_drawdown_bounds(tiny_panel):
    closes = five_minute_closes(tiny_panel.prices[:, 1], len(tiny_panel.opens))
    series = drawdown(*window_closes(closes, tiny_panel.opens, FIVE_MIN))
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
    series = RiskSeries(np.arange(n, dtype=np.int64), rng.standard_normal(n), "return")
    labels = crash_labels(series, half_life=10.0, threshold=-1.5)
    warm = int(np.ceil(3 * 10.0))
    assert labels.timestamps[0] == warm  # first ceil(3*lambda) stamps excluded
    assert np.array_equal(labels.labels, (labels.zscores < -1.5).astype(np.int64))
    assert labels.half_life == 10.0 and labels.threshold == -1.5


def test_crash_labels_zero_std_excluded():
    vals = np.concatenate([np.zeros(40), [1.0], np.zeros(10)])
    series = RiskSeries(np.arange(51, dtype=np.int64), vals, "return")
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


_WINSOR_LEVELS = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, np.inf, -np.inf, np.nan])


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 2000),
    st.integers(1, len(_WINSOR_LEVELS)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.01, 0.5]),
    st.floats(0.0, 1.0) | st.sampled_from([0.5, 0.99, 1.0]),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 0.0, 0.0, 1.0, 0)
@example(500, 1, 1.0, 0.01, 0.99, 0)
@example(40, 2, 0.0, 0.05, 0.5, 3)  # only +-0.0: the bound's sign must match too
def test_winsorize_percentile_oracle(n, n_levels, continuous_share, lower, upper, seed):
    """Bitwise np.percentile's bounds, on ties, +-0.0, +-inf and NaN alike."""
    if not lower < upper:
        lower, upper = (0.0, 1.0) if lower == upper else (upper, lower)
    rng = np.random.default_rng(seed)
    x = rng.choice(_WINSOR_LEVELS[:n_levels], size=n)
    x = np.where(rng.random(n) < continuous_share, rng.standard_normal(n), x)
    with np.errstate(invalid="ignore"):  # inf - inf in np.percentile's interpolation
        lo, hi = np.percentile(x, [100.0 * lower, 100.0 * upper])
        out = winsorize(x, lower, upper)
    want = np.clip(x, lo, hi)
    assert np.array_equal(np.isnan(out), np.isnan(want))
    assert out[~np.isnan(out)].tobytes() == want[~np.isnan(want)].tobytes()


def test_winsorize_full_range_is_identity(rng):
    x = rng.standard_normal(500)
    out = winsorize(x, 0.01, 0.99)
    assert np.array_equal(winsorize(out, 0.0, 1.0), out)


def test_winsorize_validates_bounds():
    with pytest.raises(ValueError):
        winsorize(np.arange(5.0), 0.9, 0.1)


# ---------------------------------------------------------------------------
# series containers and CSV export


def test_risk_series_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        RiskSeries(np.array([1]), np.array([0.5]), "mystery")
    with pytest.raises(ValueError):
        RiskSeries(np.array([1]), np.array([-0.5]), "drawdown")  # negative drawdown


def test_returns_panel_select_sessions(tiny_returns):
    sub = tiny_returns.select_sessions(1, 2)
    assert np.array_equal(sub.opens, tiny_returns.opens[1:])
    assert len(sub.timestamps) == SESSION_SECONDS - 1
    assert np.array_equal(sub.timestamps, tiny_returns.timestamps[SESSION_SECONDS - 1 :])
    # a row slice: a view of the panel's returns, not a copy
    assert np.shares_memory(sub.returns, tiny_returns.returns)
    assert np.array_equal(sub.returns, tiny_returns.returns[SESSION_SECONDS - 1 :])
    assert tiny_returns.select_sessions(0, 9).returns.shape == tiny_returns.returns.shape
    with pytest.raises(ValueError, match="no rows in session range"):
        tiny_returns.select_sessions(2, 4)
