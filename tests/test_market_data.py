import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrkit.market_data import (
    ONE_DAY,
    ONE_WEEK,
    SESSION_OPEN_OFFSET,
    SESSION_SECONDS,
    CoMovementSpec,
    RegimeSpec,
    SyntheticDetails,
    TickPanel,
    build_session_calendar,
    default_asset_ids,
    generate_synthetic_market,
    generate_synthetic_market_details,
    intraday_profile,
    load_tick_csv,
    synthetic_calendar,
    weekday_dates,
    write_tick_csv,
)

from conftest import comovement_config, small_config, traced_peak


def test_grid_constants():
    assert SESSION_SECONDS == 23400
    assert SESSION_OPEN_OFFSET == 34200  # 09:30 UTC
    assert ONE_DAY == SESSION_SECONDS
    assert ONE_WEEK == 5 * SESSION_SECONDS


def test_weekday_dates_skip_weekends():
    dates = weekday_dates(dt.date(2012, 1, 6), 4)  # a Friday
    assert dates == [
        dt.date(2012, 1, 6),
        dt.date(2012, 1, 9),
        dt.date(2012, 1, 10),
        dt.date(2012, 1, 11),
    ]
    assert all(d.weekday() < 5 for d in dates)


def test_calendar_open_close_epochs():
    cal = build_session_calendar([dt.date(2012, 1, 2)])
    _, open_epoch, close_epoch = cal.sessions[0]
    midnight = int(dt.datetime(2012, 1, 2, tzinfo=dt.timezone.utc).timestamp())
    assert open_epoch == midnight + SESSION_OPEN_OFFSET
    assert close_epoch == open_epoch + SESSION_SECONDS


def test_calendar_excludes_half_days():
    days = [dt.date(2012, 1, 2), dt.date(2012, 1, 3), dt.date(2012, 1, 4)]
    cal = build_session_calendar(days, [dt.date(2012, 1, 3)])
    assert cal.n_sessions == 2
    assert cal.dates() == [dt.date(2012, 1, 2), dt.date(2012, 1, 4)]
    assert cal.excluded_dates == (dt.date(2012, 1, 3),)


class TestTickPanelValidation:
    def _args(self):
        opens = np.array([34200, 34300], dtype=np.int64)  # two 50-second blocks
        prices = np.full((100, 2), 50.0)
        return opens, prices, ("A", "B")

    def test_accepts_clean_panel(self):
        panel = TickPanel(*self._args())
        assert panel.n_assets == 2 and panel.n_rows == 100
        assert not panel.prices.flags.writeable and not panel.opens.flags.writeable
        expected = np.concatenate([34200 + np.arange(50), 34300 + np.arange(50)])
        assert np.array_equal(panel.timestamps, expected)
        abutting = TickPanel(np.array([34200, 34250]), panel.prices, panel.asset_ids)
        assert np.array_equal(abutting.timestamps, 34200 + np.arange(100))

    def test_rejects_rows_that_do_not_split_into_the_blocks(self):
        opens, prices, ids = self._args()
        with pytest.raises(ValueError, match="do not split into 3 equal blocks"):
            TickPanel(np.array([0, 100, 200]), prices, ids)
        with pytest.raises(ValueError, match="do not split into 0 equal blocks"):
            TickPanel(np.array([], dtype=np.int64), prices, ids)

    @pytest.mark.parametrize("opens", [[34300, 34200], [34200, 34200], [34200, 34249]],
                             ids=["decreasing", "repeated", "overlapping"])
    def test_rejects_opens_out_of_order_or_overlapping(self, opens):
        _, prices, ids = self._args()
        with pytest.raises(ValueError, match="must not overlap"):
            TickPanel(np.array(opens), prices, ids)

    def test_rejects_nonpositive_price(self):
        opens, prices, ids = self._args()
        prices = prices.copy()
        prices[3, 1] = 0.0
        with pytest.raises(ValueError, match="price"):
            TickPanel(opens, prices, ids)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                             ids=["nan", "inf", "minus-inf", "zero", "negative"])
    def test_rejects_each_bad_price_without_a_panel_sized_mask(self, bad):
        opens, prices, ids = self._args()
        prices = prices.copy()
        prices[57, 0] = bad
        with pytest.raises(ValueError, match="non-positive price"):
            TickPanel(opens, prices, ids)
        # the price check comes before the block check, as it always has
        with pytest.raises(ValueError, match="non-positive price"):
            TickPanel(np.array([0, 100, 200]), prices, ids)

    def test_accepts_an_empty_panel_as_before(self):
        panel = TickPanel(np.array([34200]), np.empty((0, 2)), ("A", "B"))
        assert panel.n_rows == 0 and panel.n_assets == 2

    def test_rejects_shape_mismatch(self):
        opens, prices, ids = self._args()
        with pytest.raises(ValueError):
            TickPanel(opens, prices, ("A",))
        with pytest.raises(ValueError, match="2-D array"):
            TickPanel(opens, np.full(100, np.nan), ("A",))  # the shape check comes first

    def test_select_sessions_is_a_row_view(self):
        opens, prices, ids = self._args()
        panel = TickPanel(opens, prices, ids)
        second = panel.select_sessions(1, 2)
        assert np.shares_memory(second.prices, panel.prices)
        assert np.array_equal(second.opens, [34300])
        assert np.array_equal(second.timestamps, 34300 + np.arange(50))
        column = panel.select_sessions(0, 2, slice(1, None))  # a column slice is a copy
        assert column.asset_ids == ("B",) and column.n_rows == 100
        assert np.array_equal(column.prices, prices[:, 1:])
        with pytest.raises(ValueError, match="0 equal blocks"):
            panel.select_sessions(2, 3)


def test_generator_shape_and_grid(tiny_panel, tiny_calendar):
    assert tiny_panel.n_assets == 5
    assert tiny_panel.n_rows == 2 * SESSION_SECONDS
    # per-second grid within each session, 09:30 open
    assert (tiny_panel.timestamps[0] - SESSION_OPEN_OFFSET) % 86400 == 0
    offsets = tiny_panel.timestamps - tiny_panel.timestamps[0]
    assert offsets[SESSION_SECONDS - 1] == SESSION_SECONDS - 1
    # one block per calendar session: the stamps are the calendar's per-second grid
    assert np.array_equal(tiny_panel.opens, tiny_calendar.opens)
    per_second = tiny_calendar.opens[:, None] + np.arange(SESSION_SECONDS)
    assert np.array_equal(tiny_panel.timestamps, per_second.ravel())


def test_generator_no_overnight_move(tiny_panel):
    # the first print of a session equals the previous close: log-return zero
    first_of_second_session = SESSION_SECONDS
    assert np.allclose(
        tiny_panel.prices[first_of_second_session],
        tiny_panel.prices[first_of_second_session - 1],
    )


def test_generator_deterministic():
    a = generate_synthetic_market(small_config(seed=7))
    b = generate_synthetic_market(small_config(seed=7))
    assert np.array_equal(a.prices, b.prices)
    c = generate_synthetic_market(small_config(seed=8))
    assert not np.array_equal(a.prices, c.prices)


def test_market_composite_is_mean_of_sectors():
    cfg = small_config(n_assets=6, market_composite=True)
    panel = generate_synthetic_market(cfg)
    logp = np.log(panel.prices)
    returns = np.diff(logp, axis=0)
    assert np.allclose(returns[:, 0], returns[:, 1:].mean(axis=1), atol=1e-12)
    assert panel.asset_ids[0] == default_asset_ids(6, True)[0]


def test_comovement_requires_single_regime():
    cfg = comovement_config()
    with pytest.raises(ValueError, match="single regime"):
        generate_synthetic_market(
            small_config(
                n_sessions=4,
                regime_schedule=(RegimeSpec(0, 2, 1.0, 0.5), RegimeSpec(2, 4, 0.5, 1.0)),
                comovement=cfg.comovement,
            )
        )


def test_comovement_details_paths():
    cfg = comovement_config(n_sessions=2)
    _, details = generate_synthetic_market_details(cfg)
    n_windows = 2 * SESSION_SECONDS // 300
    assert details.share_path.shape == (n_windows,)
    assert np.all((details.share_path > 0) & (details.share_path < 1))
    assert details.window_vol.shape == (n_windows,)
    assert np.all(details.window_vol > 0)


def _whole_panel_generator(config):
    """The generator as it was before it built the panel one session at a time: every
    draw, signal and return of the panel held at once."""
    config.validate()
    n_gen = config.n_assets - (1 if config.market_composite else 0)
    k = config.n_factors
    s_count = config.n_sessions
    t_total = s_count * SESSION_SECONDS
    seq_loadings, seq_share, seq_factors, seq_assets = np.random.SeedSequence(config.seed).spawn(4)
    rng_loadings = np.random.default_rng(seq_loadings)
    loadings_lin = np.empty((n_gen, k))
    loadings_lin[:, 0] = rng_loadings.uniform(0.5, 1.5, size=n_gen)
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
    profile = np.tile(intraday_profile(np.arange(SESSION_SECONDS), config.intraday_amplitude), s_count)
    share_path = window_vol = None
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
        n_windows = t_total // cm.window_seconds
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
        a = loadings_lin
        b = c * loadings_cub
        var_n = np.sum(a * a + 6.0 * a * b + 15.0 * b * b, axis=1)
        signal_hat = signal / np.sqrt(var_n)
        s_sec = np.repeat(share_path, cm.window_seconds)
        vol_sec = np.repeat(window_vol, cm.window_seconds)
        returns = vol_sec[:, None] * (
            np.sqrt(s_sec)[:, None] * signal_hat + np.sqrt(1.0 - s_sec)[:, None] * idio
        )
    returns *= config.base_vol * profile[:, None]
    if config.market_composite:
        returns = np.hstack([returns.mean(axis=1, keepdims=True), returns])
    returns.reshape(s_count, SESSION_SECONDS, -1)[:, 0] = 0.0
    prices = 100.0 * np.exp(np.cumsum(returns, axis=0))
    return prices, SyntheticDetails(loadings_lin, loadings_cub, share_path, window_vol)


@pytest.mark.parametrize(
    "config",
    [
        small_config(n_assets=4, n_sessions=4, seed=11, regime_schedule=(
            RegimeSpec(0, 2, 1.0, 0.5), RegimeSpec(2, 4, 0.3, 1.2))),
        comovement_config(n_sessions=3, seed=12, vol_feedback=2.0),
        comovement_config(n_sessions=2, seed=13, vol_feedback=-0.7, nonlinearity=0.6, market_composite=True),
        small_config(n_assets=6, n_sessions=3, seed=14, market_composite=True, nonlinearity=0.8),
        small_config(n_assets=5, n_sessions=3, seed=15, n_factors=1, intraday_amplitude=1.2),
        small_config(n_assets=3, n_sessions=1, seed=16, n_factors=1, nonlinearity=0.3,
                     intraday_amplitude=0.5),
    ],
    ids=["two-regimes", "comovement-feedback", "comovement-composite-cubic", "composite-cubic",
         "intraday", "one-session"],
)
def test_generator_matches_the_whole_panel_oracle_bitwise(config):
    panel, details = generate_synthetic_market_details(config)
    prices, want = _whole_panel_generator(config)
    assert panel.prices.tobytes() == prices.tobytes()
    for field in dataclasses.fields(SyntheticDetails):
        got, expected = getattr(details, field.name), getattr(want, field.name)
        assert (got is None) == (expected is None), field.name
        if got is not None:
            assert got.tobytes() == expected.tobytes(), field.name


@pytest.mark.parametrize("comovement", [None, CoMovementSpec(share_innovation=0.7, vol_feedback=0.5)],
                         ids=["regimes", "comovement"])
def test_generator_memory_beyond_its_prices_is_flat_in_sessions(comovement):
    extra = []
    for n in (4, 16):
        config = small_config(n_assets=6, n_sessions=n, nonlinearity=0.5, comovement=comovement)
        panel, peak = traced_peak(lambda: generate_synthetic_market(config))
        extra.append(peak - panel.prices.nbytes)
    session_bytes = SESSION_SECONDS * 6 * 8
    assert abs(extra[1] - extra[0]) < session_bytes


def test_intraday_profile_u_shape():
    offsets = np.arange(SESSION_SECONDS)
    prof = intraday_profile(offsets, 0.5)
    assert prof[0] > prof[SESSION_SECONDS // 2]  # open louder than midday
    assert prof[-1] > prof[SESSION_SECONDS // 2]  # close louder than midday
    assert np.all(prof > 0)
    flat = intraday_profile(offsets, 0.0)
    assert np.allclose(flat, 1.0)


def test_csv_roundtrip_bit_exact(tmp_path, tiny_panel):
    path = tmp_path / "ticks.csv"
    write_tick_csv(tiny_panel, path)
    calendar = synthetic_calendar(small_config())
    loaded = load_tick_csv(path, calendar)
    assert np.array_equal(loaded.timestamps, tiny_panel.timestamps)
    assert np.array_equal(loaded.prices, tiny_panel.prices)
    assert loaded.asset_ids == tiny_panel.asset_ids
    assert np.array_equal(loaded.opens, tiny_panel.opens)


def test_csv_long_format(tmp_path, tiny_panel):
    path = tmp_path / "ticks.csv"
    write_tick_csv(tiny_panel, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,asset_id,price"
    assert len(lines) == 1 + tiny_panel.n_rows * tiny_panel.n_assets
    assets_in_file = {line.split(",")[1] for line in lines[1:]}
    assert assets_in_file == set(tiny_panel.asset_ids)


def test_csv_loader_accepts_iso_and_fills_gaps(tmp_path):
    cal = build_session_calendar([dt.date(2012, 1, 2)])
    _, open_epoch, _ = cal.sessions[0]
    iso = dt.datetime.fromtimestamp(open_epoch, tz=dt.timezone.utc).isoformat()
    rows = [
        "timestamp,asset_id,price",
        f"{iso},X,100.0",                    # ISO-8601 stamp
        f"{open_epoch + 2},X,101.0",         # gap at +1 -> forward-filled
        f"{open_epoch + 2},X,102.0",         # duplicate second keeps the last value
        f"{open_epoch - 50},X,1.0",          # before the open -> dropped
    ]
    path = tmp_path / "sparse.csv"
    path.write_text("\n".join(rows) + "\n")
    panel = load_tick_csv(path, cal)
    assert panel.prices[0, 0] == 100.0
    assert panel.prices[1, 0] == 100.0  # forward fill
    assert panel.prices[2, 0] == 102.0  # last duplicate wins
    assert panel.n_rows == SESSION_SECONDS


# Ingest property: two sessions around a declared half day, one unknown date after them.
INGEST_DATES = [dt.date(2012, 1, 2), dt.date(2012, 1, 3), dt.date(2012, 1, 4)]
INGEST_HALF_DAY = dt.date(2012, 1, 3)
INGEST_UNKNOWN_DAY = dt.date(2012, 1, 5)


def _open_of(date):
    midnight = dt.datetime(date.year, date.month, date.day, tzinfo=dt.timezone.utc)
    return int(midnight.timestamp()) + SESSION_OPEN_OFFSET


def _stamp(second, ms, style):
    if style == "epoch":
        return str(second)
    stamp = dt.datetime.fromtimestamp(second, tz=dt.timezone.utc).replace(microsecond=1000 * ms)
    return stamp.isoformat().replace("+00:00", "Z" if style == "Z" else "+00:00")


def _ingest_oracle(rows, calendar):
    """The per-second grid of (second, asset, price) rows in file order, by plain loops."""
    opens = [o for _, o, _ in calendar.sessions]
    cells = {}
    for second, asset, price in rows:
        for s, o in enumerate(opens):
            if o <= second < o + SESSION_SECONDS:
                cells[asset, s, second - o] = price  # a later row overwrites an earlier one
    assets = sorted({a for a, _, _ in cells})
    prices = np.empty((len(opens) * SESSION_SECONDS, len(assets)))
    for j, asset in enumerate(assets):
        for s in range(len(opens)):
            ticks = sorted((off, p) for (a, ss, off), p in cells.items() if a == asset and ss == s)
            if not ticks:
                date = calendar.sessions[s][0].isoformat()
                raise ValueError(f"asset {asset!r} has no data in session {date}")
            col = prices[s * SESSION_SECONDS : (s + 1) * SESSION_SECONDS, j]
            col[:] = ticks[0][1]  # the session takes its first print until then
            for off, p in ticks:
                col[off:] = p
    return tuple(assets), prices


_session_row = st.tuples(
    st.sampled_from("ABC"),
    st.sampled_from([0, 1]),  # session ordinal
    # few seconds, so prints often share one
    st.one_of(st.integers(0, 6), st.integers(SESSION_SECONDS - 2, SESSION_SECONDS - 1)),
)
# rows the loader drops: on the half day, on an unknown date, before the open, at or
# after the close; asset D prints only in them, so it must not appear in the panel
_dropped_row = st.tuples(
    st.sampled_from("ABD"),
    st.sampled_from(["half_day", "unknown_day", "before_open", "at_close"]),
    st.integers(0, 30),
)


@settings(max_examples=40, deadline=None)
@given(
    base_prices=st.lists(st.floats(1.0, 500.0), min_size=6, max_size=6),
    extra=st.lists(st.tuples(_session_row, st.floats(1e-3, 1e6)), max_size=30),
    dropped=st.lists(st.tuples(_dropped_row, st.floats(1.0, 500.0)), max_size=6),
    swaps=st.lists(st.integers(0, 40), max_size=6),
    stamps=st.lists(st.tuples(st.integers(0, 999), st.sampled_from(["epoch", "Z", "+00:00"])),
                    min_size=1, max_size=8),
    empty=st.sets(st.tuples(st.sampled_from("ABC"), st.sampled_from([0, 1])), max_size=3),
)
# two empty pairs whose asset-major and session-major orders differ: asset A is reported
@example(base_prices=[1.0] * 6, extra=[], dropped=[], swaps=[], stamps=[(0, "epoch")],
         empty={("B", 0), ("A", 1)})
def test_csv_loader_matches_plain_oracle(
    tmp_path_factory, base_prices, extra, dropped, swaps, stamps, empty
):
    calendar = build_session_calendar(INGEST_DATES, [INGEST_HALF_DAY])
    opens = [o for _, o, _ in calendar.sessions]
    # a print for every asset in every session, bar the (asset, session) pairs in `empty`
    pairs = [(a, s) for a in "ABC" for s in (0, 1)]
    base = [((a, s, 1 + s + i % 3), p) for i, ((a, s), p) in enumerate(zip(pairs, base_prices))]
    rows = [(opens[s] + off, a, p) for (a, s, off), p in base + extra if (a, s) not in empty]
    for (asset, kind, k), price in dropped:
        second = {
            "half_day": _open_of(INGEST_HALF_DAY) + k,
            "unknown_day": _open_of(INGEST_UNKNOWN_DAY) + k,
            "before_open": opens[k % 2] - 1 - k,
            "at_close": opens[k % 2] + SESSION_SECONDS + k,
        }[kind]
        rows.append((second, asset, price))
    rows.sort(key=lambda r: r[0])
    for i in swaps:  # swapped neighbouring rows
        if i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]

    path = tmp_path_factory.mktemp("ingest") / "ticks.csv"
    lines = ["timestamp,asset_id,price"] + [
        f"{_stamp(second, *stamps[i % len(stamps)])},{asset},{price!r}"
        for i, (second, asset, price) in enumerate(rows)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    try:
        expected_ids, expected = _ingest_oracle(rows, calendar)
    except ValueError as exc:
        with pytest.raises(ValueError, match="has no data in session") as raised:
            load_tick_csv(path, calendar)
        assert str(raised.value) == str(exc)
        return
    panel = load_tick_csv(path, calendar)
    assert panel.asset_ids == expected_ids
    assert np.array_equal(panel.prices.view(np.uint64), expected.view(np.uint64))
    per_second = calendar.opens[:, None] + np.arange(SESSION_SECONDS)
    assert np.array_equal(panel.timestamps, per_second.ravel())


def test_config_validation_errors():
    with pytest.raises(ValueError, match="n_factors"):
        small_config(n_assets=2, n_factors=2).validate()
    with pytest.raises(ValueError, match="base_vol"):
        small_config(base_vol=0.0).validate()
    with pytest.raises(ValueError):
        small_config(
            regime_schedule=(RegimeSpec(0, 1, 1.0, 0.5),), n_sessions=2
        ).validate()
