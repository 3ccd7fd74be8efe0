import tracemalloc

import numpy as np
import pytest

from arrkit.market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_WEEK,
    SESSION_SECONDS,
    CoMovementSpec,
    RegimeSpec,
    SyntheticMarketConfig,
    generate_synthetic_market,
    synthetic_calendar,
)
from arrkit.returns_metrics import log_returns


def small_config(n_assets=5, n_sessions=2, seed=0, **kwargs):
    defaults = dict(
        n_assets=n_assets,
        n_sessions=n_sessions,
        n_factors=2,
        regime_schedule=(RegimeSpec(0, n_sessions, 1.0, 0.5),),
        seed=seed,
    )
    defaults.update(kwargs)
    return SyntheticMarketConfig(**defaults)


def comovement_config(n_assets=6, n_sessions=4, seed=0, vol_feedback=0.5, **kwargs):
    return small_config(
        n_assets=n_assets,
        n_sessions=n_sessions,
        seed=seed,
        comovement=CoMovementSpec(share_innovation=0.7, vol_feedback=vol_feedback),
        **kwargs,
    )


@pytest.fixture(scope="session")
def tiny_panel():
    """5 assets x 2 sessions, linear factors."""
    return generate_synthetic_market(small_config())


@pytest.fixture(scope="session")
def tiny_returns(tiny_panel):
    return log_returns(tiny_panel, 1)


@pytest.fixture(scope="session")
def tiny_calendar():
    return synthetic_calendar(small_config())


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def traced_peak(fn):
    """fn()'s result and the most bytes tracemalloc saw allocated at once while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def whole_panel_window_sums(values, opens, window):
    """Oracle: the whole-panel window sums that built every window straight from the
    one-second values of all sessions at once."""
    values = np.asarray(values, dtype=np.float64)
    n, tail = len(opens), values.shape[1:]
    if n == 0 or len(values) != n * (SESSION_SECONDS - 1):
        raise ValueError("incomplete session: expected a full 6.5-hour grid")
    if window == ONE_WEEK:
        if n < 5:
            raise ValueError("interval larger than available data (need 5 sessions)")
        ends = np.arange(4, n)
        stamps = opens[ends] + ONE_DAY
    else:
        per = SESSION_SECONDS // window
        stamps = (opens[:, None] + window * np.arange(1, per + 1)).ravel()
    grid = np.concatenate(
        [values.reshape((n, SESSION_SECONDS - 1) + tail), np.full((n, 1) + tail, -0.0)], axis=1
    )
    per_day = SESSION_SECONDS // FIVE_MIN
    fives = grid.reshape((n, per_day, FIVE_MIN) + tail).sum(axis=2)
    if window == ONE_WEEK:
        flat = fives.reshape((n * per_day,) + tail)
        sums = np.array([flat[(e - 4) * per_day : (e + 1) * per_day].sum(axis=0) for e in ends])
    else:
        group = window // FIVE_MIN
        sums = fives[:, : per * group].reshape((n * per, group) + tail).sum(axis=1)
    return stamps, sums


def whole_panel_ratio(result, interval):
    """Oracle: the ratio's stamps, numerators and denominators from whole-panel window sums
    of a reconstruction's per-row squared errors and squared returns."""
    err = result.actual - result.reconstructed
    sq_err = np.einsum("ij,ij->i", err, err)
    sq_act = np.einsum("ij,ij->i", result.actual, result.actual)
    stamps, num = whole_panel_window_sums(sq_err, result.opens, interval)
    _, den = whole_panel_window_sums(sq_act, result.opens, interval)
    keep = den > 0
    return stamps[keep], num[keep], den[keep]
