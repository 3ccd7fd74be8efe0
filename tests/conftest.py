import tracemalloc

import numpy as np
import pytest

from arrkit.market_data import (
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
