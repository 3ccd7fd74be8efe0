"""Reconstruction-ratio series: window oracles, re-aggregation, smoothing, alignment."""

import numpy as np
import pytest

from arrkit.arr import (
    ArrSeries,
    ReconstructionResult,
    align_series,
    compute_arr,
    pca_reconstruction,
    smooth_arr,
    steps_per_session,
)
from arrkit.market_data import FIVE_MIN, ONE_DAY, ONE_HOUR, ONE_WEEK, SESSION_SECONDS
from arrkit.pca import fit_pca
from arrkit.returns_metrics import ReturnsPanel, ewm_stats

OPEN_OFFSET = 34200
PER_SESSION = SESSION_SECONDS - 1  # 1-second return rows per session


def _grid(n_sessions):
    offs = np.arange(1, SESSION_SECONDS, dtype=np.int64)
    ts = np.concatenate([d * 86400 + OPEN_OFFSET + offs for d in range(n_sessions)])
    si = np.repeat(np.arange(n_sessions, dtype=np.int64), PER_SESSION)
    return ts, si


def _result(n_sessions=1, n_assets=2, seed=0, recon="noisy"):
    ts, si = _grid(n_sessions)
    rng = np.random.default_rng(seed)
    actual = rng.normal(size=(len(ts), n_assets)) * 1e-4
    if recon == "noisy":
        reconstructed = actual + rng.normal(size=actual.shape) * 3e-5
    elif recon == "perfect":
        reconstructed = actual.copy()
    else:
        reconstructed = np.zeros_like(actual)
    return ReconstructionResult(ts, actual, reconstructed, si, tuple(f"A{i}" for i in range(n_assets)), "pca")


# ---------------------------------------------------------------------------
# container invariants


def test_series_validates_ratio_consistency():
    t = np.array([300, 600], dtype=np.int64)
    ArrSeries(t, np.array([0.5, 0.25]), 300, "pca", np.array([1.0, 1.0]), np.array([2.0, 4.0]))
    with pytest.raises(ValueError, match="must equal numerators/denominators"):
        ArrSeries(t, np.array([0.5, 0.3]), 300, "pca", np.array([1.0, 1.0]), np.array([2.0, 4.0]))
    with pytest.raises(ValueError, match="non-positive denominator"):
        ArrSeries(t, np.array([0.5, 0.0]), 300, "pca", np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="come together"):
        ArrSeries(t, np.array([0.5, 0.25]), 300, "pca", np.array([1.0, 1.0]), None)
    with pytest.raises(ValueError, match="negative"):
        ArrSeries(t, np.array([-0.1, 0.2]), 300, "pca")
    with pytest.raises(ValueError, match="non-finite"):
        ArrSeries(t, np.array([np.nan, 0.2]), 300, "pca")
    assert len(ArrSeries(t, np.array([0.1, 0.2]), 300, "pca")) == 2


def test_reconstruction_result_validation():
    ts, si = _grid(1)
    good = np.zeros((len(ts), 2))
    with pytest.raises(ValueError, match="unknown source"):
        ReconstructionResult(ts, good, good, si, ("a", "b"), "kmeans")
    with pytest.raises(ValueError, match="shape mismatch"):
        ReconstructionResult(ts, good, good[:, :1], si, ("a", "b"), "pca")
    with pytest.raises(ValueError, match="non-finite"):
        ReconstructionResult(ts, good, np.full_like(good, np.nan), si, ("a", "b"), "pca")


# ---------------------------------------------------------------------------
# ratio computation


def test_five_minute_windows_match_brute_slices():
    res = _result(seed=1)
    series = compute_arr(res, FIVE_MIN)
    err = res.actual - res.reconstructed
    sq_err = (err * err).sum(axis=1)
    sq_act = (res.actual * res.actual).sum(axis=1)
    assert len(series) == 78
    for m in range(1, 79):
        # rows sit at offsets 1..23399, so index = offset - 1 and window m is [lo:hi)
        lo, hi = (m - 1) * FIVE_MIN, m * FIVE_MIN
        num = np.sum(sq_err[lo:hi])
        den = np.sum(sq_act[lo:hi])
        assert series.timestamps[m - 1] == OPEN_OFFSET + m * FIVE_MIN
        assert series.numerators[m - 1] == num
        assert series.denominators[m - 1] == den
        assert series.values[m - 1] == num / den


def test_perfect_and_absent_reconstructions_hit_the_bounds():
    zero = compute_arr(_result(seed=2, recon="perfect"), ONE_HOUR)
    np.testing.assert_array_equal(zero.values, np.zeros(6))
    one = compute_arr(_result(seed=2, recon="zero"), ONE_HOUR)
    np.testing.assert_array_equal(one.values, np.ones(6))


def test_zero_denominator_windows_are_dropped():
    res = _result(seed=3)
    actual = np.array(res.actual, copy=True)
    actual[300:600] = 0.0  # second 5-min window: rows at offsets 301..600
    silenced = ReconstructionResult(
        res.timestamps, actual, res.reconstructed, res.session_index, res.asset_ids, "pca"
    )
    series = compute_arr(silenced, FIVE_MIN)
    assert len(series) == 77
    assert OPEN_OFFSET + 2 * FIVE_MIN not in series.timestamps


def test_coarse_ratios_are_ratios_of_summed_fine_parts():
    res = _result(n_sessions=5, seed=4)
    five = compute_arr(res, FIVE_MIN)
    for interval, group in ((ONE_HOUR, 12), (ONE_DAY, 78)):
        coarse = compute_arr(res, interval)
        per_day = SESSION_SECONDS // FIVE_MIN
        usable = per_day // group  # complete coarse windows per session
        for s in range(5):
            for m in range(usable):
                lo = s * per_day + m * group
                num = np.sum(five.numerators[lo : lo + group])
                den = np.sum(five.denominators[lo : lo + group])
                row = s * usable + m
                assert coarse.numerators[row] == num
                assert coarse.denominators[row] == den
                assert coarse.values[row] == num / den


def test_weekly_windows_rolling_and_non_overlapping():
    res = _result(n_sessions=7, seed=5)
    five = compute_arr(res, FIVE_MIN)
    daily = compute_arr(res, ONE_DAY)
    per_day = SESSION_SECONDS // FIVE_MIN
    rolling = compute_arr(res, ONE_WEEK, rolling_weekly=True)
    assert rolling.rolling is True
    np.testing.assert_array_equal(rolling.timestamps, daily.timestamps[4:])
    for i, s in enumerate(range(4, 7)):
        num = np.sum(five.numerators[(s - 4) * per_day : (s + 1) * per_day])
        assert rolling.numerators[i] == num
    blocked = compute_arr(res, ONE_WEEK)
    assert list(blocked.timestamps) == [daily.timestamps[4]]
    assert blocked.numerators[0] == np.sum(five.numerators[: 5 * per_day])


def test_pca_reconstruction_wraps_model_output():
    ts, si = _grid(1)
    rng = np.random.default_rng(6)
    r = rng.normal(size=(len(ts), 3)) * 1e-4
    panel = ReturnsPanel(ts, r, ("a", "b", "c"), 1, si)
    model = fit_pca(r, n_components=1)
    res = pca_reconstruction(model, panel)
    assert res.source == "pca"
    np.testing.assert_array_equal(res.actual, r)
    assert res.reconstructed.shape == r.shape
    small = fit_pca(r[:, :2], n_components=1)
    with pytest.raises(ValueError, match="asset count mismatch"):
        pca_reconstruction(small, panel)


# ---------------------------------------------------------------------------
# smoothing and cadence


def test_steps_per_session_table():
    assert steps_per_session(FIVE_MIN) == 78.0
    assert steps_per_session(ONE_HOUR) == 6.0
    assert steps_per_session(ONE_DAY) == 1.0
    assert steps_per_session(ONE_WEEK) == 0.2
    assert steps_per_session(ONE_WEEK, rolling=True) == 1.0
    with pytest.raises(ValueError, match="misaligned"):
        steps_per_session(7)


def test_smoothing_is_ewma_with_session_scaled_half_life():
    series = compute_arr(_result(seed=7), FIVE_MIN)
    smoothed = smooth_arr(series, half_life_days=1.0)
    expected, _ = ewm_stats(series.values, 78.0)
    np.testing.assert_array_equal(smoothed.values, expected)
    assert smoothed.numerators is None and smoothed.denominators is None
    assert smoothed.interval == series.interval and smoothed.source == series.source


def test_smoothing_preserves_constants_and_validates():
    t = np.arange(1, 6, dtype=np.int64) * FIVE_MIN + OPEN_OFFSET
    const = ArrSeries(t, np.full(5, 0.42), FIVE_MIN, "autoencoder")
    np.testing.assert_allclose(smooth_arr(const, 2.0).values, np.full(5, 0.42), rtol=1e-12)
    with pytest.raises(ValueError, match="positive"):
        smooth_arr(const, 0.0)


# ---------------------------------------------------------------------------
# alignment and serialization


def test_align_series_inner_join():
    ts, va, vb = align_series(
        np.array([10, 20, 30, 40]), np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([20, 40, 50]), np.array([20.0, 40.0, 50.0]),
    )
    np.testing.assert_array_equal(ts, [20, 40])
    np.testing.assert_array_equal(va, [2.0, 4.0])
    np.testing.assert_array_equal(vb, [20.0, 40.0])
    empty, _, _ = align_series(np.array([1]), np.array([0.0]), np.array([2]), np.array([0.0]))
    assert len(empty) == 0
