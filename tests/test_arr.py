"""Reconstruction-ratio series: window oracles, re-aggregation, smoothing, alignment."""

import os

import numpy as np
import pytest

from arrkit import pipeline
from arrkit.arr import (
    ArrSeries,
    ReconstructionResult,
    align_series,
    compute_arr,
    pca_reconstruction,
    ratio_series,
    smooth_arr,
    squared_error,
)
from arrkit.config import RunConfig, SplitSpec
from arrkit.market_data import FIVE_MIN, ONE_DAY, ONE_HOUR, ONE_WEEK, SESSION_SECONDS
from arrkit.pca import fit_pca
from arrkit.returns_metrics import ReturnsPanel, ewm_stats, five_minute_sums, log_returns
from arrkit.serialization import load_pca

from conftest import comovement_config, whole_panel_ratio

OPEN_OFFSET = 34200
PER_SESSION = SESSION_SECONDS - 1  # 1-second return rows per session


def _opens(n_sessions):
    return np.arange(n_sessions, dtype=np.int64) * 86400 + OPEN_OFFSET


def _result(n_sessions=1, n_assets=2, seed=0, recon="noisy"):
    rng = np.random.default_rng(seed)
    actual = rng.normal(size=(n_sessions * PER_SESSION, n_assets)) * 1e-4
    if recon == "noisy":
        reconstructed = actual + rng.normal(size=actual.shape) * 3e-5
    elif recon == "perfect":
        reconstructed = actual.copy()
    else:
        reconstructed = np.zeros_like(actual)
    ids = tuple(f"A{i}" for i in range(n_assets))
    return ReconstructionResult(_opens(n_sessions), actual, reconstructed, ids, "pca")


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
    opens = _opens(1)
    good = np.zeros((PER_SESSION, 2))
    with pytest.raises(ValueError, match="unknown source"):
        ReconstructionResult(opens, good, good, ("a", "b"), "kmeans")
    with pytest.raises(ValueError, match="shape mismatch"):
        ReconstructionResult(opens, good, good[:, :1], ("a", "b"), "pca")
    with pytest.raises(ValueError, match="non-finite"):
        ReconstructionResult(opens, good, np.full_like(good, np.nan), ("a", "b"), "pca")
    with pytest.raises(ValueError, match="equal blocks"):
        ReconstructionResult(_opens(2), good, good, ("a", "b"), "pca")


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
    silenced = ReconstructionResult(res.opens, actual, res.reconstructed, res.asset_ids, "pca")
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
    """A week ends at every session close from the fifth; the week five stamps ahead (a
    weekly target) covers the five sessions after its anchor week, disjoint from it."""
    res = _result(n_sessions=10, seed=5)
    five = compute_arr(res, FIVE_MIN)
    daily = compute_arr(res, ONE_DAY)
    per_day = SESSION_SECONDS // FIVE_MIN
    weekly = compute_arr(res, ONE_WEEK)
    np.testing.assert_array_equal(weekly.timestamps, daily.timestamps[4:])
    for i, s in enumerate(range(4, 10)):
        num = np.sum(five.numerators[(s - 4) * per_day : (s + 1) * per_day])
        assert weekly.numerators[i] == num
    assert weekly.numerators[5] == np.sum(five.numerators[5 * per_day :])


@pytest.mark.parametrize(
    "interval,overlapping",
    [(FIVE_MIN, False), (ONE_HOUR, False), (ONE_DAY, False), (ONE_WEEK, True)],
)
def test_ratio_matches_the_whole_panel_oracle_bitwise(interval, overlapping):
    """compute_arr, and the ratio built from five-minute sums made one session at a time
    (as the arr stage builds it), both equal the whole-panel ratio bit for bit. Only the
    weeks overlap: one ends at every session close, so their lengths add up to more than
    the panel's six sessions."""
    res = _result(n_sessions=6, n_assets=3, seed=8)
    actual = np.array(res.actual, copy=True)
    actual[PER_SESSION + 600 : PER_SESSION + 900] = 0.0  # a zero-denominator window
    res = ReconstructionResult(res.opens, actual, res.reconstructed, res.asset_ids, "pca")
    stamps, num, den = whole_panel_ratio(res, interval)
    rows = [slice(s * PER_SESSION, (s + 1) * PER_SESSION) for s in range(6)]
    per_session = [
        np.concatenate([five_minute_sums(np.einsum("ij,ij->i", x[r], x[r])) for r in rows])
        for x in (res.actual - res.reconstructed, res.actual)
    ]
    for got in (compute_arr(res, interval), ratio_series(*per_session, res.opens, interval, "pca")):
        assert np.array_equal(got.timestamps, stamps)
        assert got.numerators.tobytes() == num.tobytes()
        assert got.denominators.tobytes() == den.tobytes()
        assert got.values.tobytes() == (num / den).tobytes()
        assert got.source == "pca"
    assert (len(stamps) * interval > 6 * SESSION_SECONDS) is overlapping


def test_pca_reconstruction_wraps_model_output():
    rng = np.random.default_rng(6)
    r = rng.normal(size=(PER_SESSION, 3)) * 1e-4
    panel = ReturnsPanel(_opens(1), r, ("a", "b", "c"))
    model = fit_pca(r, n_components=1)
    res = pca_reconstruction(model, panel)
    assert res.source == "pca"
    np.testing.assert_array_equal(res.actual, r)
    np.testing.assert_array_equal(res.opens, panel.opens)
    assert res.reconstructed.shape == r.shape
    small = fit_pca(r[:, :2], n_components=1)
    with pytest.raises(ValueError, match="asset count mismatch"):
        pca_reconstruction(small, panel)


# ---------------------------------------------------------------------------
# smoothing and cadence


def test_steps_per_session_table():
    """smooth_arr turns a half-life in sessions into steps: the windows that end per
    session, one for a day and one for a week."""
    res = _result(n_sessions=6, seed=9)
    for interval, steps in ((FIVE_MIN, 78), (ONE_HOUR, 6), (ONE_DAY, 1), (ONE_WEEK, 1)):
        series = compute_arr(res, interval)
        expected, _ = ewm_stats(series.values, 2.0 * steps)
        assert smooth_arr(series, 2.0).values.tobytes() == expected.tobytes()
    t = np.arange(1, 6, dtype=np.int64)
    with pytest.raises(ValueError, match="misaligned"):
        smooth_arr(ArrSeries(t, np.full(5, 0.5), 7, "pca"), 1.0)


def test_the_weekly_call_forms_give_the_arr_stage_week(tmp_path):
    """compute_arr and ratio_series at one week give the arr stage's `pca_1week.csv`: one
    stamp per session close from the fifth, smoothed at one step per session."""
    out, n = str(tmp_path / "run"), 7
    cfg = RunConfig(
        data_source="synthetic", splits=SplitSpec((0, n - 3), (n - 3, n - 2), (n - 2, n)),
        synthetic=comovement_config(n_assets=5, n_sessions=n, seed=3), models="pca",
        output_dir=out,
    )
    pipeline.cmd_generate(cfg, out)
    pipeline.cmd_train(cfg, out, threads=1)
    pipeline.cmd_arr(cfg, out)
    ticks, _ = pipeline.load_panel(cfg, out)
    model, _ = load_pca(os.path.join(out, "models", "pca.json"))
    recon = pca_reconstruction(model, log_returns(ticks, 1))
    sq_ret = np.einsum("ij,ij->i", recon.actual, recon.actual)
    fives = [five_minute_sums(v) for v in (squared_error(recon), sq_ret)]
    with open(os.path.join(out, "arr", pipeline.arr_file_name("pca", ONE_WEEK)), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    stamps = np.array([int(row[0]) for row in rows])
    values = np.array([float(row[1]) for row in rows])  # shortest-repr floats parse exactly
    np.testing.assert_array_equal(stamps, ticks.opens[4:] + ONE_DAY)
    for got in (compute_arr(recon, ONE_WEEK), ratio_series(*fives, ticks.opens, ONE_WEEK, "pca")):
        assert np.array_equal(got.timestamps, stamps)
        assert got.values.tobytes() == values.tobytes()
        expected, _ = ewm_stats(got.values, 1.5)
        assert smooth_arr(got, 1.5).values.tobytes() == expected.tobytes()


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
