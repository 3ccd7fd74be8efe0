"""Forecasting stack: feature assembly, four model families, CV random search."""

import json

import numpy as np
import pytest

from arrkit.arr import ArrSeries
from arrkit.forecasting import (
    FORECAST_GRIDS,
    ForecastDataset,
    build_features,
    chronological_folds,
    fit_gbdt,
    fit_logistic_l1,
    fit_mlp,
    fit_ridge,
    oversample_minority,
    random_search_cv,
    write_trials_jsonl,
)
from arrkit.market_data import FIVE_MIN, ONE_DAY, ONE_HOUR, ONE_WEEK
from arrkit.returns_metrics import CrashLabels, RiskSeries


# ---------------------------------------------------------------------------
# feature assembly fixtures: stamped series whose value IS the stamp, so any
# as-of lookup result can be read off directly


def _stamp_series(n_sessions, interval, rolling=False):
    if interval == FIVE_MIN:
        offs = np.arange(1, 79) * FIVE_MIN
    elif interval == ONE_HOUR:
        offs = np.arange(1, 7) * ONE_HOUR
    elif interval == ONE_DAY:
        offs = np.array([23400])
    else:
        days = np.arange(4, n_sessions) if rolling else np.arange(4, n_sessions, 5)
        return np.array([d * 86400 + 34200 + 23400 for d in days], dtype=np.int64)
    return np.concatenate(
        [d * 86400 + 34200 + offs for d in range(n_sessions)]
    ).astype(np.int64)


def _series_maps(n_sessions=12, rolling_weekly=False):
    rv, arr = {}, {}
    for d in (FIVE_MIN, ONE_HOUR, ONE_DAY, ONE_WEEK):
        ts = _stamp_series(n_sessions, d, rolling=rolling_weekly and d == ONE_WEEK)
        vals = ts.astype(np.float64)
        rv[d] = RiskSeries(ts, vals, "log_rv", d)
        arr[d] = ArrSeries(ts, vals, d, "pca", rolling=rolling_weekly and d == ONE_WEEK)
    return rv, arr


def test_features_are_as_of_lookups_on_the_anchor_timeline():
    rv, arr = _series_maps()
    ds = build_features(rv, arr, ONE_HOUR, include_arr=True)
    assert ds.feature_names == (
        "rv_1hour", "rv_1day", "rv_1week", "arr_1hour", "arr_1day", "arr_1week"
    )
    # the first surviving row is the first hourly stamp after the first weekly close
    first_weekly = 4 * 86400 + 34200 + 23400
    assert ds.feature_times[0] == 5 * 86400 + 34200 + ONE_HOUR
    assert ds.feature_times[0] > first_weekly
    row = ds.features[0]
    assert row[0] == ds.feature_times[0]  # hourly as-of == the anchor stamp itself
    assert row[1] == 4 * 86400 + 34200 + 23400  # latest daily close
    assert row[2] == first_weekly
    np.testing.assert_array_equal(row[:3], row[3:])  # arr series mirror rv stamps
    # generic oracle over every row and column
    for j, d in enumerate((ONE_HOUR, ONE_DAY, ONE_WEEK)):
        src = rv[d].timestamps
        idx = np.searchsorted(src, ds.feature_times, side="right") - 1
        np.testing.assert_array_equal(ds.features[:, j], src[idx].astype(float))


def test_regression_target_is_the_next_anchor_observation():
    rv, arr = _series_maps()
    ds = build_features(rv, arr, ONE_DAY, include_arr=False)
    anchor = rv[ONE_DAY]
    pos = np.searchsorted(anchor.timestamps, ds.feature_times)
    np.testing.assert_array_equal(anchor.timestamps[pos], ds.feature_times)
    np.testing.assert_array_equal(ds.target_times, anchor.timestamps[pos + 1])
    np.testing.assert_array_equal(ds.target, anchor.values[pos + 1])
    assert np.all(ds.target_times > ds.feature_times)


def test_paired_datasets_share_rows_regardless_of_flag():
    rv, arr = _series_maps()
    with_arr = build_features(rv, arr, ONE_HOUR, include_arr=True)
    without = build_features(rv, arr, ONE_HOUR, include_arr=False)
    np.testing.assert_array_equal(with_arr.feature_times, without.feature_times)
    np.testing.assert_array_equal(with_arr.target, without.target)
    assert without.feature_names == ("rv_1hour", "rv_1day", "rv_1week")
    assert without.include_arr is False and with_arr.include_arr is True


def test_rows_require_arr_coverage_even_when_excluded():
    rv, arr = _series_maps()
    # delay weekly ratio coverage by five sessions; both datasets must lose those rows
    wk = arr[ONE_WEEK]
    arr_late = dict(arr)
    arr_late[ONE_WEEK] = ArrSeries(wk.timestamps[1:], wk.values[1:], ONE_WEEK, "pca")
    full = build_features(rv, arr, ONE_HOUR, include_arr=False)
    constrained = build_features(rv, arr_late, ONE_HOUR, include_arr=False)
    lateness = wk.timestamps[1]
    assert len(constrained) < len(full)
    assert constrained.feature_times[0] >= lateness
    paired = build_features(rv, arr_late, ONE_HOUR, include_arr=True)
    np.testing.assert_array_equal(paired.feature_times, constrained.feature_times)


def test_rolling_weekly_anchor_targets_the_disjoint_week():
    rv, arr = _series_maps(n_sessions=16, rolling_weekly=True)
    ds = build_features(rv, arr, ONE_WEEK, include_arr=False)
    anchor = rv[ONE_WEEK]
    pos = np.searchsorted(anchor.timestamps, ds.feature_times)
    np.testing.assert_array_equal(ds.target_times, anchor.timestamps[pos + 5])
    blocked_rv, blocked_arr = _series_maps(n_sessions=16, rolling_weekly=False)
    blocked = build_features(blocked_rv, blocked_arr, ONE_WEEK, include_arr=False)
    bpos = np.searchsorted(blocked_rv[ONE_WEEK].timestamps, blocked.feature_times)
    np.testing.assert_array_equal(
        blocked.target_times, blocked_rv[ONE_WEEK].timestamps[bpos + 1]
    )


def test_classification_target_is_exact_stamp_crash_label():
    rv, arr = _series_maps()
    anchor = rv[ONE_HOUR]
    label_ts = anchor.timestamps[::2]  # labels exist for every other stamp only
    z = np.where(np.arange(len(label_ts)) % 3 == 0, -2.0, 0.5)
    crash = CrashLabels(label_ts, (z < -1.5).astype(np.int64), z, 10.0, -1.5)
    ds = build_features(rv, arr, ONE_HOUR, include_arr=True, crash=crash)
    assert ds.task == "classification"
    assert set(np.unique(ds.target)) <= {0, 1}
    # every surviving target stamp has an exact label; rows without one are gone
    assert np.all(np.isin(ds.target_times, label_ts))
    idx = np.searchsorted(label_ts, ds.target_times)
    np.testing.assert_array_equal(ds.target, (z[idx] < -1.5).astype(ds.target.dtype))


def test_build_features_validation():
    rv, arr = _series_maps()
    with pytest.raises(ValueError, match="missing frequencies: 5min"):
        build_features({k: v for k, v in rv.items() if k != FIVE_MIN}, arr, ONE_HOUR, False)
    with pytest.raises(ValueError, match="unsupported horizon"):
        build_features(rv, arr, 900, False)
    short_rv, short_arr = _series_maps(n_sessions=5)
    wk = short_rv[ONE_WEEK]
    assert len(wk.timestamps) == 1
    with pytest.raises(ValueError, match="anchor series too short"):
        build_features(short_rv, short_arr, ONE_WEEK, False)


def test_dataset_container_invariants():
    base = dict(
        features=np.ones((3, 1)),
        target=np.zeros(3),
        feature_names=("rv_5min",),
        feature_times=np.array([1, 2, 3]),
        target_times=np.array([2, 3, 4]),
        horizon=FIVE_MIN,
        include_arr=False,
        task="regression",
    )
    assert ForecastDataset(**base).n_features == 1
    with pytest.raises(ValueError, match="unknown task"):
        ForecastDataset(**{**base, "task": "ranking"})
    with pytest.raises(ValueError, match="leakage"):
        ForecastDataset(**{**base, "target_times": np.array([1, 2, 3])})
    with pytest.raises(ValueError, match="0/1"):
        ForecastDataset(**{**base, "task": "classification", "target": np.full(3, 0.5)})
    with pytest.raises(ValueError, match="include_arr"):
        ForecastDataset(**{**base, "include_arr": True})
    with pytest.raises(ValueError, match="non-finite"):
        ForecastDataset(**{**base, "features": np.full((3, 1), np.inf)})
    with pytest.raises(ValueError, match="shapes"):
        ForecastDataset(**{**base, "features": np.ones((2, 1))})


# ---------------------------------------------------------------------------
# ridge


def test_ridge_alpha_zero_matches_least_squares():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.7 + rng.normal(size=60) * 0.01
    model = fit_ridge(x, y, alpha=0.0, fit_intercept=True)
    design = np.column_stack([x, np.ones(60)])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(model.coef, beta[:3], rtol=1e-9)
    assert model.intercept == pytest.approx(beta[3], rel=1e-9)


def test_ridge_solves_its_normal_equations():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    for alpha, intercept in ((0.5, False), (3.0, True)):
        model = fit_ridge(x, y, alpha, intercept)
        xc = x - x.mean(axis=0) if intercept else x
        yc = y - y.mean() if intercept else y
        lhs = (xc.T @ xc + alpha * np.eye(4)) @ model.coef
        np.testing.assert_allclose(lhs, xc.T @ yc, atol=1e-10)


def test_ridge_shrinks_to_the_mean_under_heavy_penalty():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 2))
    y = x @ np.array([2.0, -1.0]) + 5.0
    heavy = fit_ridge(x, y, alpha=1e12, fit_intercept=True)
    np.testing.assert_allclose(heavy.coef, np.zeros(2), atol=1e-9)
    assert heavy.intercept == pytest.approx(float(y.mean()), rel=1e-9)
    light = fit_ridge(x, y, alpha=1e-8, fit_intercept=True)
    np.testing.assert_allclose(light.predict(x), y, atol=1e-6)


def test_ridge_rejects_negative_alpha_and_singular_systems():
    x = np.ones((5, 2))  # duplicate columns, exactly singular at alpha=0
    y = np.arange(5.0)
    with pytest.raises(ValueError, match="non-negative"):
        fit_ridge(x, y, -1.0, False)
    with pytest.raises(ValueError, match="singular system"):
        fit_ridge(np.column_stack([y, y]), y, 0.0, False)


# ---------------------------------------------------------------------------
# L1 logistic regression


def _logit_data(n=200, f=4, seed=3, informative=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, f))
    beta = np.zeros(f)
    beta[:informative] = (2.0, -1.5)[:informative]
    p = 1.0 / (1.0 + np.exp(-(x @ beta)))
    return x, (rng.random(n) < p).astype(float)


def test_logistic_satisfies_kkt_conditions():
    x, y = _logit_data()
    for c in (0.1, 1.0, 10.0):
        model = fit_logistic_l1(x, y, c=c, tol=1e-9)
        z = (x - model.x_mean) / model.x_scale
        p = 1.0 / (1.0 + np.exp(-(z @ model.coef)))
        grad = z.T @ (p - y) / len(y)
        lam = 1.0 / c
        active = model.coef != 0.0
        np.testing.assert_allclose(grad[active], -lam * np.sign(model.coef[active]), atol=1e-6)
        assert np.all(np.abs(grad[~active]) <= lam + 1e-6)


def test_logistic_penalty_path_shrinks_and_kills_coefficients():
    x, y = _logit_data(seed=4)
    norms = [np.abs(fit_logistic_l1(x, y, c).coef).sum() for c in (100.0, 10.0, 1.0)]
    # with the mean loss, the gradient at zero is bounded by ~0.5, so C=1 (lambda=1)
    # already yields the null model; larger C relaxes the penalty strictly
    assert norms[0] > norms[1] > norms[2] == 0.0
    tiny_c = fit_logistic_l1(x, y, c=1e-4)
    np.testing.assert_array_equal(tiny_c.coef, np.zeros(x.shape[1]))


def test_logistic_is_invariant_to_feature_scaling():
    x, y = _logit_data(seed=5)
    scaled = x * np.array([1000.0, 0.001, 1.0, 50.0])
    a = fit_logistic_l1(x, y, c=1.0, tol=1e-10)
    b = fit_logistic_l1(scaled, y, c=1.0, tol=1e-10)
    np.testing.assert_allclose(a.coef, b.coef, atol=1e-8)
    np.testing.assert_allclose(a.predict(x), b.predict(scaled), atol=1e-8)


def test_logistic_separable_direction_and_probabilities():
    x = np.linspace(-2, 2, 40)[:, None]
    y = (x[:, 0] > 0).astype(float)
    model = fit_logistic_l1(x, y, c=10.0)
    assert model.coef[0] > 0
    p = model.predict(x)
    assert np.all((p > 0) & (p < 1))
    assert p[-1] > 0.9 > 0.1 > p[0]


def test_logistic_validation_and_non_convergence():
    x, y = _logit_data(seed=6)
    with pytest.raises(ValueError, match="C must be positive"):
        fit_logistic_l1(x, y, c=0.0)
    with pytest.raises(ValueError, match="0/1"):
        fit_logistic_l1(x, y * 2.0 - 1.0, c=1.0)
    with pytest.raises(ValueError, match="did not converge"):
        fit_logistic_l1(x, y, c=100.0, max_iter=2)


# ---------------------------------------------------------------------------
# gradient-boosted trees


def test_gbdt_single_stump_recovers_group_means_exactly():
    x = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
    y = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
    model = fit_gbdt(x, y, "regression", learning_rate=1.0, n_estimators=1, num_leaves=2)
    np.testing.assert_array_equal(model.predict(x), y)
    assert model.base_score == 2.0
    # halving the learning rate moves predictions exactly halfway to the means
    half = fit_gbdt(x, y, "regression", learning_rate=0.5, n_estimators=1, num_leaves=2)
    np.testing.assert_allclose(half.predict(x), 2.0 + 0.5 * (y - 2.0), rtol=1e-15)


def test_gbdt_stops_adding_trees_once_residuals_vanish():
    x = np.array([[-1.0], [0.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 4.0, 4.0])
    model = fit_gbdt(x, y, "regression", learning_rate=1.0, n_estimators=50, num_leaves=2)
    assert len(model.trees) == 1  # lr=1 nails the two means in one round
    np.testing.assert_array_equal(model.predict(x), y)


def test_gbdt_depends_only_on_feature_order():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 3))
    y = (x[:, 0] > 0.3).astype(float) * 2.0 + x[:, 1] + rng.normal(size=80) * 0.05
    kw = dict(learning_rate=0.3, n_estimators=12, num_leaves=6)
    a = fit_gbdt(x, y, "regression", **kw)
    b = fit_gbdt(np.exp(x), y, "regression", **kw)
    np.testing.assert_array_equal(a.predict(x), b.predict(np.exp(x)))


def test_gbdt_constant_target_yields_base_only_model():
    x = np.arange(10.0)[:, None]
    model = fit_gbdt(x, np.full(10, 3.5), "regression", 0.1, 20, 5)
    assert len(model.trees) == 0
    np.testing.assert_array_equal(model.predict(x), np.full(10, 3.5))


def test_gbdt_heavy_l1_freezes_predictions_at_the_base():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    model = fit_gbdt(x, y, "regression", 0.5, 10, 8, reg_alpha=1e6)
    np.testing.assert_array_equal(model.predict(x), np.full(40, model.base_score))


def test_gbdt_leaf_budget_is_respected():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(200, 2))
    y = np.sin(x[:, 0] * 3) + x[:, 1] ** 2
    model = fit_gbdt(x, y, "regression", 0.5, 3, 4)

    def leaves(node):
        return 1 if node.feature < 0 else leaves(node.left) + leaves(node.right)

    assert all(2 <= leaves(t) <= 4 for t in model.trees)


def test_gbdt_classification_logits_and_separation():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(100, 2))
    y = (x[:, 0] + 0.2 * x[:, 1] > 0).astype(float)
    model = fit_gbdt(x, y, "classification", 0.5, 25, 4)
    expected_base = np.log(y.mean() / (1 - y.mean()))
    assert model.base_score == pytest.approx(expected_base, rel=1e-12)
    p = model.predict(x)
    assert np.all((p > 0) & (p < 1))
    assert np.mean((p > 0.5) == (y == 1)) > 0.95


def test_gbdt_validation():
    x, y = np.ones((4, 1)), np.ones(4)
    with pytest.raises(ValueError, match="unknown task"):
        fit_gbdt(x, y, "ranking", 0.1, 5, 5)
    with pytest.raises(ValueError, match="num_leaves"):
        fit_gbdt(x, y, "regression", 0.1, 5, 1)
    with pytest.raises(ValueError, match="n_estimators"):
        fit_gbdt(x, y, "regression", 0.1, -1, 5)


# ---------------------------------------------------------------------------
# perceptron


def test_mlp_learns_a_linear_signal():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 3))
    y = x @ np.array([1.0, -1.0, 0.5])
    model = fit_mlp(x, y, "regression", hidden_size=16, alpha_l2=0.0,
                    learning_rate_init=1e-2, max_iter=60, seed=0)
    pred = model.predict(x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.9


def test_mlp_is_deterministic_and_scale_invariant():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(120, 2))
    y = x[:, 0] - x[:, 1]
    kw = dict(hidden_size=8, alpha_l2=1e-4, learning_rate_init=1e-2, max_iter=15)
    a = fit_mlp(x, y, "regression", seed=5, **kw)
    b = fit_mlp(x, y, "regression", seed=5, **kw)
    np.testing.assert_array_equal(a.predict(x), b.predict(x))
    c = fit_mlp(x * 1e6, y, "regression", seed=5, **kw)
    np.testing.assert_allclose(a.predict(x), c.predict(x * 1e6), rtol=1e-9, atol=1e-12)
    d = fit_mlp(x, y, "regression", seed=6, **kw)
    assert not np.array_equal(a.predict(x), d.predict(x))


def test_mlp_classification_outputs_probabilities():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(200, 2))
    y = (x[:, 0] > 0).astype(float)
    model = fit_mlp(x, y, "classification", hidden_size=8, alpha_l2=0.0,
                    learning_rate_init=5e-2, max_iter=40, seed=1, early_stopping=False)
    p = model.predict(x)
    assert np.all((p >= 0) & (p <= 1))
    assert np.mean((p > 0.5) == (y == 1)) > 0.9


def test_mlp_rejects_unknown_task():
    with pytest.raises(ValueError, match="unknown task"):
        fit_mlp(np.ones((10, 1)), np.ones(10), "ranking", 5, 0.0, 1e-3)


# ---------------------------------------------------------------------------
# class balancing and folds


def test_oversample_balances_and_keeps_time_order():
    x = np.arange(20.0)[:, None]
    y = np.zeros(20)
    y[[3, 11]] = 1.0
    xb, yb = oversample_minority(x, y, seed=0)
    assert int(yb.sum()) == int((yb == 0).sum()) == 18
    assert np.all(np.diff(xb[:, 0]) >= 0)  # chronological order survives duplication
    assert set(xb[yb == 1, 0]) <= {3.0, 11.0}


def test_oversample_identity_and_errors():
    x = np.arange(6.0)[:, None]
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    xb, yb = oversample_minority(x, y, seed=0)
    np.testing.assert_array_equal(xb, x)
    np.testing.assert_array_equal(yb, y)
    with pytest.raises(ValueError, match="both classes"):
        oversample_minority(x, np.zeros(6), seed=0)
    a = oversample_minority(x, np.array([0, 0, 0, 0, 0, 1.0]), seed=3)
    b = oversample_minority(x, np.array([0, 0, 0, 0, 0, 1.0]), seed=3)
    np.testing.assert_array_equal(a[0], b[0])


def test_chronological_folds_partition_in_order():
    blocks = chronological_folds(10, 3)
    assert [b.tolist() for b in blocks] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    np.testing.assert_array_equal(np.concatenate(blocks), np.arange(10))
    with pytest.raises(ValueError, match="at least 2"):
        chronological_folds(10, 1)
    with pytest.raises(ValueError, match="fewer rows"):
        chronological_folds(2, 3)


# ---------------------------------------------------------------------------
# random search + CV


def _reg_dataset(n=36, seed=14):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = x @ np.array([1.0, -0.5, 0.2]) + rng.normal(size=n) * 0.1
    return ForecastDataset(
        features=x, target=y,
        feature_names=("rv_5min", "rv_1hour", "rv_1day"),
        feature_times=np.arange(n), target_times=np.arange(n) + 1,
        horizon=FIVE_MIN, include_arr=False, task="regression",
    )


def _clf_dataset(n=60, seed=15):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + rng.normal(size=n) * 0.3 > 0).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return ForecastDataset(
        features=x, target=y,
        feature_names=("rv_5min", "rv_1hour"),
        feature_times=np.arange(n), target_times=np.arange(n) + 1,
        horizon=FIVE_MIN, include_arr=False, task="classification",
    )


def test_search_one_point_grid_refits_the_winner_on_everything():
    ds = _reg_dataset()
    grid = {"alpha": (0.1,), "fit_intercept": (True,)}
    result = random_search_cv(ds, "ridge", grid=grid, iterations=5, folds=3, seed=0)
    assert len(result.trials) == 5
    assert [t.arm for t in result.trials] == list(range(5))
    assert all(t.params == {"alpha": 0.1, "fit_intercept": True} for t in result.trials)
    assert all(t.mean_score == result.best_score for t in result.trials)
    assert all(len(t.fold_scores) == 3 for t in result.trials)
    direct = fit_ridge(ds.features, ds.target, 0.1, True)
    np.testing.assert_array_equal(result.model.coef, direct.coef)
    assert result.model.intercept == direct.intercept


def test_search_repeat_configs_reuse_the_first_evaluation():
    ds = _reg_dataset(seed=16)
    grid = {"alpha": (0.01, 1.0), "fit_intercept": (True,)}
    result = random_search_cv(ds, "ridge", grid=grid, iterations=12, folds=3, seed=1)
    assert len(result.trials) == 12
    by_alpha = {}
    for t in result.trials:
        by_alpha.setdefault(t.params["alpha"], set()).add(t.fold_scores)
    assert all(len(v) == 1 for v in by_alpha.values())  # one distinct evaluation each
    assert len(by_alpha) == 2
    assert result.best_score == max(t.mean_score for t in result.trials)


def test_search_records_failed_trials_and_survives_them():
    ds = _reg_dataset(seed=17)
    grid = {"alpha": (-1.0, 0.5), "fit_intercept": (False,)}
    result = random_search_cv(ds, "ridge", grid=grid, iterations=10, folds=2, seed=2)
    failed = [t for t in result.trials if t.error is not None]
    scored = [t for t in result.trials if t.error is None]
    assert failed and scored and len(failed) + len(scored) == 10
    assert all("non-negative" in t.error for t in failed)
    assert result.spec.params["alpha"] == 0.5
    with pytest.raises(RuntimeError, match="every search trial failed"):
        random_search_cv(ds, "ridge", grid={"alpha": (-1.0,), "fit_intercept": (False,)},
                         iterations=3, folds=2, seed=0)


def test_search_classification_with_oversampled_folds():
    ds = _clf_dataset()
    result = random_search_cv(ds, "logistic_l1", grid={"c": (1.0, 10.0)},
                              iterations=4, folds=2, seed=3)
    p = result.model.predict(ds.features)
    assert np.all((p > 0) & (p < 1))
    assert all(t.error is None for t in result.trials)
    assert result.best_score <= 1.0


def test_search_is_deterministic_and_validates_family():
    ds = _reg_dataset(seed=18)
    grid = {"alpha": (0.01, 0.1, 1.0), "fit_intercept": (False, True)}
    a = random_search_cv(ds, "ridge", grid=grid, iterations=6, folds=2, seed=7)
    b = random_search_cv(ds, "ridge", grid=grid, iterations=6, folds=2, seed=7)
    assert [t.params for t in a.trials] == [t.params for t in b.trials]
    assert a.best_score == b.best_score
    with pytest.raises(ValueError, match="unknown family"):
        random_search_cv(ds, "linear", iterations=2)


def test_default_grids_cover_all_families():
    assert set(FORECAST_GRIDS) == {"ridge", "logistic_l1", "gbdt", "mlp"}
    assert FORECAST_GRIDS["logistic_l1"]["c"] == (0.01, 0.1, 1.0, 10.0, 100.0)
    assert FORECAST_GRIDS["ridge"]["fit_intercept"] == (False, True)


# ---------------------------------------------------------------------------
# writers


def test_trials_jsonl_round_trip(tmp_path):
    ds = _reg_dataset(seed=19)
    result = random_search_cv(ds, "ridge", grid={"alpha": (0.1, -1.0), "fit_intercept": (True,)},
                              iterations=6, folds=2, seed=5)
    path = tmp_path / "trials.jsonl"
    write_trials_jsonl(result.trials, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 6
    for row, trial in zip(rows, result.trials):
        assert row["arm"] == trial.arm
        assert row["params"]["alpha"] == trial.params["alpha"]
        assert (row["error"] is None) == (trial.error is None)
        if trial.fold_scores:
            assert row["fold_scores"] == list(trial.fold_scores)
