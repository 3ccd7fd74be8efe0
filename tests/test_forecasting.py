"""Forecasting stack: feature assembly, four model families, CV random search."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrkit import forecasting
from arrkit.arr import ArrSeries
from arrkit.forecasting import (
    FORECAST_GRIDS,
    ForecastDataset,
    TreeNode,
    build_features,
    chronological_folds,
    fit_gbdt,
    fit_logistic_l1,
    fit_mlp,
    fit_ridge,
    oversample_minority,
    random_search_cv,
)
from arrkit.market_data import FIVE_MIN, ONE_DAY, ONE_HOUR, ONE_WEEK
from arrkit.returns_metrics import CrashLabels, RiskSeries, crash_labels


# ---------------------------------------------------------------------------
# feature assembly fixtures: stamped series whose value IS the stamp, so any
# as-of lookup result can be read off directly


def _stamp_series(n_sessions, interval):
    if interval == FIVE_MIN:
        offs = np.arange(1, 79) * FIVE_MIN
    elif interval == ONE_HOUR:
        offs = np.arange(1, 7) * ONE_HOUR
    elif interval == ONE_DAY:
        offs = np.array([23400])
    else:
        return np.arange(4, n_sessions, dtype=np.int64) * 86400 + 34200 + 23400
    return np.concatenate(
        [d * 86400 + 34200 + offs for d in range(n_sessions)]
    ).astype(np.int64)


def _series_maps(n_sessions=12):
    rv, arr = {}, {}
    for d in (FIVE_MIN, ONE_HOUR, ONE_DAY, ONE_WEEK):
        ts = _stamp_series(n_sessions, d)
        vals = ts.astype(np.float64)
        rv[d] = RiskSeries(ts, vals, "log_rv")
        arr[d] = ArrSeries(ts, vals, d, "pca")
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
    # delay weekly ratio coverage by one session; both datasets must lose those rows
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
    rv, arr = _series_maps(n_sessions=16)
    ds = build_features(rv, arr, ONE_WEEK, include_arr=False)
    anchor = rv[ONE_WEEK]
    pos = np.searchsorted(anchor.timestamps, ds.feature_times)
    np.testing.assert_array_equal(ds.target_times, anchor.timestamps[pos + 5])


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


def test_empty_crash_labels_name_the_warm_up():
    rv, arr = _series_maps(n_sessions=16)
    daily = rv[ONE_DAY].timestamps
    market = RiskSeries(daily, np.random.default_rng(0).normal(size=len(daily)), "return")
    crash = crash_labels(market, half_life=10.0)  # the first 30 stamps are warm-up
    assert len(crash.labels) == 0
    with pytest.raises(ValueError, match="1day horizon: 16 windows against 30 warm-up stamps"):
        build_features(rv, arr, ONE_DAY, include_arr=True, crash=crash)


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
    assert ForecastDataset(**base).features.shape == (3, 1)
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


def test_gbdt_threshold_between_adjacent_doubles_sends_the_upper_value_right():
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)  # (lo + hi) / 2 rounds to hi
    x = np.repeat([lo, hi], 5)[:, None]
    y = np.repeat([0.0, 1.0], 5)
    model = fit_gbdt(x, y, "regression", learning_rate=1.0, n_estimators=1, num_leaves=2)
    assert model.trees[0].threshold == lo
    np.testing.assert_array_equal(model.predict(x), y)


# The split finder as it was before the one-pass search, a Python loop over features,
# kept as the oracle. Its one change is the threshold rule of the test above.


def _oracle_leaf_values(g, h, alpha, beta):
    g = np.atleast_1d(np.asarray(g, dtype=np.float64))
    shrunk = np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)
    denom = np.atleast_1d(np.asarray(h, dtype=np.float64)) + beta
    safe = denom > 0
    weight = np.where(safe, -shrunk / np.where(safe, denom, 1.0), 0.0)
    score = np.where(safe, 0.5 * shrunk * shrunk / np.where(safe, denom, 1.0), 0.0)
    return weight, score


class _OracleLeaf:
    def __init__(self, rows, node):
        self.rows, self.node, self.gain = rows, node, -np.inf


def _oracle_find_split(x, g, h, rows, orders, in_leaf, alpha, beta, leaf):
    g_tot = float(g[rows].sum())
    h_tot = float(h[rows].sum())
    _, parent = _oracle_leaf_values(g_tot, h_tot, alpha, beta)
    parent = float(parent[0])
    in_leaf[:] = False
    in_leaf[rows] = True
    best_gain = 0.0
    for f in range(x.shape[1]):
        order = orders[f][in_leaf[orders[f]]]
        xs = x[order, f]
        if xs[0] == xs[-1]:
            continue
        cg = np.cumsum(g[order])[:-1]
        ch = np.cumsum(h[order])[:-1]
        boundary = np.flatnonzero(xs[:-1] < xs[1:])
        if boundary.size == 0:
            continue
        _, s_left = _oracle_leaf_values(cg[boundary], ch[boundary], alpha, beta)
        _, s_right = _oracle_leaf_values(g_tot - cg[boundary], h_tot - ch[boundary], alpha, beta)
        gains = s_left + s_right - parent
        j = int(np.argmax(gains))  # first max -> lowest threshold wins ties
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            cut = boundary[j]
            leaf.gain = best_gain
            leaf.feature = f
            mid = (xs[cut] + xs[cut + 1]) / 2.0
            leaf.threshold = mid if mid < xs[cut + 1] else xs[cut]
            leaf.left_rows = order[: cut + 1]
            leaf.right_rows = order[cut + 1 :]
    if best_gain <= 0.0:
        leaf.gain = -np.inf


def _oracle_build_tree(x, g, h, num_leaves, alpha, beta, _orders):
    orders = [np.argsort(x[:, f], kind="stable") for f in range(x.shape[1])]
    in_leaf = np.zeros(len(g), dtype=bool)
    root = TreeNode()
    all_rows = np.arange(len(g))
    first = _OracleLeaf(all_rows, root)
    _oracle_find_split(x, g, h, all_rows, orders, in_leaf, alpha, beta, first)
    leaves = [first]
    while len(leaves) < num_leaves:
        pick_at = -1
        for i, leaf in enumerate(leaves):  # earliest leaf wins gain ties
            if leaf.gain > 0 and (pick_at < 0 or leaf.gain > leaves[pick_at].gain):
                pick_at = i
        if pick_at < 0:
            break
        pick = leaves[pick_at]
        pick.node.feature = pick.feature
        pick.node.threshold = pick.threshold
        pick.node.left = TreeNode()
        pick.node.right = TreeNode()
        left = _OracleLeaf(pick.left_rows, pick.node.left)
        right = _OracleLeaf(pick.right_rows, pick.node.right)
        _oracle_find_split(x, g, h, left.rows, orders, in_leaf, alpha, beta, left)
        _oracle_find_split(x, g, h, right.rows, orders, in_leaf, alpha, beta, right)
        leaves[pick_at] = left
        leaves.append(right)
    for leaf in leaves:
        w, _ = _oracle_leaf_values(float(g[leaf.rows].sum()), float(h[leaf.rows].sum()), alpha, beta)
        leaf.node.value = float(w[0])
    return root


def _tree_bits(node) -> list:
    """Preorder (feature, threshold, value) of a tree, the floats as hex."""
    out = [(int(node.feature), float(node.threshold).hex(), float(node.value).hex())]
    return out if node.feature < 0 else out + _tree_bits(node.left) + _tree_bits(node.right)


def _feature_column(kind, values, n):
    if kind == "constant":
        return np.full(n, values[0])
    if kind == "ties":
        return np.round(np.asarray(values), 0)
    if kind == "adjacent doubles":  # their midpoint rounds onto the upper value
        lo = np.nextafter(1.0, 2.0)
        return np.where(np.asarray(values) > 0, np.nextafter(lo, 2.0), lo)
    return np.asarray(values)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["regression", "classification"]),
    st.integers(1, 24),
    st.lists(st.sampled_from(["constant", "ties", "floats", "adjacent doubles"]),
             min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.integers(1, 6),
    st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
    st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
    st.sampled_from([0.1, 1.0]),
)
def test_one_pass_split_search_grows_the_oracle_trees_bitwise(
    task, n, kinds, seed, num_leaves, n_estimators, reg_alpha, reg_beta, learning_rate
):
    """Trees and predictions equal the per-feature oracle's bit for bit, over ties,
    constant features, one- and two-row leaves and leaf budgets above the row count."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([_feature_column(k, rng.normal(scale=2.0, size=n), n) for k in kinds])
    y = rng.normal(size=n) + x[:, 0]
    if task == "classification":
        y = (y > np.median(y)).astype(np.float64)
    kw = dict(learning_rate=learning_rate, n_estimators=n_estimators, num_leaves=num_leaves,
              reg_alpha=reg_alpha, reg_beta=reg_beta)
    model = fit_gbdt(x, y, task, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forecasting, "_build_tree", _oracle_build_tree)
        oracle = fit_gbdt(x, y, task, **kw)
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in oracle.trees]
    assert model.raw_predict(x).tobytes() == oracle.raw_predict(x).tobytes()


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
                    learning_rate_init=5e-2, max_iter=40, seed=1)
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
    assert all(len(t.fold_scores) == 3 and t.folds_scored == 3 for t in result.trials)
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
    with pytest.raises(RuntimeError, match="every search trial failed") as failed_all:
        random_search_cv(ds, "ridge", grid={"alpha": (-1.0,), "fit_intercept": (False,)},
                         iterations=3, folds=2, seed=0)
    assert str(failed_all.value).endswith("; arm 0: alpha must be non-negative")  # the cause


def test_search_classification_with_oversampled_folds():
    ds = _clf_dataset()
    result = random_search_cv(ds, "logistic_l1", grid={"c": (1.0, 10.0)},
                              iterations=4, folds=2, seed=3)
    p = result.model.predict(ds.features)
    assert np.all((p > 0) & (p < 1))
    assert all(t.error is None for t in result.trials)
    assert result.best_score <= 1.0


def test_search_skips_a_fold_whose_validation_block_holds_one_class():
    # 41 rows with 6 crashes in 3 folds of 14, 14 and 13 rows: the middle block has none
    rng = np.random.default_rng(19)
    y = np.zeros(41, dtype=np.int64)
    y[[2, 5, 9, 30, 34, 38]] = 1
    x = np.column_stack([y + rng.normal(size=41) * 0.8, rng.normal(size=41)])
    ds = ForecastDataset(
        features=x, target=y, feature_names=("rv_5min", "rv_1hour"),
        feature_times=np.arange(41), target_times=np.arange(41) + 1,
        horizon=FIVE_MIN, include_arr=False, task="classification",
    )
    assert y[chronological_folds(41, 3)[1]].max() == 0
    result = random_search_cv(ds, "logistic_l1", grid={"c": (1.0, 10.0)},
                              iterations=3, folds=3, seed=4)
    assert all(t.error is None for t in result.trials)
    assert all(t.folds_scored == 2 and len(t.fold_scores) == 2 for t in result.trials)
    assert result.best_score == max(t.mean_score for t in result.trials)
    # no block holds both classes: the cell fails with that reason
    one_class_blocks = dataclasses.replace(ds, target=np.repeat([1, 0], [21, 20]))
    with pytest.raises(ValueError, match="^no CV fold holds both classes$"):
        random_search_cv(one_class_blocks, "logistic_l1", grid={"c": (1.0,)},
                         iterations=2, folds=2, seed=4)


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


def test_cv_training_folds_are_the_rows_outside_each_block(monkeypatch):
    """Each fold trains on the rows outside its validation block, in order: the indices of
    np.setdiff1d(arange(n), block)."""
    import arrkit.forecasting as forecasting

    seen = []

    def record(x, y, rng):
        seen.append(x[:, 0].astype(np.int64))
        return x, y

    monkeypatch.setattr(forecasting, "oversample_minority", record)
    for n, folds in ((60, 2), (61, 3), (47, 5)):
        ds = _clf_dataset(n=n, seed=n)
        ds = ForecastDataset(**{**ds.__dict__, "features": np.column_stack([np.arange(n), ds.features]),
                                "feature_names": ("row", *ds.feature_names)})
        seen.clear()
        random_search_cv(ds, "logistic_l1", grid={"c": (1.0,)}, iterations=1, folds=folds, seed=0)
        blocks = chronological_folds(n, folds)
        assert len(seen) == folds + 1  # one per fold, then the refit on every row
        for tr, block in zip(seen, blocks):
            np.testing.assert_array_equal(tr, np.setdiff1d(np.arange(n), block))
        np.testing.assert_array_equal(seen[-1], np.arange(n))


@pytest.mark.parametrize("labels", [
    [0.0, 1.0, 1.0], [0, 1, 0], [True, False, True], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
    [0.0, 2.0, 1.0], [-1.0, 1.0, 0.0], [0.5, 1.0, 0.0], [np.nan, 1.0, 0.0], [-0.0, 1.0, 0.0],
])
def test_logistic_label_check_accepts_exactly_zero_and_one(labels):
    y = np.asarray(labels, dtype=np.float64)
    x = np.arange(6.0).reshape(3, 2)
    if set(np.unique(y)) - {0.0, 1.0}:  # the rule before: any label outside {0, 1}
        with pytest.raises(ValueError, match="^labels must be 0/1$"):
            fit_logistic_l1(x, y, c=1.0)
    else:
        fit_logistic_l1(x, y, c=1.0)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("which", ["pred_a", "pred_b"])
def test_forecast_cell_fails_on_non_finite_predictions(monkeypatch, task, which):
    """A model that predicts NaN ends its cell failed, not with the strongest p-value."""
    import types

    import arrkit.pipeline as pipeline

    ds = _clf_dataset() if task == "classification" else _reg_dataset()
    train = pipeline._subset_dataset(ds, np.arange(30))
    test = pipeline._subset_dataset(ds, np.arange(30, len(ds.target)))
    calls = []

    def search(dataset, family, **kwargs):
        calls.append(family)
        preds = np.full(len(test.target), 0.5)
        if (len(calls) == 1) == (which == "pred_a"):  # with_arr's search comes first
            preds[3] = np.nan
        model = types.SimpleNamespace(predict=lambda features: preds)
        return types.SimpleNamespace(model=model, spec=types.SimpleNamespace(params={}), best_score=0.0)

    monkeypatch.setattr(pipeline, "random_search_cv", search)
    family = "logistic_l1" if task == "classification" else "ridge"
    splits = {True: (train, test), False: (train, test)}
    row = pipeline._forecast_cell((FIVE_MIN, task, family, splits, 1, 2, 0, 0))
    assert row["status"] == "failed"
    assert row["reason"] == f"non-finite values in {which}"
    assert "p_value" not in row
