"""Evaluation statistics vs independent oracles: R^2, AUROC, Spearman, bootstrap, KDE."""

import numpy as np
import pytest
from scipy import stats as sps

from arrkit.stats import (
    BootstrapResult,
    KdeGrid,
    auroc,
    kde2d,
    kde_mass,
    paired_bootstrap,
    r_squared,
    spearman,
)


# ---------------------------------------------------------------------------
# pooled R^2


def test_r_squared_definitional_oracle():
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    p = y + rng.normal(size=200) * 0.3
    ss_res = float(np.sum((y - p) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert r_squared(y, p) == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)


def test_r_squared_fixed_points():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(y, np.full(4, y.mean())) == 0.0
    # predicting the wrong half doubles the residual to 2x the total spread
    assert r_squared(y, y[::-1]) == pytest.approx(1.0 - 20.0 / 5.0)


def test_r_squared_pools_multi_output_by_flattening():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(50, 3))
    p = y + rng.normal(size=(50, 3)) * 0.1
    assert r_squared(y, p) == r_squared(y.ravel(), p.ravel())


def test_r_squared_is_shift_invariant():
    rng = np.random.default_rng(2)
    y = rng.normal(size=40)
    p = y + rng.normal(size=40) * 0.5
    assert r_squared(y + 7.0, p + 7.0) == pytest.approx(r_squared(y, p), abs=1e-12)


def test_r_squared_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        r_squared(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="empty"):
        r_squared(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="constant target"):
        r_squared(np.ones(5), np.zeros(5))


# equal targets whose mean rounds, so their two-pass sum of squares is not exactly 0
@pytest.mark.parametrize("value", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("n", [3, 5, 7, 10])
def test_r_squared_rejects_every_constant_target(value, n):
    with pytest.raises(ValueError, match="constant target"):
        r_squared(np.full(n, value), np.full(n, value + 0.01))


# ---------------------------------------------------------------------------
# AUROC


def _auroc_by_enumeration(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auroc_hand_example():
    labels = np.array([1, 0, 1, 0])
    scores = np.array([0.9, 0.8, 0.7, 0.1])
    assert auroc(labels, scores) == 0.75


def test_auroc_matches_pair_enumeration_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 25))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 5, size=n).astype(float)  # coarse grid forces ties
        assert auroc(labels, scores) == pytest.approx(
            _auroc_by_enumeration(labels, scores), abs=1e-12
        )


def test_auroc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    scores = rng.normal(size=50)
    base = auroc(labels, scores)
    assert auroc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
    assert auroc(labels, 3.0 * scores - 11.0) == pytest.approx(base, abs=1e-12)
    assert auroc(labels, -scores) == pytest.approx(1.0 - base, abs=1e-12)


def test_auroc_extremes_and_validation():
    labels = np.array([0, 0, 1, 1])
    assert auroc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert auroc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert auroc(labels, np.zeros(4)) == 0.5
    with pytest.raises(ValueError, match="both classes"):
        auroc(np.ones(4), np.arange(4.0))
    with pytest.raises(ValueError, match="shape mismatch"):
        auroc(labels, np.ones(3))


# ---------------------------------------------------------------------------
# Spearman


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        x = rng.integers(0, 8, size=n).astype(float)
        y = x + rng.normal(size=n)
        if np.unique(x).size < 2:
            continue
        expected = sps.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_monotone_extremes_and_validation():
    x = np.arange(10.0)
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="constant input"):
        spearman(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError, match="at least 2"):
        spearman(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError, match="shape mismatch"):
        spearman(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# paired bootstrap


def test_bootstrap_identical_models_never_win():
    rng = np.random.default_rng(6)
    y = rng.normal(size=80)
    p = y + rng.normal(size=80) * 0.2
    res = paired_bootstrap(y, p, p, metric="r2", n_resamples=200, seed=0)
    assert res.observed_diff == 0.0
    assert res.p_value == 1.0
    assert res.n_failing == 200
    assert res.p_string() == "p>0.995"


def test_bootstrap_dominant_model_hits_the_floor():
    rng = np.random.default_rng(7)
    y = rng.normal(size=120)
    good = y + rng.normal(size=120) * 0.01
    bad = rng.normal(size=120)
    res = paired_bootstrap(y, good, bad, metric="r2", n_resamples=500, seed=1)
    assert res.observed_diff > 0
    assert res.n_failing == 0 and res.p_value == 0.0
    assert res.p_string() == "p<0.002"


def test_bootstrap_p_value_is_the_losing_fraction():
    rng = np.random.default_rng(8)
    y = rng.normal(size=60)
    a = y + rng.normal(size=60) * 0.9
    b = y + rng.normal(size=60) * 1.0
    res = paired_bootstrap(y, a, b, metric="r2", n_resamples=250, seed=2)
    assert len(res.samples) == 250
    assert res.p_value == np.mean(res.samples <= 0.0)
    assert res.p_string() == f"p={res.p_value:g}"


def test_bootstrap_deterministic_by_seed():
    rng = np.random.default_rng(9)
    y = rng.normal(size=50)
    a = y + rng.normal(size=50) * 0.5
    b = y + rng.normal(size=50) * 0.6
    r1 = paired_bootstrap(y, a, b, n_resamples=100, seed=5)
    r2 = paired_bootstrap(y, a, b, n_resamples=100, seed=5)
    np.testing.assert_array_equal(r1.samples, r2.samples)
    r3 = paired_bootstrap(y, a, b, n_resamples=100, seed=6)
    assert not np.array_equal(r1.samples, r3.samples)


def test_bootstrap_redraws_one_class_auroc_resamples():
    rng = np.random.default_rng(10)
    labels = np.zeros(30)
    labels[:2] = 1.0  # rare positives: some resamples will miss them entirely
    scores_a = labels + rng.normal(size=30) * 0.5
    scores_b = rng.normal(size=30)
    res = paired_bootstrap(labels, scores_a, scores_b, metric="auroc", n_resamples=300, seed=3)
    assert len(res.samples) == 300
    assert np.all(np.isfinite(res.samples))


def test_bootstrap_gives_up_when_metric_is_never_defined():
    def picky(y, p):
        if np.unique(y).size < y.size:
            raise ValueError("duplicate rows")
        return 0.0

    y = np.arange(40.0)
    with pytest.raises(ValueError, match="degenerate resamples"):
        paired_bootstrap(y, y, y, metric=picky, n_resamples=50, seed=0)


def test_bootstrap_validation_and_one_class_observed():
    y = np.ones(10)
    with pytest.raises(ValueError, match="both classes"):
        paired_bootstrap(y, y, y, metric="auroc", n_resamples=10)
    with pytest.raises(ValueError, match="shape mismatch"):
        paired_bootstrap(np.ones(5), np.ones(4), np.ones(5))
    with pytest.raises(ValueError, match="positive"):
        paired_bootstrap(np.arange(5.0), np.ones(5), np.ones(5), n_resamples=0)


def _same_as_gathering(y, a, b, n_resamples, seed):
    """metric="r2" scores resamples from row counts; r_squared as a callable gathers rows."""
    fast = paired_bootstrap(y, a, b, metric="r2", n_resamples=n_resamples, seed=seed)
    slow = paired_bootstrap(y, a, b, metric=r_squared, n_resamples=n_resamples, seed=seed)
    assert fast.observed_diff == slow.observed_diff
    assert fast.n_failing == slow.n_failing and fast.p_value == slow.p_value
    np.testing.assert_allclose(fast.samples, slow.samples, rtol=0, atol=1e-12)
    return fast


# mean -15: a log realized-variance target; with std 1e-3 the uncentered one-pass sum of
# squares would lose about eight digits to cancellation
@pytest.mark.parametrize("mean,std", [(0.0, 1.0), (-15.0, 1.0), (-15.0, 1e-3)])
def test_bootstrap_r2_from_row_counts_matches_gathered_rows(mean, std):
    rng = np.random.default_rng(13)
    y = mean + rng.normal(size=400) * std
    a = y + rng.normal(size=400) * 0.70 * std
    b = y + rng.normal(size=400) * 0.72 * std  # close models: both sides of zero get resamples
    res = _same_as_gathering(y, a, b, n_resamples=300, seed=4)
    assert 0 < res.n_failing < 300


def test_bootstrap_r2_from_row_counts_pools_multi_output_rows():
    rng = np.random.default_rng(14)
    y = rng.normal(size=(50, 3))
    _same_as_gathering(y, y + rng.normal(size=(50, 3)) * 0.5, y + rng.normal(size=(50, 3)) * 0.6, 200, 7)


def test_bootstrap_r2_from_row_counts_redraws_constant_target_resamples():
    y = np.array([0.0, 0.0, 0.1])
    a = np.array([0.01, -0.02, 0.12])
    b = np.array([0.03, 0.01, 0.05])
    seed, n_resamples = 2, 40
    # replay the draws: some resample takes only the two equal targets
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, 3, size=3) for _ in range(2 * n_resamples)]
    assert any(np.unique(y[idx]).size == 1 for idx in draws[:n_resamples])
    res = _same_as_gathering(y, a, b, n_resamples, seed)
    assert np.all(np.isfinite(res.samples))


def test_p_string_mid_range_formatting():
    res = BootstrapResult(0.1, 0.124, 500, 62, np.zeros(500))
    assert res.p_string() == "p=0.124"


# ---------------------------------------------------------------------------
# kernel density


def test_kde_mass_is_nearly_one():
    rng = np.random.default_rng(11)
    grid = kde2d(rng.normal(size=400), rng.normal(size=400) * 2.0 + 1.0)
    assert 0.97 <= kde_mass(grid) <= 1.001


def test_kde_peak_sits_on_a_tight_cluster():
    rng = np.random.default_rng(12)
    x = 2.0 + rng.normal(size=200) * 0.05
    y = -1.0 + rng.normal(size=200) * 0.05
    grid = kde2d(x, y, grid_size=80)
    i, j = np.unravel_index(np.argmax(grid.density), grid.density.shape)
    assert abs(grid.x_grid[i] - 2.0) < 0.05
    assert abs(grid.y_grid[j] + 1.0) < 0.05


def test_kde_density_orientation_follows_axes():
    # mass concentrated at large x / small y must appear at (high x index, low y index)
    rng = np.random.default_rng(13)
    x = np.concatenate([np.full(100, 5.0), np.full(10, 0.0)]) + rng.normal(size=110) * 0.1
    y = np.concatenate([np.full(100, -5.0), np.full(10, 0.0)]) + rng.normal(size=110) * 0.1
    grid = kde2d(x, y, grid_size=50)
    i, j = np.unravel_index(np.argmax(grid.density), grid.density.shape)
    assert grid.x_grid[i] > 2.5 and grid.y_grid[j] < -2.5


def test_kde_mirroring_flips_the_density():
    rng = np.random.default_rng(14)
    x = rng.normal(size=150)
    y = rng.normal(size=150)
    a = kde2d(x, y, grid_size=32)
    b = kde2d(-x, y, grid_size=32)
    np.testing.assert_allclose(b.x_grid, -a.x_grid[::-1], atol=1e-12)
    np.testing.assert_allclose(b.density, a.density[::-1, :], rtol=1e-10, atol=1e-15)


def test_kde_bandwidths_follow_scott_rule():
    rng = np.random.default_rng(15)
    x = rng.normal(size=64)
    y = rng.normal(size=64) * 3.0
    grid = kde2d(x, y)
    assert grid.bandwidth_x == pytest.approx(x.std(ddof=1) * 64 ** (-1 / 6), rel=1e-12)
    assert grid.bandwidth_y == pytest.approx(y.std(ddof=1) * 64 ** (-1 / 6), rel=1e-12)
    assert grid.density.shape == (64, 64)
    assert np.all(grid.density >= 0.0)


def test_kde_validation():
    with pytest.raises(ValueError, match="at least 10"):
        kde2d(np.arange(5.0), np.arange(5.0))
    with pytest.raises(ValueError, match="zero variance"):
        kde2d(np.ones(20), np.arange(20.0))
    with pytest.raises(ValueError, match="shape mismatch"):
        kde2d(np.ones(12), np.ones(13))
