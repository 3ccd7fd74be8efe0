"""Evaluation statistics vs independent oracles: R^2, AUROC, Spearman, bootstrap, KDE."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrkit.stats import (
    BootstrapResult,
    KdeGrid,
    auroc,
    bucket_r2_bootstrap,
    kde2d,
    kde_mass,
    paired_bootstrap,
    r_squared,
    rankdata,
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
# ranks

# few distinct values, so most draws tie; +-0.0 compare equal and must tie too
_TIE_PRONE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 5e-324])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_TIE_PRONE, st.floats(allow_nan=False, width=64)), max_size=40),
    st.none() | st.integers(0, 40),
)
@example([], None)
@example([3.0], None)
@example([3.0], 0)
@example([0.0, -0.0], None)
@example([np.inf, -np.inf], 1)
def test_rankdata_is_bitwise_scipy_rankdata(values, nan_at):
    sps = pytest.importorskip("scipy.stats")
    x = np.array(values, dtype=np.float64)
    if nan_at is not None:
        x = np.insert(x, min(nan_at, x.size), np.nan)
    got = rankdata(x)
    want = sps.rankdata(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if nan_at is not None:
        assert np.isnan(got).all()


# ---------------------------------------------------------------------------
# Spearman


def test_spearman_matches_scipy_with_ties():
    sps = pytest.importorskip("scipy.stats")
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


def _replay_block_draws(seed, n, count):
    """The first `count` block starts a bootstrap of n rows draws from `seed`, and L."""
    length = next(L for L in itertools.count(1) if L ** 3 >= n)
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=-(-n // length)) for _ in range(count)], length


def _block_rows(starts, n, length):
    """Rows of one resample: a circular block of `length` rows from each start, wrapping
    past row n - 1, the whole cut to n rows."""
    rows = [(s + j) % n for s in starts for j in range(length)]
    return np.array(rows[:n])


@pytest.mark.parametrize("n,width", [(1, 2), (10, 1), (29, 3), (101, 1)])
def test_bootstrap_resample_is_the_circular_blocks_of_its_replayed_starts(n, width):
    y = np.arange(n * width, dtype=np.float64).reshape(n, width)
    seen = []

    def record(y_true, pred):
        seen.append(np.array(y_true))
        return 0.0

    n_resamples = 30
    res = paired_bootstrap(y, y, y, metric=record, n_resamples=n_resamples, seed=11)
    draws, length = _replay_block_draws(11, n, n_resamples)
    assert res.block_length == length
    if n > 1:  # some block wraps, and (n not a multiple of L) the last one is cut
        assert any(s + length > n for starts in draws for s in starts[:-1])
        assert n % length != 0
    assert len(seen) == 2 + 2 * n_resamples  # the full sample for A and B, then each resample
    for i, starts in enumerate(draws):
        rows = _block_rows(starts, n, length)
        for got in seen[2 + 2 * i: 4 + 2 * i]:
            np.testing.assert_array_equal(got, y[rows])


def _same_as_gathering(y, a, b, n_resamples, seed):
    """metric="r2" scores resamples from running row totals; r_squared as a callable
    gathers the rows."""
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
    # replay the block draws: some resample takes only the two equal targets
    draws, length = _replay_block_draws(seed, 3, 2 * n_resamples)
    assert any(np.unique(y[_block_rows(s, 3, length)]).size == 1 for s in draws[:n_resamples])
    res = _same_as_gathering(y, a, b, n_resamples, seed)
    assert np.all(np.isfinite(res.samples))


def _auroc_same_as_gathering(labels, a, b, n_resamples, seed):
    """metric="auroc" scores resamples from row counts against one sort of each model's
    scores; `auroc` as a callable gathers the rows and ranks them: the bits must agree."""
    fast = paired_bootstrap(labels, a, b, metric="auroc", n_resamples=n_resamples, seed=seed)
    slow = paired_bootstrap(labels, a, b, metric=auroc, n_resamples=n_resamples, seed=seed)
    assert fast.observed_diff == slow.observed_diff
    assert fast.n_failing == slow.n_failing and fast.p_value == slow.p_value
    np.testing.assert_array_equal(fast.samples, slow.samples)
    assert fast.samples.tobytes() == slow.samples.tobytes()  # -0.0 and 0.0 apart
    return fast


# finite levels only: the bootstrap refuses non-finite scores; +-0.0 and +-5e-324 must tie
# or not exactly as `rankdata` ties them
_LEVELS = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e300])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 300),
    st.integers(1, len(_LEVELS)),
    st.sampled_from([0.02, 0.1, 0.5, 0.9]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(2, 1, 0.5, 0.0, 0)
def test_bootstrap_auroc_from_row_counts_is_bitwise_the_gathered_auroc(
    n, n_levels, positive_rate, continuous_share, seed
):
    rng = np.random.default_rng(seed)

    def scores():  # tie-prone levels, some rows replaced by continuous draws
        s = rng.choice(_LEVELS[:n_levels], size=n)
        return np.where(rng.random(n) < continuous_share, rng.normal(size=n), s)

    labels = (rng.random(n) < positive_rate).astype(np.float64)
    if labels.min() == labels.max():  # both classes in the full sample
        labels[0] = 1.0 - labels[0]
    _auroc_same_as_gathering(labels, scores(), scores(), n_resamples=40, seed=seed)


def test_bootstrap_auroc_from_row_counts_redraws_rare_positive_resamples():
    rng = np.random.default_rng(21)
    labels = np.zeros(30)
    labels[[4, 17]] = 1.0
    a = np.round(labels + rng.normal(size=30), 1)  # rounded: ties within and across classes
    b = np.round(rng.normal(size=30), 1)
    seed, n_resamples = 3, 300
    draws, length = _replay_block_draws(seed, 30, n_resamples)
    assert any(labels[_block_rows(s, 30, length)].max() == 0.0 for s in draws)  # some are redrawn
    res = _auroc_same_as_gathering(labels, a, b, n_resamples, seed)
    assert 0 < res.n_failing < n_resamples


def test_bootstrap_auroc_from_row_counts_all_equal_scores():
    labels = np.array([0.0, 1.0] * 10)
    res = _auroc_same_as_gathering(labels, np.full(20, 0.3), np.full(20, -0.0), 50, 1)
    assert res.observed_diff == 0.0 and np.all(res.samples == 0.0)


class _ScriptedStarts:
    """Stands in for the bootstrap's generator: draw d returns the block starts
    `script(d)`, so a test can choose a run of degenerate draws no seed would give."""

    def __init__(self, script):
        self.script, self.draws = script, 0

    def integers(self, low, high, size):
        starts = np.array(self.script(self.draws))
        assert starts.shape == (size,) and low <= starts.min() and starts.max() < high
        self.draws += 1
        return starts


def test_bootstrap_auroc_from_row_counts_exhausts_draws_like_the_gathered_path(monkeypatch):
    # 3 rows make k = 2 blocks of L = 2, the second cut to one row: starts (1, 2) take rows
    # 1, 2, 2, one class; starts (2, 0) take rows 2, 0, 0, both (a block wraps). A run of
    # 20 one-class block draws has a chance below 1e-13, so the starts are scripted.
    labels, a, b = np.array([1.0, 0.0, 0.0]), np.array([0.3, 0.1, 0.2]), np.array([0.0, 0.1, 0.2])

    def run(metric, n_resamples, script):
        gen = _ScriptedStarts(script)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: gen)
        try:
            return paired_bootstrap(labels, a, b, metric=metric, n_resamples=n_resamples, seed=0)
        finally:
            assert gen.draws == 20 * n_resamples

    for metric in ("auroc", auroc):
        with pytest.raises(ValueError, match="^too many degenerate resamples; metric rarely defined$"):
            run(metric, 1, lambda d: [1, 2])
    # two resamples allow 40 draws, and the last two find both classes
    script = lambda d: [2, 0] if d >= 38 else [1, 2]  # noqa: E731
    fast, slow = (run(metric, 2, script) for metric in ("auroc", auroc))
    assert fast.samples.tobytes() == slow.samples.tobytes()
    assert fast.n_failing == slow.n_failing == 0  # A ranks the positive first, B last


def test_bootstrap_auroc_from_row_counts_at_a_test_year_of_windows():
    rng = np.random.default_rng(22)
    n = 20_000
    labels = (rng.random(n) < 0.05).astype(np.float64)
    a = np.round(labels * 0.3 + rng.random(n), 2)  # about 130 levels: heavy ties
    b = np.round(rng.random(n), 2)
    res = _auroc_same_as_gathering(labels, a, b, n_resamples=20, seed=5)
    assert res.observed_diff > 0


@pytest.mark.parametrize("metric", ["r2", "auroc"])
@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bootstrap_refuses_non_finite_inputs(metric, which, bad):
    rng = np.random.default_rng(23)
    y = (rng.random(100) < 0.3).astype(np.float64)
    args = [y, y + rng.normal(size=100), rng.normal(size=100)]
    args[which] = args[which].copy()
    args[which][37] = bad
    name = ("y_true", "pred_a", "pred_b")[which]
    with pytest.raises(ValueError, match=f"^non-finite values in {name}$"):
        paired_bootstrap(*args, metric=metric, n_resamples=50, seed=0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 500), st.integers(1, 3), st.sampled_from([0.0, -15.0]), st.integers(0, 2**32 - 1))
@example(1, 2, 0.0, 0)
@example(2, 1, 0.0, 0)
def test_block_bootstrap_fast_paths_match_the_gathered_rows(n, width, mean, seed):
    """Over wrapped blocks, cut last blocks and multi-output rows: r2 from running totals
    to 1e-12 of `r_squared` on the gathered rows, auroc from row counts bitwise.

    The targets are distinct and evenly spaced (shuffled, unit variance). Two nearly equal
    targets would let a small resample's total sum of squares cancel to a few digits, on
    this path and on the gathered one alike, and its R^2 difference run into thousands.
    """
    assume(n * width >= 2)
    rng = np.random.default_rng(seed)
    shape = (n,) if width == 1 else (n, width)
    y = mean + (rng.permutation(n * width).reshape(shape) / (n * width) - 0.5) * 12 ** 0.5
    a = y + rng.normal(size=shape) * 0.7
    b = y + rng.normal(size=shape) * 0.72
    _same_as_gathering(y, a, b, n_resamples=20, seed=seed)
    labels = (rng.random(shape) < 0.5).astype(np.float64)
    if labels.min() == labels.max():
        labels.flat[0] = 1.0 - labels.flat[0]
    _auroc_same_as_gathering(labels, np.round(a, 1), np.round(b, 1), n_resamples=20, seed=seed)


def test_block_bootstrap_holds_its_size_where_iid_rows_do_not():
    """An AR(1) target (phi 0.9, n 400) and two equally good predictions whose errors
    persist over four rows: at alpha 0.05 the i.i.d. row bootstrap rejects the true null
    far too often, and the circular block bootstrap close to 5% of the time."""
    reps, n, n_resamples, burn = 200, 400, 200, 100
    rng = np.random.default_rng(25)
    shocks = rng.normal(size=(reps, n + burn))
    y = shocks.copy()
    for t in range(1, n + burn):
        y[:, t] += 0.9 * y[:, t - 1]
    y = y[:, burn:]
    white = rng.normal(size=(2, reps, n + 3))
    errors = (white[..., 3:] + white[..., 2:-1] + white[..., 1:-2] + white[..., :-3]) / 2
    rejected = {"iid": 0, "block": 0}
    for r in range(reps):
        a, b = y[r] + errors[0, r], y[r] + errors[1, r]
        # a resample's R^2 difference has the sign of its summed loss differential
        loss_diff = (y[r] - b) ** 2 - (y[r] - a) ** 2
        iid = loss_diff[rng.integers(0, n, size=(n_resamples, n))].sum(1)
        rejected["iid"] += np.mean(iid <= 0.0) < 0.05
        rejected["block"] += paired_bootstrap(y[r], a, b, n_resamples=n_resamples, seed=r).p_value < 0.05
    se = np.sqrt(0.05 * 0.95 / reps)  # binomial standard error at the nominal level
    assert rejected["iid"] / reps > 0.05 + 4 * se
    assert abs(rejected["block"] / reps - 0.05) <= 2 * se


def test_bootstrap_r2_allocates_running_totals_and_one_row_by_width_buffer():
    """Beyond its inputs the r2 path holds 32 B of running totals per row and one
    row-by-width work buffer; a doubled prefix of the totals would add 32 B a row more."""
    n, width = 20_000, 5
    rng = np.random.default_rng(26)
    y = rng.normal(size=(n, width))
    a, b = y + rng.normal(size=(n, width)), y + rng.normal(size=(n, width))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        paired_bootstrap(y, a, b, n_resamples=50, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n + 8 * n * width + 2**16


def _buckets(y, a, b, sizes):
    """Bucket sums of (rows, outputs) arrays cut into runs of `sizes` rows, the last
    bucket holding what is left, and each bucket's rows."""
    edges = np.cumsum(sizes)
    rows = np.split(np.arange(len(y)), edges[edges < len(y)])
    sums = [[((y[r] - p[r]) ** 2).sum() for r in rows] for p in (a, b)]
    sums += [[y[r].sum() for r in rows], [(y[r] ** 2).sum() for r in rows], [y[r].size for r in rows]]
    return sums, rows


@pytest.mark.parametrize("sizes", [1, 3, [5, 1, 4, 2, 7]], ids=["rows", "threes", "uneven"])
def test_bucket_r2_bootstrap_scores_the_rows_of_its_replayed_buckets(sizes):
    """Both R^2 values are `r_squared` of all rows, and each resample is the R^2 difference
    on the rows of the circular blocks of buckets that `paired_bootstrap` would draw over
    as many rows: bucket cell counts may differ."""
    rng = np.random.default_rng(27)
    y = rng.normal(size=(61, 3)) + 0.2
    a, b = y + rng.normal(size=y.shape), y + 1.2 * rng.normal(size=y.shape)
    sums, rows = _buckets(y, a, b, np.resize(sizes, len(y)))
    n = len(rows)
    r2_a, r2_b, boot = bucket_r2_bootstrap(*sums, n_resamples=40, seed=3)
    assert r2_a == pytest.approx(r_squared(y, a), rel=1e-12)
    assert r2_b == pytest.approx(r_squared(y, b), rel=1e-12)
    assert boot.observed_diff == r2_a - r2_b and boot.n_resamples == 40
    draws, length = _replay_block_draws(3, n, 40)
    assert boot.block_length == length
    for starts, got in zip(draws, boot.samples):
        gathered = np.concatenate([rows[i] for i in _block_rows(starts, n, length)])
        want = r_squared(y[gathered], a[gathered]) - r_squared(y[gathered], b[gathered])
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)
    if sizes == 1:  # one row a bucket: the row bootstrap's draws and verdict
        row = paired_bootstrap(y, a, b, n_resamples=40, seed=3)
        np.testing.assert_allclose(boot.samples, row.samples, rtol=1e-10)
        assert boot.n_failing == row.n_failing and boot.block_length == row.block_length


def test_bucket_r2_bootstrap_refuses_what_r_squared_cannot_score():
    ones = np.ones(6)
    with pytest.raises(ValueError, match="constant target"):
        bucket_r2_bootstrap(ones, ones, 2 * ones, 2 * ones, 2 * ones)  # y = 1 in every cell
    with pytest.raises(ValueError, match="non-finite"):
        bucket_r2_bootstrap(ones, np.append(ones[:5], np.nan), np.arange(6.0), 9 * ones, ones)
    with pytest.raises(ValueError, match="positive"):
        bucket_r2_bootstrap(ones, ones, np.arange(6.0), 99 * ones, ones, n_resamples=0)


def test_p_string_mid_range_formatting():
    res = BootstrapResult(0.1, 0.124, 500, 8, 62, np.zeros(500))
    assert res.p_string() == "p=0.124"


# ---------------------------------------------------------------------------
# kernel density


_KDE_BYTES = """
import hashlib
import numpy as np
from arrkit.search import one_blas_thread
from arrkit.stats import kde2d

rng = np.random.default_rng(5)
x, y = rng.standard_normal(936), rng.standard_normal(936) * 0.3 + 1.0
with one_blas_thread():  # as the analyze stage runs it
    grid = kde2d(x, y)
print(hashlib.sha256(grid.density.tobytes()).hexdigest())
"""


def test_kde_does_not_depend_on_the_blas_thread_count():
    """kde2d on 936 points, run as the analyze stage runs it, gives the same density bytes
    under OPENBLAS_NUM_THREADS=1 and =2; left to two threads, its gemm sums in another
    order."""
    from arrkit.search import _openblas

    if not _openblas():
        pytest.skip("no OpenBLAS thread-count setter found in this process")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _KDE_BYTES], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


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
