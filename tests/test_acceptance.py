"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test prints `[k/9] <name>: PASS/FAIL (<measurements>)` with capture
suspended, so the verdicts are visible in any pytest run.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from arrkit.arr import ReconstructionResult, compute_arr, pca_reconstruction
from arrkit.autoencoder import build_ae_net, random_search_ae, reconstruct_series
from arrkit.cli import main as cli_main
from arrkit.config import RunConfig, SplitSpec, save_config
from arrkit.forecasting import FREQUENCIES, build_features, random_search_cv
from arrkit.market_data import (
    FIVE_MIN,
    ONE_DAY,
    ONE_HOUR,
    SESSION_SECONDS,
    CoMovementSpec,
    RegimeSpec,
    SyntheticMarketConfig,
    generate_synthetic_market,
    synthetic_calendar,
)
from arrkit.nn import LossSpec, dropout_mask, gradient_check, init_params
from arrkit.pca import absorption_ratio, eigh_descending, fit_pca, pca_reconstruct
from arrkit.pipeline import _subset_dataset
from arrkit.returns_metrics import (
    RiskSeries,
    crash_labels,
    ewm_stats,
    five_minute_sums,
    log_returns,
    realized_variance,
    window_sums,
)
from arrkit.stats import auroc, paired_bootstrap, r_squared


@pytest.fixture
def verdict(capsys):
    def _verdict(k: int, name: str, ok: bool, detail: str) -> None:
        line = f"[{k}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def _session_grid(n_sessions: int):
    """Session opens of full 1-second return grids, and their row count: one return per
    second after each 09:30 open, at offsets 1..SESSION_SECONDS-1."""
    opens = np.arange(n_sessions, dtype=np.int64) * 86400 + 34200
    return opens, n_sessions * (SESSION_SECONDS - 1)


# ---------------------------------------------------------------------------
# 1. nonlinear factor recovery: autoencoder beats PCA out of sample


@pytest.mark.slow
def test_01_reconstruction_direction_autoencoder_beats_pca(verdict):
    t0 = time.monotonic()
    cfg = SyntheticMarketConfig(
        n_assets=11, n_sessions=20, n_factors=2,
        regime_schedule=(RegimeSpec(0, 20, 1.0, 0.4),),
        nonlinearity=0.8, seed=42, intraday_amplitude=0.5,
    )
    returns = log_returns(generate_synthetic_market(cfg), 1)
    train = returns.select_sessions(0, 12)
    val = returns.select_sessions(12, 16)
    test = returns.select_sessions(16, 20)

    search = random_search_ae(train, val, iterations=20, seed=0, max_epochs=30)
    pca = fit_pca(returns.select_sessions(0, 16).returns, 2)

    actual = test.returns  # (seconds, assets): the bootstrap moves whole seconds
    ae_pred = reconstruct_series(search.best_model, test).reconstructed
    pca_pred = pca_reconstruction(pca, test).reconstructed
    r2_ae = r_squared(actual, ae_pred)
    r2_pca = r_squared(actual, pca_pred)
    boot = paired_bootstrap(actual, ae_pred, pca_pred, metric="r2",
                            n_resamples=500, seed=1)
    elapsed = time.monotonic() - t0

    ok = r2_ae > r2_pca and boot.p_value < 0.05 and elapsed < 900.0
    verdict(
        1, "out-of-sample reconstruction direction", ok,
        f"ae_r2={r2_ae:.4f} pca_r2={r2_pca:.4f} diff={boot.observed_diff:.5f} "
        f"{boot.p_string()} elapsed={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. in-sample duality: pooled ratio equals one minus the variance share kept


def test_02_ratio_equals_one_minus_variance_share_in_sample(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    opens, n = _session_grid(1)
    factors = rng.standard_normal((n, 2))
    loadings = rng.standard_normal((2, 5))
    x = factors @ loadings + 0.6 * rng.standard_normal((n, 5))
    x -= x.mean(axis=0)  # mean-centered panel

    model = fit_pca(x, 2)
    recon = ReconstructionResult(
        opens=opens, actual=x, reconstructed=pca_reconstruct(model, x),
        asset_ids=("a", "b", "c", "d", "e"), source="pca",
    )
    series = compute_arr(recon, ONE_DAY)
    assert len(series) == 1  # one session, one pooled window
    gap = abs(series.values[0] - (1.0 - absorption_ratio(model)))
    elapsed = time.monotonic() - t0

    ok = gap < 1e-8 and elapsed < 5.0
    verdict(2, "pooled ratio / variance-share duality", ok,
             f"|gap|={gap:.2e} elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. analytic gradients of the full training loss


def test_03_gradients_match_finite_differences(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(20):
        n_assets = 5 if i % 2 == 0 else 11
        net = build_ae_net(n_assets)
        params = init_params(net, rng)
        x = rng.standard_normal((6, n_assets + 1))
        y = rng.standard_normal((6, n_assets))
        spec = LossSpec("mse", l1_weight=1e-3, l1_layer=1)
        mask = dropout_mask(rng, 0.3, np.empty(x.shape)) if i % 4 >= 2 else None
        worst = max(worst, gradient_check(net, params, x, y, spec, input_mask=mask))
    elapsed = time.monotonic() - t0

    ok = worst < 1e-4 and elapsed < 30.0
    verdict(3, "loss gradients vs central differences", ok,
             f"20 checks, max_rel_err={worst:.2e} elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. eigensolver fidelity on random symmetric matrices


def test_04_eigensolver_fidelity(verdict):
    rng = np.random.default_rng(4)
    worst_recon, worst_ortho = 0.0, 0.0
    for _ in range(50):
        size = int(rng.integers(1, 21))
        raw = rng.standard_normal((size, size)) * float(rng.uniform(0.1, 10.0))
        a = (raw + raw.T) / 2.0
        lam, vec = eigh_descending(a)
        recon = vec @ np.diag(lam) @ vec.T
        worst_recon = max(
            worst_recon, np.linalg.norm(recon - a) / np.linalg.norm(a)
        )
        worst_ortho = max(
            worst_ortho, np.linalg.norm(vec.T @ vec - np.eye(size))
        )
    ok = worst_recon < 1e-10 and worst_ortho < 1e-10
    verdict(4, "eigensolver fidelity (50 matrices <=20x20)", ok,
             f"recon={worst_recon:.2e} ortho={worst_ortho:.2e}")


# ---------------------------------------------------------------------------
# 5. metric oracles: ranking area, R-squared, EWMA half-life


def _auroc_by_enumeration(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p, q in itertools.product(pos, neg):
        if p > q:
            wins += 1
        elif p == q:
            ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_05_metric_oracles(verdict):
    rng = np.random.default_rng(5)

    auroc_exact = True
    for _ in range(200):
        n = int(rng.integers(4, 13))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both classes present
        scores = rng.integers(0, 5, size=n) / 4.0  # coarse grid forces ties
        if auroc(labels, scores) != _auroc_by_enumeration(labels, scores):
            auroc_exact = False
            break

    r2_gap = 0.0
    for _ in range(25):
        n = int(rng.integers(5, 60))
        y = rng.standard_normal(n)
        p = rng.standard_normal(n)
        direct = 1.0 - np.sum((y - p) ** 2) / np.sum((y - np.mean(y)) ** 2)
        r2_gap = max(r2_gap, abs(r_squared(y, p) - direct))

    # half-life property: normalized weights 0.5**(age/half_life) reproduce the
    # running mean/std, and the weight on an observation one half-life old is 1/2
    half_life = 7.3
    x = rng.standard_normal(300)
    mean, std = ewm_stats(x, half_life)
    ewma_gap = abs((0.5 ** (1.0 / half_life)) ** half_life - 0.5)
    for t in (1, 5, 150, 299):
        w = 0.5 ** ((t - np.arange(t + 1)) / half_life)
        m = np.sum(w * x[: t + 1]) / np.sum(w)
        v = np.sum(w * (x[: t + 1] - m) ** 2) / np.sum(w)
        ewma_gap = max(ewma_gap, abs(mean[t] - m), abs(std[t] - np.sqrt(v)))

    ok = auroc_exact and r2_gap < 1e-12 and ewma_gap < 1e-12
    verdict(5, "metric oracles (ranking area / R2 / EWMA)", ok,
             f"auroc_exact={auroc_exact} r2_gap={r2_gap:.1e} ewma_gap={ewma_gap:.1e}")


# ---------------------------------------------------------------------------
# 6. forecasting property: planted ratio->variance signal is detected,
#    matched placebo is not


_RIDGE_GRID = {"alpha": (1e-4, 1e-2, 1.0, 100.0), "fit_intercept": (False, True)}
_GBDT_GRID = {
    "learning_rate": (0.05, 0.1),
    "n_estimators": (20, 40),
    "num_leaves": (5, 10),
    "reg_alpha": (0.0,),
    "reg_beta": (0.0, 0.01),
}


def _forecast_rep(seed: int, vol_feedback: float, n_sessions: int = 14, fit_end: int = 8):
    """p-values of with-ratio > without-ratio for ridge and gbdt on one panel."""
    cfg = SyntheticMarketConfig(
        n_assets=8, n_sessions=n_sessions, n_factors=2,
        regime_schedule=(RegimeSpec(0, n_sessions, 1.0, 0.5),),
        seed=seed,
        comovement=CoMovementSpec(share_innovation=0.8, vol_feedback=vol_feedback),
    )
    panel = generate_synthetic_market(cfg)
    calendar = synthetic_calendar(cfg)
    returns = log_returns(panel, 1)
    pca = fit_pca(returns.select_sessions(0, fit_end).returns, 1)
    recon = pca_reconstruction(pca, returns)
    arr = {f: compute_arr(recon, f) for f in FREQUENCIES}
    market = returns.returns[:, 0]
    squared = five_minute_sums(market * market)
    log_rv = {f: realized_variance(squared, returns.opens, f) for f in FREQUENCIES}
    datasets = {flag: build_features(log_rv, arr, FIVE_MIN, flag) for flag in (True, False)}

    opens = np.array([o for _, o, _ in calendar.sessions])
    sess = np.searchsorted(opens, datasets[True].target_times, side="right") - 1
    train_idx = np.flatnonzero(sess < fit_end)
    test_idx = np.flatnonzero(sess >= fit_end)

    p_values = {}
    for family, grid in (("ridge", _RIDGE_GRID), ("gbdt", _GBDT_GRID)):
        preds = {}
        for flag in (True, False):
            train = _subset_dataset(datasets[flag], train_idx)
            test = _subset_dataset(datasets[flag], test_idx)
            result = random_search_cv(train, family, grid=grid, iterations=6,
                                      folds=3, seed=seed)
            preds[flag] = np.asarray(result.model.predict(test.features))
        y = datasets[True].target[test_idx]
        boot = paired_bootstrap(y, preds[True], preds[False], metric="r2",
                                seed=seed + 1000)
        p_values[family] = boot.p_value
    return p_values


@pytest.mark.slow
def test_06_planted_forecast_signal_detected_placebo_not(verdict):
    t0 = time.monotonic()
    planted = _forecast_rep(7, vol_feedback=0.8)

    non_significant = {"ridge": 0, "gbdt": 0}
    n_reps = 10
    for rep in range(n_reps):
        placebo = _forecast_rep(100 + rep, vol_feedback=0.0)
        for family, p in placebo.items():
            non_significant[family] += p >= 0.05
    elapsed = time.monotonic() - t0

    ok = (
        planted["ridge"] < 0.05
        and planted["gbdt"] < 0.05
        and non_significant["ridge"] >= 9
        and non_significant["gbdt"] >= 9
        and elapsed < 1200.0
    )
    verdict(
        6, "planted ratio->variance forecasting signal", ok,
        f"planted p: ridge={planted['ridge']:g} gbdt={planted['gbdt']:g}; "
        f"placebo non-sig: ridge={non_significant['ridge']}/{n_reps} "
        f"gbdt={non_significant['gbdt']}/{n_reps}; elapsed={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. crash-label frequency on Gaussian daily returns


def test_07_crash_label_frequency_band(verdict):
    rng = np.random.default_rng(77)
    n = 5000
    series = RiskSeries(
        timestamps=np.arange(n, dtype=np.int64) * 86400 + 57600,
        values=rng.standard_normal(n),
        kind="return",
    )
    labels = crash_labels(series, half_life=10.0, threshold=-1.5)
    freq = float(np.mean(labels.labels))
    ok = 0.037 <= freq <= 0.097
    verdict(7, "crash-label frequency on Gaussian dailies", ok,
             f"freq={freq:.4f} in [0.037, 0.097], n={len(labels.labels)}")


# ---------------------------------------------------------------------------
# 8. full-pipeline determinism


def _pipeline_config(out_dir: str) -> RunConfig:
    synth = SyntheticMarketConfig(
        n_assets=6, n_sessions=12, n_factors=2,
        regime_schedule=(RegimeSpec(0, 12, 1.0, 0.5),),
        comovement=CoMovementSpec(share_innovation=0.6),
    )
    return RunConfig(
        data_source="synthetic",
        splits=SplitSpec((0, 6), (6, 9), (9, 12)),
        synthetic=synth,
        horizons=(300,),
        regression_families=("ridge",),
        classification_families=("logistic_l1",),
        ae_search_iterations=1,
        forecast_search_iterations=3,
        cv_folds=2,
        seed=13,
        output_dir=out_dir,
    )


def _run_pipeline(root, tag: str) -> str:
    out = str(root / tag)
    cfg_path = str(root / f"{tag}.json")
    save_config(_pipeline_config(out), cfg_path)
    import contextlib, io

    for verb in ("generate", "train", "arr", "analyze", "forecast", "report"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli_main([verb, "--config", cfg_path])
        assert rc == 0, f"{verb} failed: {buf.getvalue()}"
    return out


def _normalized_bytes(path: str) -> bytes:
    if os.path.basename(path) in ("manifest.json", "report.json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("generated_at", None)  # the single timestamp field
        return json.dumps(payload, sort_keys=True).encode()
    with open(path, "rb") as fh:
        return fh.read()


def _tree_files(root: str):
    out = []
    for base, _, files in os.walk(root):
        for name in files:
            out.append(os.path.relpath(os.path.join(base, name), root))
    return sorted(out)


@pytest.mark.slow
def test_08_pipeline_runs_are_byte_identical(tmp_path, verdict):
    t0 = time.monotonic()
    first = _run_pipeline(tmp_path, "first")
    second = _run_pipeline(tmp_path, "second")

    files_a, files_b = _tree_files(first), _tree_files(second)
    same_sets = files_a == files_b
    mismatched = [
        rel for rel in files_a
        if _normalized_bytes(os.path.join(first, rel))
        != _normalized_bytes(os.path.join(second, rel))
    ] if same_sets else files_a
    elapsed = time.monotonic() - t0

    ok = same_sets and not mismatched
    verdict(8, "pipeline determinism (two identical runs)", ok,
             f"{len(files_a)} artifacts compared, mismatches={mismatched[:3]} "
             f"elapsed={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. re-aggregation: coarse windows are exact sums of their five-minute parts


def test_09_window_reaggregation_and_rv_additivity(verdict):
    rng = np.random.default_rng(9)
    opens, n = _session_grid(2)
    x = rng.standard_normal((n, 3)) * 1e-4
    recon = ReconstructionResult(
        opens=opens, actual=x, reconstructed=x * 0.4 + 1e-5,
        asset_ids=("a", "b", "c"), source="pca",
    )
    fives = compute_arr(recon, FIVE_MIN)
    per_session = SESSION_SECONDS // FIVE_MIN  # 78 five-minute windows a session

    def _block(coarse: int, w: int) -> slice:
        # five-minute windows covered by coarse window w (the last 30 minutes of a
        # session fall outside any hourly window)
        m_max = SESSION_SECONDS // coarse
        group = coarse // FIVE_MIN
        session, m = divmod(w, m_max)
        lo = session * per_session + m * group
        return slice(lo, lo + group)

    worst = 0.0
    for coarse in (ONE_HOUR, ONE_DAY):
        series = compute_arr(recon, coarse)
        assert len(series) == 2 * (SESSION_SECONDS // coarse)
        for w in range(len(series)):
            block = _block(coarse, w)
            ratio = np.sum(fives.numerators[block]) / np.sum(fives.denominators[block])
            worst = max(worst, abs(series.values[w] - ratio))
            assert fives.timestamps[block.stop - 1] == series.timestamps[w]

    squared = five_minute_sums(x[:, 0] * x[:, 0])  # asset "a"
    _, rv_five = window_sums(squared, opens, FIVE_MIN)
    additivity_exact = True
    for coarse in (ONE_HOUR, ONE_DAY):
        _, rv_coarse = window_sums(squared, opens, coarse)
        rebuilt = np.array([
            np.sum(rv_five[_block(coarse, w)]) for w in range(len(rv_coarse))
        ])
        additivity_exact = additivity_exact and np.array_equal(rv_coarse, rebuilt)

    ok = worst < 1e-12 and additivity_exact
    verdict(9, "window re-aggregation and additivity", ok,
             f"max_ratio_gap={worst:.1e} rv_additivity_exact={additivity_exact}")
