"""Autoencoder architecture, normalization, training, and hyperparameter search."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrkit.autoencoder import (
    AeTrainConfig,
    AutoencoderModel,
    ae_dims,
    build_ae_net,
    random_search_ae,
    reconstruct_series,
    time_of_day,
    train_autoencoder,
)
from arrkit.nn import forward, init_params
from arrkit.returns_metrics import ReturnsPanel


# ---------------------------------------------------------------------------
# architecture law


def test_dims_hand_values():
    assert ae_dims(5) == (1, 3)
    assert ae_dims(11) == (2, 6)
    assert ae_dims(4) == (1, 2)  # floor kicks in below 5 assets
    assert ae_dims(60) == (12, 36)
    with pytest.raises(ValueError, match="at least one asset"):
        ae_dims(0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 200))
def test_network_shape_follows_asset_count(n):
    k = max(1, n // 5)
    h = (n + k) // 2
    net = build_ae_net(n)
    assert net.dims == (n + 1, h, k, h, n)
    assert net.activations == ("elu", "elu", "elu", "identity")


def test_time_of_day_fraction():
    stamps = np.array([0, 34200, 86400 + 34200, 86399])
    frac = time_of_day(stamps)
    np.testing.assert_allclose(frac, [0.0, 34200 / 86400, 34200 / 86400, 86399 / 86400])
    assert np.all((frac >= 0) & (frac < 1))


# ---------------------------------------------------------------------------
# model helpers on an untrained instance


def _blank_model(n_assets=5, seed=0):
    net = build_ae_net(n_assets)
    rng = np.random.default_rng(seed)
    return AutoencoderModel(
        net=net,
        params=init_params(net, rng),
        mean=rng.normal(size=n_assets) * 1e-5,
        std=rng.uniform(0.5, 2.0, size=n_assets) * 1e-4,
        asset_ids=tuple(f"A{i}" for i in range(n_assets)),
    )


def test_normalize_round_trip():
    model = _blank_model()
    r = np.random.default_rng(1).normal(size=(7, 5)) * 1e-4
    x = model.features(r, np.arange(34200, 34207))
    np.testing.assert_allclose(model.denormalize(x[:, :5]), r, rtol=1e-12, atol=1e-20)


def _features_oracle(model, r, ts):
    """The feature matrix as two arrays joined: the normalized returns, then time of day."""
    r = np.atleast_2d(r)
    return np.hstack([(r - model.mean) / model.std, np.atleast_1d(time_of_day(ts))[:, None]])


def test_features_layout():
    model = _blank_model()
    r = np.random.default_rng(2).normal(size=(4, 5)) * 1e-4
    ts = np.array([34200, 34201, 34202, 34203])
    x = model.features(r, ts)
    assert x.shape == (4, 6)
    assert x.tobytes() == _features_oracle(model, r, ts).tobytes()
    np.testing.assert_array_equal(x[:, 5], time_of_day(ts))
    one = model.features(r[1], ts[1])  # one row, one stamp
    assert one.shape == (1, 6) and one.tobytes() == x[1:2].tobytes()
    with pytest.raises(ValueError, match="asset dimension"):
        model.features(np.ones((2, 4)), ts[:2])


def test_model_rejects_non_positive_std():
    net = build_ae_net(5)
    with pytest.raises(ValueError, match="std"):
        AutoencoderModel(
            net=net,
            params=init_params(net, np.random.default_rng(0)),
            mean=np.zeros(5),
            std=np.array([1.0, 0.0, 1.0, 1.0, 1.0]),
            asset_ids=("a", "b", "c", "d", "e"),
        )


# ---------------------------------------------------------------------------
# training


def _toy_panels(n_assets=5, n_train=600, n_val=200, seed=0):
    """Hand-built 1-second panels with a 1-factor structure (fast to train on)."""
    rng = np.random.default_rng(seed)
    total = n_train + n_val
    factor = rng.normal(size=total) * 1e-4
    loadings = rng.uniform(0.5, 1.5, size=n_assets)
    r = factor[:, None] * loadings + rng.normal(size=(total, n_assets)) * 1e-6
    ids = tuple(f"A{i}" for i in range(n_assets))
    # one block each, the returns ending at seconds 34201.. of the first day
    tr = ReturnsPanel(np.array([34200]), r[:n_train], ids)
    va = ReturnsPanel(np.array([34200 + n_train]), r[n_train:], ids)
    return tr, va


def test_training_validation_errors():
    tr, va = _toy_panels()
    few = ReturnsPanel(tr.opens, tr.returns[:, :4], tr.asset_ids[:4])
    few_val = ReturnsPanel(va.opens, va.returns[:, :4], va.asset_ids[:4])
    with pytest.raises(ValueError, match="at least 5 assets"):
        train_autoencoder(few, few_val, AeTrainConfig())
    renamed = ReturnsPanel(va.opens, va.returns, ("x",) * 5)
    with pytest.raises(ValueError, match="universes differ"):
        train_autoencoder(tr, renamed, AeTrainConfig())
    flat = np.array(tr.returns, copy=True)
    flat[:, 2] = 0.0
    constant = ReturnsPanel(tr.opens, flat, tr.asset_ids)
    with pytest.raises(ValueError, match="constant training returns"):
        train_autoencoder(constant, va, AeTrainConfig())


def test_training_normalization_comes_from_train_split_only():
    tr, va = _toy_panels(seed=1)
    model, _ = train_autoencoder(tr, va, AeTrainConfig(max_epochs=1, batch_size=256), seed=0)
    np.testing.assert_array_equal(model.mean, tr.returns.mean(axis=0))
    np.testing.assert_array_equal(model.std, tr.returns.std(axis=0))


def test_training_best_epoch_loss_is_reproducible():
    tr, va = _toy_panels(seed=2)
    cfg = AeTrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=8, patience=8)
    model, history = train_autoencoder(tr, va, cfg, seed=3)
    x_val = model.features(va.returns, va.timestamps)
    out, _ = forward(model.net, model.params, x_val)
    y_val = (va.returns - model.mean) / model.std
    mse = float(np.sum((out - y_val) ** 2) / (out.shape[0] * out.shape[1]))
    assert mse == min(h["val_fit"] for h in history)


def test_training_learns_the_factor_structure():
    tr, va = _toy_panels(seed=4)
    cfg = AeTrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=40, patience=40)
    model, history = train_autoencoder(tr, va, cfg, seed=5)
    assert history[-1]["epoch"] >= 5
    assert min(h["val_fit"] for h in history) < 0.5 * history[0]["val_fit"]
    recon = reconstruct_series(model, va)
    resid = recon.actual - recon.reconstructed
    assert float(np.sum(resid**2)) < float(np.sum(recon.actual**2))


def test_training_is_deterministic_by_seed():
    tr, va = _toy_panels(seed=6)
    cfg = AeTrainConfig(learning_rate=1e-3, batch_size=256, max_epochs=3, dropout_rate=0.2)
    m1, h1 = train_autoencoder(tr, va, cfg, seed=7)
    m2, h2 = train_autoencoder(tr, va, cfg, seed=7)
    m3, _ = train_autoencoder(tr, va, cfg, seed=8)
    assert h1 == h2
    for (w1, b1), (w2, b2) in zip(m1.params, m2.params):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)
    assert any(not np.array_equal(a[0], b[0]) for a, b in zip(m1.params, m3.params))


def test_reconstruct_series_chunking_is_invisible():
    tr, va = _toy_panels(seed=9)
    model, _ = train_autoencoder(tr, va, AeTrainConfig(max_epochs=1), seed=0)
    big = reconstruct_series(model, _toy_panel_like(va), chunk_size=10**9)
    assert len(va.returns) == 200
    # 199 leaves a one-row remainder, which a one-row product would round differently
    for chunk_size in (1, 2, 37, 199):
        small = reconstruct_series(model, _toy_panel_like(va), chunk_size=chunk_size)
        np.testing.assert_array_equal(small.reconstructed, big.reconstructed)
    assert small.source == "autoencoder"
    assert np.array_equal(small.opens, va.opens)
    with pytest.raises(ValueError, match="training universe"):
        reconstruct_series(model, ReturnsPanel(va.opens, va.returns, ("z",) * 5))


def _toy_panel_like(panel):
    return ReturnsPanel(panel.opens, panel.returns, panel.asset_ids)


# ---------------------------------------------------------------------------
# random search


def test_search_produces_one_trial_per_iteration():
    tr, va = _toy_panels(seed=10, n_train=300, n_val=100)
    result = random_search_ae(tr, va, iterations=3, seed=0, max_epochs=2)
    assert len(result.trials) == 3
    assert [t.arm for t in result.trials] == [0, 1, 2]
    scored = [t.val_loss for t in result.trials if t.val_loss is not None]
    assert result.best_val_loss == min(scored)
    assert result.best_model.n_assets == 5


def test_search_single_iteration_budget():
    tr, va = _toy_panels(seed=11, n_train=300, n_val=100)
    result = random_search_ae(tr, va, iterations=1, seed=0, max_epochs=1)
    assert len(result.trials) == 1
    assert result.best_config == result.trials[0].config
    with pytest.raises(ValueError, match="positive"):
        random_search_ae(tr, va, iterations=0)


def test_search_is_deterministic_by_seed():
    tr, va = _toy_panels(seed=12, n_train=300, n_val=100)
    a = random_search_ae(tr, va, iterations=4, seed=9, max_epochs=1)
    b = random_search_ae(tr, va, iterations=4, seed=9, max_epochs=1)
    assert [t.config for t in a.trials] == [t.config for t in b.trials]
    assert a.best_val_loss == b.best_val_loss


VIOLENT_GRID = {
    "dropout_rate": (0.0,),
    "l1_weight": (0.0,),
    "batch_size": (300,),
    "learning_rate": (1e80,),
    "clip_norm": (1e80,),
}
MIXED_GRID = dict(VIOLENT_GRID, learning_rate=(1e-3, 1e80))  # some arms diverge, some train


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_search_records_diverged_trials_and_rejects_all_failed():
    tr, va = _toy_panels(seed=13, n_train=300, n_val=100)
    with pytest.raises(RuntimeError, match="every search trial failed") as failed_all:
        random_search_ae(tr, va, grid=VIOLENT_GRID, iterations=2, seed=0, max_epochs=3)
    assert "; arm 0: " in str(failed_all.value) and "diverged" in str(failed_all.value)  # the cause
    # mixed grid: sane arms still win while the divergent ones are recorded with errors
    result = random_search_ae(tr, va, grid=MIXED_GRID, iterations=6, seed=1, max_epochs=2)
    errors = [t for t in result.trials if t.error is not None]
    scored = [t for t in result.trials if t.val_loss is not None]
    assert len(errors) + len(scored) == 6
    assert errors and scored
    assert all("diverged" in t.error for t in errors)
    assert result.best_config.learning_rate == 1e-3


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_search_does_not_depend_on_the_worker_count():
    """Arms trained in-process, on two and on three worker processes give the same
    trials, the same choice and the same bytes of the chosen model."""
    from arrkit.nn import flatten

    tr, va = _toy_panels(seed=13, n_train=300, n_val=100)
    grid = dict(MIXED_GRID, dropout_rate=(0.0, 0.2), l1_weight=(0.0, 0.1))
    runs = {
        workers: random_search_ae(tr, va, grid=grid, iterations=5, seed=1, max_epochs=3, workers=workers)
        for workers in (1, 2, 3)
    }
    one = runs[1]
    assert any(t.error for t in one.trials) and any(t.error is None for t in one.trials)
    assert not one.best_model.mean.flags.writeable
    for workers in (2, 3):
        other = runs[workers]
        assert [(t.arm, t.config, t.history, t.val_loss, t.error) for t in other.trials] == [
            (t.arm, t.config, t.history, t.val_loss, t.error) for t in one.trials
        ]
        assert (other.best_config, other.best_val_loss) == (one.best_config, one.best_val_loss)
        assert flatten(other.best_model.params).tobytes() == flatten(one.best_model.params).tobytes()
        assert not other.best_model.mean.flags.writeable

    few, few_val = (
        ReturnsPanel(p.opens, p.returns[:, :4], p.asset_ids[:4])
        for p in (tr, va)
    )
    with pytest.raises(ValueError, match="need at least 5 assets"):
        random_search_ae(few, few_val, iterations=5)


def _openblas_threads():
    """The thread count of each OpenBLAS this process has loaded, where it can be read."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    getters = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    return [getattr(lib, name)() for lib in map(ctypes.CDLL, libs) for name in getters
            if hasattr(lib, name)]


def _arm_blas_threads(job):
    return _openblas_threads()


def test_search_workers_run_one_blas_thread():
    """A search worker caps its OpenBLAS at one thread, so that the workers' BLAS threads
    do not spin against the arms of the other workers; an arm run in process has one
    thread too, and the process gets its own count back after the map."""
    from concurrent.futures import ProcessPoolExecutor

    from arrkit import search

    if not os.path.exists("/proc/self/maps") or not _openblas_threads():
        pytest.skip("no readable OpenBLAS thread count in this process")
    with ProcessPoolExecutor(1, initializer=search._serve, initargs=(None, ())) as pool:
        assert pool.submit(_openblas_threads).result() == [1] * len(_openblas_threads())
    before = _openblas_threads()
    assert search.map_arms(_arm_blas_threads, [0, 1], workers=1) == [[1] * len(before)] * 2
    assert _openblas_threads() == before


_BLAS_ARM = """
import hashlib
import numpy as np
from arrkit.autoencoder import random_search_ae
from arrkit.nn import flatten
from arrkit.returns_metrics import ReturnsPanel

rng = np.random.default_rng(3)
n_assets, n_train, n_val = 100, 4096, 1024
r = rng.normal(size=(n_train + n_val, 1)) * 1e-4 * rng.uniform(0.5, 1.5, size=n_assets)
r += rng.normal(size=r.shape) * 1e-6
ids = tuple(f"A{i}" for i in range(n_assets))
tr = ReturnsPanel(np.array([34200]), r[:n_train], ids)
va = ReturnsPanel(np.array([34200 + n_train]), r[n_train:], ids)
grid = {"dropout_rate": (0.0,), "l1_weight": (0.0,), "batch_size": (1024,),
        "learning_rate": (0.1,), "clip_norm": (1e-4,)}
result = random_search_ae(tr, va, grid=grid, iterations=1, seed=0, max_epochs=3)
print(hashlib.sha256(flatten(result.best_model.params).tobytes()).hexdigest())
"""


def test_search_arm_does_not_depend_on_the_blas_thread_count():
    """One 100-asset arm (3 epochs, learning rate 0.1, batch 1024), searched in process
    under OPENBLAS_NUM_THREADS=1 and =2, ends at the same weight bytes: the search runs
    its arms on one BLAS thread whatever the process was started with."""
    from arrkit.search import _openblas

    if not _openblas():
        pytest.skip("no OpenBLAS thread-count setter found in this process")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _BLAS_ARM], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
