"""Autoencoder architecture, normalization, training, and hyperparameter search."""

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
    np.testing.assert_allclose(model.denormalize(model.normalize(r)), r, rtol=1e-12, atol=1e-20)


def test_features_layout():
    model = _blank_model()
    r = np.random.default_rng(2).normal(size=(4, 5)) * 1e-4
    ts = np.array([34200, 34201, 34202, 34203])
    x = model.features(r, ts)
    assert x.shape == (4, 6)
    np.testing.assert_array_equal(x[:, :5], model.normalize(r))
    np.testing.assert_array_equal(x[:, 5], time_of_day(ts))
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
    ts = np.arange(total, dtype=np.int64) + 34201
    ids = tuple(f"A{i}" for i in range(n_assets))
    si = np.zeros(total, dtype=np.int64)
    tr = ReturnsPanel(ts[:n_train], r[:n_train], ids, 1, si[:n_train])
    va = ReturnsPanel(ts[n_train:], r[n_train:], ids, 1, si[n_train:])
    return tr, va


def test_training_validation_errors():
    tr, va = _toy_panels()
    bad_interval = ReturnsPanel(tr.timestamps, tr.returns, tr.asset_ids, 300, tr.session_index)
    with pytest.raises(ValueError, match="1-second"):
        train_autoencoder(bad_interval, va, AeTrainConfig())
    few = ReturnsPanel(tr.timestamps, tr.returns[:, :4], tr.asset_ids[:4], 1, tr.session_index)
    few_val = ReturnsPanel(va.timestamps, va.returns[:, :4], va.asset_ids[:4], 1, va.session_index)
    with pytest.raises(ValueError, match="at least 5 assets"):
        train_autoencoder(few, few_val, AeTrainConfig())
    renamed = ReturnsPanel(va.timestamps, va.returns, ("x",) * 5, 1, va.session_index)
    with pytest.raises(ValueError, match="universes differ"):
        train_autoencoder(tr, renamed, AeTrainConfig())
    flat = np.array(tr.returns, copy=True)
    flat[:, 2] = 0.0
    constant = ReturnsPanel(tr.timestamps, flat, tr.asset_ids, 1, tr.session_index)
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
    y_val = model.normalize(va.returns)
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
    small = reconstruct_series(model, _toy_panel_like(va), chunk_size=37)
    big = reconstruct_series(model, _toy_panel_like(va), chunk_size=10**9)
    np.testing.assert_array_equal(small.reconstructed, big.reconstructed)
    assert small.source == "autoencoder"
    with pytest.raises(ValueError, match="1-second"):
        reconstruct_series(model, ReturnsPanel(va.timestamps, va.returns, va.asset_ids, 300, va.session_index))
    with pytest.raises(ValueError, match="training universe"):
        reconstruct_series(model, ReturnsPanel(va.timestamps, va.returns, ("z",) * 5, 1, va.session_index))


def _toy_panel_like(panel):
    return ReturnsPanel(panel.timestamps, panel.returns, panel.asset_ids, 1, panel.session_index)


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


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_search_records_diverged_trials_and_rejects_all_failed():
    tr, va = _toy_panels(seed=13, n_train=300, n_val=100)
    violent = {
        "dropout_rate": (0.0,),
        "l1_weight": (0.0,),
        "batch_size": (300,),
        "learning_rate": (1e80,),
        "clip_norm": (1e80,),
    }
    with pytest.raises(RuntimeError, match="every search trial failed"):
        random_search_ae(tr, va, grid=violent, iterations=2, seed=0, max_epochs=3)
    # mixed grid: sane arms still win while the divergent ones are recorded with errors
    mixed = dict(violent, learning_rate=(1e-3, 1e80))
    result = random_search_ae(tr, va, grid=mixed, iterations=6, seed=1, max_epochs=2)
    errors = [t for t in result.trials if t.error is not None]
    scored = [t for t in result.trials if t.val_loss is not None]
    assert len(errors) + len(scored) == 6
    assert errors and scored
    assert all("diverged" in t.error for t in errors)
    assert result.best_config.learning_rate == 1e-3
