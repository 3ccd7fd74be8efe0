"""Sparse denoising autoencoder over per-second return cross-sections.

The input vector is the normalized return of every asset plus a time-of-day feature in
[0, 1]; the target is the normalized returns alone. The bottleneck width is tied to the
asset count (K = max(1, N//5)) with a single hidden layer of width (N+K)//2 on each side.
Training uses masking noise (inverted input dropout), an L1 penalty on the bottleneck
activation, Adam with global-norm gradient clipping, and early stopping on validation
reconstruction error. Hyperparameters come from random search over a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arr import ReconstructionResult
from .nn import (
    DenseNet, LossSpec, Params, TrainConfig, TrainingDiverged, forward, init_params, train_dense_net,
)
from .returns_metrics import ReturnsPanel
from .search import draw_configs, first_best, map_arms

SECONDS_PER_DAY = 86400


def ae_dims(n_assets: int) -> tuple[int, int]:
    """(latent, hidden) widths: K = max(1, N//5), H = (N+K)//2."""
    if n_assets < 1:
        raise ValueError("need at least one asset")
    k = max(1, n_assets // 5)
    return k, (n_assets + k) // 2


def build_ae_net(n_assets: int) -> DenseNet:
    k, h = ae_dims(n_assets)
    return DenseNet((n_assets + 1, h, k, h, n_assets), ("elu", "elu", "elu", "identity"))


def time_of_day(timestamps: np.ndarray) -> np.ndarray:
    """Seconds since midnight scaled to [0, 1)."""
    return (np.asarray(timestamps, dtype=np.int64) % SECONDS_PER_DAY) / SECONDS_PER_DAY


@dataclass(frozen=True)
class AeTrainConfig(TrainConfig):
    """TrainConfig with the autoencoder's defaults, plus the bottleneck's L1 weight."""

    batch_size: int = 512
    clip_norm: float = 1.0
    l1_weight: float = 0.0


@dataclass(frozen=True)
class AutoencoderModel:
    """Trained network plus the normalization frozen from its training data."""

    net: DenseNet
    params: Params
    mean: np.ndarray  # [N] per-asset training mean
    std: np.ndarray  # [N] per-asset training std
    asset_ids: tuple[str, ...]

    def __post_init__(self):
        for name in ("mean", "std"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.std <= 0):
            raise ValueError("non-positive normalization std")

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)

    def denormalize(self, normalized: np.ndarray) -> np.ndarray:
        return normalized * self.std + self.mean

    def features(self, returns: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
        """Normalized returns with the time-of-day feature appended."""
        r = np.atleast_2d(np.asarray(returns, dtype=np.float64))
        if r.shape[1] != self.n_assets:
            raise ValueError("asset dimension mismatch")
        x = np.empty((len(r), self.n_assets + 1))
        np.divide(np.subtract(r, self.mean, out=x[:, :-1]), self.std, out=x[:, :-1])
        x[:, -1] = time_of_day(timestamps)
        return x


def _normalization(train: ReturnsPanel, val: ReturnsPanel) -> tuple[np.ndarray, np.ndarray]:
    """The per-asset training mean and std, once the panels pass the checks of training."""
    if train.returns.shape[0] == 0:
        raise ValueError("empty training set")
    if train.n_assets < 5:
        raise ValueError("need at least 5 assets")
    if train.asset_ids != val.asset_ids:
        raise ValueError("train/val asset universes differ")
    std = train.returns.std(axis=0)
    dead = np.flatnonzero(std == 0.0)
    if dead.size:
        raise ValueError(f"asset {train.asset_ids[dead[0]]!r} has constant training returns")
    return train.returns.mean(axis=0), std


def train_autoencoder(
    train: ReturnsPanel,
    val: ReturnsPanel,
    config: AeTrainConfig,
    seed: int | np.random.Generator = 0,
):
    """Train one autoencoder; returns (model, history).

    history has one row per epoch with the mean train loss and the penalty-free
    validation reconstruction MSE used for early stopping; the returned parameters come
    from the best validation epoch.
    """
    mean, std = _normalization(train, val)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    net = build_ae_net(train.n_assets)
    model = AutoencoderModel(net, init_params(net, rng), mean, std, train.asset_ids)
    x_tr, x_val = (model.features(p.returns, p.timestamps) for p in (train, val))
    # no targets: they are the inputs without the time-of-day column, read as views of each batch
    spec = LossSpec("mse", l1_weight=config.l1_weight, l1_layer=1)
    best_params, history = train_dense_net(net, model.params, x_tr, None, x_val, None, spec, config, rng)
    return replace(model, params=best_params), history


def reconstruct_series(
    model: AutoencoderModel, panel: ReturnsPanel, chunk_size: int = 65536
) -> ReconstructionResult:
    """Inference over a per-second panel (no dropout); raw-scale reconstructions."""
    if panel.asset_ids != model.asset_ids:
        raise ValueError("asset universe differs from the training universe")
    n = panel.returns.shape[0]
    # numpy runs a one-row product as a BLAS gemv, which rounds unlike the gemm of a
    # larger chunk, so a one-row remainder joins the chunk before it
    bounds = list(range(0, n, max(chunk_size, 2))) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    out = np.empty_like(panel.returns)
    stamps = panel.timestamps
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sl = slice(lo, hi)
        x = model.features(panel.returns[sl], stamps[sl])
        y, _ = forward(model.net, model.params, x)
        out[sl] = model.denormalize(y)
    return ReconstructionResult(
        opens=panel.opens,
        actual=panel.returns,
        reconstructed=out,
        asset_ids=panel.asset_ids,
        source="autoencoder",
    )


# ---------------------------------------------------------------------------
# random search

DEFAULT_AE_GRID: dict[str, tuple] = {
    "dropout_rate": (0.0, 0.2, 0.4, 0.6, 0.8),
    "l1_weight": (0.0, 0.01, 0.1, 1.0, 10.0),
    "batch_size": (256, 512, 1024, 2048),
    "learning_rate": (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
    "clip_norm": (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0),
}


@dataclass(frozen=True)
class AeTrial:
    arm: int
    config: AeTrainConfig
    history: tuple = ()
    val_loss: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class AeSearchResult:
    best_config: AeTrainConfig
    best_val_loss: float
    best_model: AutoencoderModel
    trials: tuple[AeTrial, ...]


def _train_arm(job, train: ReturnsPanel, val: ReturnsPanel, seed: int):
    """One arm from (arm, config) as (model, history, error); divergence is an error."""
    arm, config = job
    arm_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(arm,)))
    try:
        model, history = train_autoencoder(train, val, config, seed=arm_rng)
    except TrainingDiverged as exc:
        return None, [], str(exc)
    return model, history, None


def random_search_ae(
    train: ReturnsPanel,
    val: ReturnsPanel,
    grid: dict | None = None,
    iterations: int = 20,
    seed: int = 0,
    max_epochs: int = 100,
    workers: int | None = None,
) -> AeSearchResult:
    """Uniform-with-replacement search over the hyperparameter grid product.

    Every iteration produces a trial record; diverged trainings are recorded with their
    error and excluded from the argmin. A trial's val_loss is the reconstruction MSE of
    its best epoch (the parameters actually returned for that trial).

    The arms train on min(iterations, workers) processes (default: the usable CPUs), each
    on one BLAS thread. Each arm has its own seed and reads no other arm's result, so the
    outcome does not depend on that number.
    """
    grid = DEFAULT_AE_GRID if grid is None else grid
    if iterations < 1:
        raise ValueError("iterations must be positive")
    _normalization(train, val)  # bad panels fail here, before any process starts
    configs = [AeTrainConfig(max_epochs=max_epochs, **c) for c in draw_configs(grid, iterations, seed)]
    results = map_arms(_train_arm, list(enumerate(configs)), (train, val, seed), workers)
    trials = tuple(
        AeTrial(arm, config, tuple(history), None if error else min(h["val_fit"] for h in history), error)
        for arm, (config, (_, history, error)) in enumerate(zip(configs, results))
    )
    best = first_best([t.val_loss for t in trials])
    if best is None:
        raise RuntimeError(f"every search trial failed; arm 0: {trials[0].error}")
    return AeSearchResult(  # replace re-freezes the normalization a worker's pickle thawed
        best_config=configs[best], best_val_loss=trials[best].val_loss,
        best_model=replace(results[best][0]), trials=trials,
    )
