"""Volatility forecasting and crash classification on windowed series.

Features follow the heterogeneous-horizon pattern: to predict the next window at horizon
d, use the latest log RV at every frequency >= d (and optionally the co-movement ratio at
those frequencies). Four model families are implemented in-repo: ridge regression (closed
form), L1 logistic regression (proximal gradient), gradient-boosted trees (exact greedy,
leaf-wise), and a one-hidden-layer perceptron on the dense-net engine. Hyperparameters
come from random search scored by chronologically contiguous k-fold cross validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .arr import ArrSeries
from .market_data import ONE_WEEK, WINDOWS
from .nn import (
    DenseNet,
    LossSpec,
    TrainConfig,
    TrainingDiverged,
    forward,
    init_params,
    sigmoid,
    train_dense_net,
)
from .returns_metrics import CrashLabels, RiskSeries
from .stats import auroc, r_squared

FREQUENCIES = tuple(WINDOWS)
FREQ_NAMES = {window: name for window, (name, _) in WINDOWS.items()}
FAMILIES = ("ridge", "logistic_l1", "gbdt", "mlp")


@dataclass(frozen=True)
class ForecastDataset:
    features: np.ndarray  # [M, F]
    target: np.ndarray  # [M]
    feature_names: tuple[str, ...]
    feature_times: np.ndarray  # [M] stamp of the newest information used
    target_times: np.ndarray  # [M] stamp of the predicted window's right edge
    horizon: int
    include_arr: bool
    task: str  # "regression" | "classification"

    def __post_init__(self):
        for name in ("features", "target", "feature_times", "target_times"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.features.shape != (len(self.target), len(self.feature_names)):
            raise ValueError("inconsistent dataset shapes")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if np.any(self.target_times <= self.feature_times):
            raise ValueError("target leakage: target stamp not after feature stamp")
        if self.task == "classification" and not np.all(np.isin(self.target, (0, 1))):
            raise ValueError("classification target must be 0/1")
        if self.include_arr != any(n.startswith("arr_") for n in self.feature_names):
            raise ValueError("include_arr flag inconsistent with columns")

    def __len__(self) -> int:
        return len(self.target)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _asof_values(ts: np.ndarray, values: np.ndarray, at: np.ndarray):
    """Most recent value at or before each stamp; mask marks stamps with none."""
    idx = np.searchsorted(ts, at, side="right") - 1
    ok = idx >= 0
    return values[np.maximum(idx, 0)], ok


def build_features(
    log_rv: dict[int, RiskSeries],
    arr: dict[int, ArrSeries],
    horizon: int,
    include_arr: bool,
    crash: CrashLabels | None = None,
) -> ForecastDataset:
    """Assemble the forecasting dataset for one horizon.

    The anchor timeline is the horizon-frequency log RV series. The regression target is
    the next observation of that series (for the rolling weekly series, the observation
    five sessions ahead, so target windows are disjoint from the anchor). Classification
    swaps the target for the crash label at the target stamp.

    Rows must carry every RV *and* ratio feature whether or not include_arr is set, so
    the with/without datasets stay row-aligned for paired comparison.
    """
    missing = [FREQ_NAMES[f] for f in FREQUENCIES if f not in log_rv or f not in arr]
    if missing:
        raise ValueError(f"missing frequencies: {', '.join(missing)}")
    if horizon not in FREQUENCIES:
        raise ValueError(f"unsupported horizon {horizon}")
    anchor = log_rv[horizon]
    # rolling weekly anchors advance one session at a time; the target must be the next
    # *disjoint* week, i.e. five stamps ahead
    step = 5 if horizon == ONE_WEEK and _is_rolling(anchor) else 1
    n = len(anchor.values) - step
    if n <= 0:
        raise ValueError("empty forecast dataset: anchor series too short")
    t = anchor.timestamps[:n]
    target_times = anchor.timestamps[step : n + step]

    cols, names, masks = [], [], []
    for d in FREQUENCIES:
        if d < horizon:
            continue
        vals, ok = _asof_values(log_rv[d].timestamps, log_rv[d].values, t)
        cols.append(vals)
        names.append(f"rv_{FREQ_NAMES[d]}")
        masks.append(ok)
    arr_cols, arr_names = [], []
    for d in FREQUENCIES:
        if d < horizon:
            continue
        vals, ok = _asof_values(arr[d].timestamps, arr[d].values, t)
        arr_cols.append(vals)
        arr_names.append(f"arr_{FREQ_NAMES[d]}")
        masks.append(ok)

    if crash is None:
        target = anchor.values[step : n + step]
        keep = np.all(masks, axis=0)
        task = "regression"
    else:
        lbl, ok = _exact_lookup(crash.timestamps, crash.labels, target_times)
        target = lbl
        keep = np.all(masks, axis=0) & ok
        task = "classification"

    if include_arr:
        cols += arr_cols
        names += arr_names
    if not keep.any():
        raise ValueError("empty forecast dataset: no rows with full feature coverage")
    return ForecastDataset(
        features=np.column_stack(cols)[keep],
        target=target[keep],
        feature_names=tuple(names),
        feature_times=t[keep],
        target_times=target_times[keep],
        horizon=horizon,
        include_arr=include_arr,
        task=task,
    )


def _is_rolling(series: RiskSeries) -> bool:
    """Weekly series with stamps one session apart are rolling windows."""
    if len(series.timestamps) < 2:
        return False
    return int(np.min(np.diff(series.timestamps))) < ONE_WEEK * 2


def _exact_lookup(ts: np.ndarray, values: np.ndarray, at: np.ndarray):
    idx = np.searchsorted(ts, at)
    idx_c = np.minimum(idx, len(ts) - 1)
    ok = (idx < len(ts)) & (ts[idx_c] == at)
    return values[idx_c], ok


# ---------------------------------------------------------------------------
# ridge regression


@dataclass(frozen=True)
class RidgeModel:
    coef: np.ndarray
    intercept: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.coef + self.intercept


def fit_ridge(x: np.ndarray, y: np.ndarray, alpha: float, fit_intercept: bool) -> RidgeModel:
    """Closed-form ridge; the intercept, when present, is not penalized (centering)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if fit_intercept:
        x_mean = x.mean(axis=0)
        y_mean = float(y.mean())
        xc = x - x_mean
        yc = y - y_mean
    else:
        xc, yc = x, y
    gram = xc.T @ xc + alpha * np.eye(x.shape[1])
    try:
        coef = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular system (alpha={alpha}, collinear features): {exc}") from exc
    intercept = y_mean - float(x_mean @ coef) if fit_intercept else 0.0
    return RidgeModel(coef=coef, intercept=intercept)


# ---------------------------------------------------------------------------
# L1 logistic regression (proximal gradient / FISTA), no intercept


@dataclass(frozen=True)
class LogisticL1Model:
    coef: np.ndarray  # on standardized features
    x_mean: np.ndarray
    x_scale: np.ndarray
    n_iterations: int

    def decision(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=np.float64) - self.x_mean) / self.x_scale
        return z @ self.coef

    def predict(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision(x))


def _soft_threshold(v: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def fit_logistic_l1(
    x: np.ndarray, y: np.ndarray, c: float, tol: float = 1e-6, max_iter: int = 10_000
) -> LogisticL1Model:
    """Minimize mean logistic loss + (1/C)*||coef||_1 by accelerated proximal gradient.

    Features are standardized internally (training statistics); there is no intercept.
    Stops when the gradient-map norm falls below tol; raises if max_iter is exhausted
    first.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if c <= 0:
        raise ValueError("C must be positive")
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    n, f = x.shape
    x_mean = x.mean(axis=0)
    x_scale = x.std(axis=0)
    x_scale = np.where(x_scale == 0.0, 1.0, x_scale)
    z = (x - x_mean) / x_scale
    lam = 1.0 / c
    # Lipschitz bound for the mean logistic gradient: ||Z||_2^2 / (4n) <= ||Z||_F^2 / (4n)
    lip = float(np.sum(z * z)) / (4.0 * n)
    step = 1.0 / max(lip, 1e-12)

    beta = np.zeros(f)
    beta_prev = beta.copy()
    t_acc = 1.0
    for it in range(1, max_iter + 1):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        momentum = beta + ((t_acc - 1.0) / t_next) * (beta - beta_prev)
        p = sigmoid(z @ momentum)
        grad = z.T @ (p - y) / n
        candidate = _soft_threshold(momentum - step * grad, step * lam)
        gap = float(np.linalg.norm((momentum - candidate) / step))
        beta_prev, beta, t_acc = beta, candidate, t_next
        if gap < tol:
            return LogisticL1Model(coef=beta, x_mean=x_mean, x_scale=x_scale, n_iterations=it)
    raise ValueError(
        f"logistic solver did not converge: gradient-map norm {gap:.3e} > {tol:g} "
        f"after {max_iter} iterations"
    )


# ---------------------------------------------------------------------------
# gradient-boosted trees (exact greedy splits, leaf-wise growth)


@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0


def _leaf_values(g: np.ndarray, h: np.ndarray, alpha: float, beta: float):
    """Newton leaf weight and its score with L1 (alpha) / L2 (beta) regularization."""
    shrunk = _soft_threshold(np.atleast_1d(np.asarray(g, dtype=np.float64)), alpha)
    denom = np.atleast_1d(np.asarray(h, dtype=np.float64)) + beta
    safe = denom > 0
    weight = np.where(safe, -shrunk / np.where(safe, denom, 1.0), 0.0)
    score = np.where(safe, 0.5 * shrunk * shrunk / np.where(safe, denom, 1.0), 0.0)
    return weight, score


@dataclass(eq=False)
class _Leaf:
    rows: np.ndarray
    node: TreeNode
    gain: float = -np.inf
    feature: int = -1
    threshold: float = 0.0
    left_rows: np.ndarray | None = None
    right_rows: np.ndarray | None = None


def _find_split(x, g, h, rows, orders, in_leaf, alpha, beta, leaf: _Leaf):
    g_tot = float(g[rows].sum())
    h_tot = float(h[rows].sum())
    _, parent = _leaf_values(g_tot, h_tot, alpha, beta)
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
        _, s_left = _leaf_values(cg[boundary], ch[boundary], alpha, beta)
        _, s_right = _leaf_values(g_tot - cg[boundary], h_tot - ch[boundary], alpha, beta)
        gains = s_left + s_right - parent
        j = int(np.argmax(gains))  # first max -> lowest threshold wins ties
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            cut = boundary[j]
            leaf.gain = best_gain
            leaf.feature = f
            leaf.threshold = (xs[cut] + xs[cut + 1]) / 2.0
            leaf.left_rows = order[: cut + 1]
            leaf.right_rows = order[cut + 1 :]
    if best_gain <= 0.0:
        leaf.gain = -np.inf


def _build_tree(x, g, h, num_leaves, alpha, beta, orders, in_leaf) -> TreeNode:
    n = len(g)
    root = TreeNode()
    all_rows = np.arange(n)
    first = _Leaf(rows=all_rows, node=root)
    _find_split(x, g, h, all_rows, orders, in_leaf, alpha, beta, first)
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
        left = _Leaf(rows=pick.left_rows, node=pick.node.left)
        right = _Leaf(rows=pick.right_rows, node=pick.node.right)
        _find_split(x, g, h, left.rows, orders, in_leaf, alpha, beta, left)
        _find_split(x, g, h, right.rows, orders, in_leaf, alpha, beta, right)
        leaves[pick_at] = left
        leaves.append(right)
    for leaf in leaves:
        w, _ = _leaf_values(float(g[leaf.rows].sum()), float(h[leaf.rows].sum()), alpha, beta)
        leaf.node.value = float(w[0])
    return root


def _predict_tree(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    stack = [(node, np.arange(len(x)))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.feature < 0:
            out[idx] = nd.value
        else:
            go_left = x[idx, nd.feature] <= nd.threshold
            stack.append((nd.left, idx[go_left]))
            stack.append((nd.right, idx[~go_left]))
    return out


@dataclass
class GbdtModel:
    base_score: float
    trees: list
    learning_rate: float
    task: str

    def raw_predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.full(len(x), self.base_score)
        for tree in self.trees:
            out += self.learning_rate * _predict_tree(tree, x)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        raw = self.raw_predict(x)
        return sigmoid(raw) if self.task == "classification" else raw


def fit_gbdt(
    x: np.ndarray,
    y: np.ndarray,
    task: str,
    learning_rate: float,
    n_estimators: int,
    num_leaves: int,
    reg_alpha: float = 0.0,
    reg_beta: float = 0.0,
) -> GbdtModel:
    """Boosted regression trees on gradients/hessians of squared or logistic loss.

    Trees grow leaf-wise (split the best-gain leaf anywhere in the tree) until
    num_leaves; splits scan every boundary between distinct sorted feature values and
    take midpoints; ties break to the lowest feature index then lowest threshold. A
    constant target yields a base-score-only model.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    if num_leaves < 2:
        raise ValueError("num_leaves must be at least 2")
    if n_estimators < 0:
        raise ValueError("n_estimators must be non-negative")
    if task == "classification":
        p_bar = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        base = math.log(p_bar / (1.0 - p_bar))
    else:
        base = float(y.mean())
    orders = [np.argsort(x[:, f], kind="stable") for f in range(x.shape[1])]
    in_leaf = np.zeros(len(y), dtype=bool)
    current = np.full(len(y), base)
    trees = []
    for _ in range(n_estimators):
        if task == "regression":
            g = current - y
            h = np.ones_like(y)
        else:
            p = sigmoid(current)
            g = p - y
            h = p * (1.0 - p)
        if float(np.abs(g).max(initial=0.0)) == 0.0:
            break
        tree = _build_tree(x, g, h, num_leaves, reg_alpha, reg_beta, orders, in_leaf)
        current += learning_rate * _predict_tree(tree, x)
        trees.append(tree)
    return GbdtModel(base_score=base, trees=trees, learning_rate=learning_rate, task=task)


# ---------------------------------------------------------------------------
# one-hidden-layer perceptron on the dense-net engine


@dataclass(frozen=True)
class MlpModel:
    net: DenseNet
    params: list
    x_mean: np.ndarray
    x_scale: np.ndarray
    task: str

    def predict(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=np.float64) - self.x_mean) / self.x_scale
        out, _ = forward(self.net, self.params, z)
        return out[:, 0]


def fit_mlp(
    x: np.ndarray,
    y: np.ndarray,
    task: str,
    hidden_size: int,
    alpha_l2: float,
    learning_rate_init: float,
    max_iter: int = 500,
    early_stopping: bool = True,
    seed: int | np.random.Generator = 0,
) -> MlpModel:
    """ReLU hidden layer, linear or sigmoid output, Adam, optional early stopping.

    Features are standardized internally. With early stopping the last 10% of rows (the
    most recent, respecting time order) form the validation split, patience 10 epochs.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x_mean = x.mean(axis=0)
    x_scale = x.std(axis=0)
    x_scale = np.where(x_scale == 0.0, 1.0, x_scale)
    z = (x - x_mean) / x_scale
    out_act = "sigmoid" if task == "classification" else "identity"
    net = DenseNet((x.shape[1], hidden_size, 1), ("relu", out_act))
    params = init_params(net, rng)
    spec = LossSpec("bce" if task == "classification" else "mse", l2_weight=alpha_l2)
    if early_stopping:
        cut = max(1, int(round(len(y) * 0.9)))
        if cut == len(y):
            cut = len(y) - 1
        z_tr, y_tr, z_val, y_val = z[:cut], y[:cut], z[cut:], y[cut:]
        patience = 10
    else:
        z_tr, y_tr, z_val, y_val = z, y, z, y
        patience = max_iter
    cfg = TrainConfig(
        learning_rate=learning_rate_init,
        batch_size=min(200, len(y_tr)),
        max_epochs=max_iter,
        patience=patience,
    )
    best, _ = train_dense_net(net, params, z_tr, y_tr[:, None], z_val, y_val[:, None], spec, cfg, rng)
    return MlpModel(net=net, params=best, x_mean=x_mean, x_scale=x_scale, task=task)


# ---------------------------------------------------------------------------
# class balancing


def oversample_minority(
    x: np.ndarray, y: np.ndarray, seed: int | np.random.Generator = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Duplicate minority rows (with replacement) until classes are balanced.

    Only ever applied to training data. Output preserves chronological order (duplicate
    indices are merged and sorted).
    """
    y = np.asarray(y)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes to oversample")
    if len(pos) == len(neg):
        return np.asarray(x), y
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    minority, majority = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    extra = rng.choice(minority, size=len(majority) - len(minority), replace=True)
    idx = np.sort(np.concatenate([np.arange(len(y)), extra]))
    return np.asarray(x)[idx], y[idx]


# ---------------------------------------------------------------------------
# random search with chronological k-fold CV

FORECAST_GRIDS: dict[str, dict[str, tuple]] = {
    "ridge": {
        "alpha": (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0),
        "fit_intercept": (False, True),
    },
    "logistic_l1": {"c": (0.01, 0.1, 1.0, 10.0, 100.0)},
    "gbdt": {
        "learning_rate": (1e-4, 1e-3, 1e-2, 1e-1),
        "n_estimators": (5, 10, 20, 40, 80, 160, 320),
        "num_leaves": (5, 10, 20, 40, 80),
        "reg_alpha": (0.0, 1e-4, 1e-3, 1e-2, 1e-1),
        "reg_beta": (0.0, 1e-4, 1e-3, 1e-2, 1e-1),
    },
    "mlp": {
        "hidden_size": (5, 10, 20, 40, 80, 160),
        "alpha_l2": (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0),
        "learning_rate_init": (1e-4, 1e-3, 1e-2, 1e-1),
    },
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict
    task: str
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def train_model(spec: ModelSpec, x: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None):
    """Fit one model of the given family; classification data must be pre-balanced."""
    p = spec.params
    if spec.family == "ridge":
        if spec.task != "regression":
            raise ValueError("ridge is regression-only")
        return fit_ridge(x, y, p["alpha"], p["fit_intercept"])
    if spec.family == "logistic_l1":
        if spec.task != "classification":
            raise ValueError("logistic_l1 is classification-only")
        return fit_logistic_l1(x, y, p["c"])
    if spec.family == "gbdt":
        return fit_gbdt(
            x, y, spec.task,
            learning_rate=p["learning_rate"], n_estimators=p["n_estimators"],
            num_leaves=p["num_leaves"], reg_alpha=p["reg_alpha"], reg_beta=p["reg_beta"],
        )
    return fit_mlp(
        x, y, spec.task,
        hidden_size=p["hidden_size"], alpha_l2=p["alpha_l2"],
        learning_rate_init=p["learning_rate_init"],
        seed=rng if rng is not None else spec.seed,
    )


def chronological_folds(n: int, folds: int) -> list[np.ndarray]:
    """Contiguous index blocks covering range(n) exactly, in time order."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < folds:
        raise ValueError("fewer rows than folds")
    return np.array_split(np.arange(n), folds)


@dataclass(frozen=True)
class CvTrial:
    arm: int
    params: dict
    fold_scores: tuple | None = None
    mean_score: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SearchCvResult:
    spec: ModelSpec
    model: object
    best_score: float
    trials: tuple[CvTrial, ...]


def random_search_cv(
    dataset: ForecastDataset,
    family: str,
    grid: dict | None = None,
    iterations: int = 200,
    folds: int = 3,
    seed: int = 0,
) -> SearchCvResult:
    """Random search over the family grid, scored by chronological k-fold CV.

    Produces exactly `iterations` trial records (configs may repeat; repeated configs
    reuse the first evaluation). Classification folds oversample the training side only;
    validation folds are scored as-is. The winner is refit on the full dataset
    (oversampled for classification).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    grid = FORECAST_GRIDS[family] if grid is None else grid
    x, y = dataset.features, dataset.target
    score_fn = auroc if dataset.task == "classification" else r_squared
    blocks = chronological_folds(len(y), folds)
    fold_sets = []
    for f, block in enumerate(blocks):
        tr_idx = np.setdiff1d(np.arange(len(y)), block)
        x_tr, y_tr = x[tr_idx], y[tr_idx]
        if dataset.task == "classification":
            fold_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(f,)))
            x_tr, y_tr = oversample_minority(x_tr, y_tr, fold_rng)
        fold_sets.append((x_tr, y_tr, x[block], y[block]))

    keys = sorted(grid)
    config_rng = np.random.default_rng(np.random.SeedSequence(seed))
    memo: dict[tuple, CvTrial] = {}
    trials: list[CvTrial] = []
    best: tuple[float, dict] | None = None
    for arm in range(iterations):
        params = {k: grid[k][int(config_rng.integers(len(grid[k])))] for k in keys}
        key = tuple(params[k] for k in keys)
        if key in memo:
            prior = memo[key]
            trials.append(CvTrial(arm=arm, params=params, fold_scores=prior.fold_scores,
                                  mean_score=prior.mean_score, error=prior.error))
            continue
        spec = ModelSpec(family=family, params=params, task=dataset.task, seed=seed)
        try:
            scores = []
            for f, (x_tr, y_tr, x_val, y_val) in enumerate(fold_sets):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(arm, f)))
                model = train_model(spec, x_tr, y_tr, rng=rng)
                scores.append(float(score_fn(y_val, model.predict(x_val))))
            trial = CvTrial(arm=arm, params=params, fold_scores=tuple(scores),
                            mean_score=float(np.mean(scores)))
        except (ValueError, ArithmeticError, TrainingDiverged) as exc:
            trial = CvTrial(arm=arm, params=params, error=str(exc))
        memo[key] = trial
        trials.append(trial)
        if trial.error is None and (best is None or trial.mean_score > best[0]):
            best = (trial.mean_score, params)
    if best is None:
        raise RuntimeError("every search trial failed")

    x_fit, y_fit = x, y
    if dataset.task == "classification":
        refit_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iterations,)))
        x_fit, y_fit = oversample_minority(x_fit, y_fit, refit_rng)
    winner = ModelSpec(family=family, params=best[1], task=dataset.task, seed=seed)
    final_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iterations, 0)))
    model = train_model(winner, x_fit, y_fit, rng=final_rng)
    return SearchCvResult(spec=winner, model=model, best_score=best[0], trials=tuple(trials))


def write_trials_jsonl(trials, path) -> None:
    """One JSON object per trial: config, fold scores, mean, error."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(json.dumps({
                "arm": t.arm,
                "params": t.params,
                "fold_scores": list(t.fold_scores) if t.fold_scores else None,
                "mean_score": t.mean_score,
                "error": t.error,
            }) + "\n")
