"""Volatility forecasting and crash classification on windowed series.

Features follow the heterogeneous-horizon pattern: to predict the next window at horizon
d, use the latest log RV at every frequency >= d (and optionally the co-movement ratio at
those frequencies). Four model families are implemented in-repo: ridge regression (closed
form), L1 logistic regression (proximal gradient), gradient-boosted trees (exact greedy,
leaf-wise), and a one-hidden-layer perceptron on the dense-net engine. Hyperparameters
come from random search scored by chronologically contiguous k-fold cross validation.
"""

from __future__ import annotations

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
from .search import draw_configs, first_best, map_arms
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
    the next observation of that series; a week rolls one session at a time, so a weekly
    target is the disjoint week five stamps ahead. Classification swaps the target for the
    crash label at the target stamp.

    Rows must carry every RV *and* ratio feature whether or not include_arr is set, so
    the with/without datasets stay row-aligned for paired comparison.
    """
    missing = [FREQ_NAMES[f] for f in FREQUENCIES if f not in log_rv or f not in arr]
    if missing:
        raise ValueError(f"missing frequencies: {', '.join(missing)}")
    if horizon not in FREQUENCIES:
        raise ValueError(f"unsupported horizon {horizon}")
    anchor = log_rv[horizon]
    step = 5 if horizon == ONE_WEEK else 1
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
        if len(crash.labels) == 0:
            raise ValueError(
                f"no crash labels at the {FREQ_NAMES[horizon]} horizon: {len(anchor.values)} "
                f"windows against {math.ceil(3.0 * crash.half_life)} warm-up stamps"
            )
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
    if np.any((y != 0.0) & (y != 1.0)):
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


def _leaf_values(g, h, alpha: float, beta: float):
    """Newton leaf weight and its score with L1 (alpha) / L2 (beta) regularization."""
    shrunk = _soft_threshold(g, alpha)
    denom = h + beta
    safe = denom > 0
    denom = np.where(safe, denom, 1.0)
    return np.where(safe, -shrunk / denom, 0.0), np.where(safe, 0.5 * shrunk * shrunk / denom, 0.0)


@dataclass(eq=False)
class _Leaf:
    rows: np.ndarray
    node: TreeNode
    weight: float = 0.0
    gain: float = -np.inf
    feature: int = -1
    threshold: float = 0.0
    left_rows: np.ndarray | None = None
    right_rows: np.ndarray | None = None


def _find_split(x, g, h, orders, alpha, beta, leaf: _Leaf):
    """Score every cut of every feature's sorted rows in one pass; keep the first maximum
    (lowest feature, then lowest threshold) when its gain is positive."""
    g_tot = g[leaf.rows].sum()
    h_tot = h[leaf.rows].sum()
    leaf.weight, parent = _leaf_values(g_tot, h_tot, alpha, beta)
    in_leaf = np.zeros(orders.shape[1], dtype=bool)
    in_leaf[leaf.rows] = True
    order = orders[in_leaf[orders]].reshape(len(orders), len(leaf.rows))
    xs = x[order, np.arange(len(orders))[:, None]]
    cg = np.cumsum(g[order], axis=1)[:, :-1]
    ch = np.cumsum(h[order], axis=1)[:, :-1]
    _, s = _leaf_values(np.stack([cg, g_tot - cg]), np.stack([ch, h_tot - ch]), alpha, beta)
    gains = s[0] + s[1] - parent
    gains[~(xs[:, :-1] < xs[:, 1:])] = -np.inf  # a cut must fall between distinct values
    if gains.size == 0:  # a one-row leaf has no cut
        return
    f, cut = divmod(int(np.argmax(gains)), gains.shape[1])
    if gains[f, cut] > 0:
        leaf.gain = gains[f, cut]
        leaf.feature = f
        mid = (xs[f, cut] + xs[f, cut + 1]) / 2.0
        leaf.threshold = mid if mid < xs[f, cut + 1] else xs[f, cut]  # x <= threshold goes left
        leaf.left_rows = order[f, : cut + 1]
        leaf.right_rows = order[f, cut + 1 :]


def _build_tree(x, g, h, num_leaves, alpha, beta, orders) -> TreeNode:
    root = TreeNode()
    leaves = [_Leaf(rows=np.arange(len(g)), node=root)]
    _find_split(x, g, h, orders, alpha, beta, leaves[0])
    while len(leaves) < num_leaves:
        at = max(range(len(leaves)), key=lambda i: leaves[i].gain)  # earliest leaf wins gain ties
        pick = leaves[at]
        if pick.gain <= 0:
            break
        pick.node.feature = pick.feature
        pick.node.threshold = pick.threshold
        pick.node.left = TreeNode()
        pick.node.right = TreeNode()
        leaves[at] = _Leaf(rows=pick.left_rows, node=pick.node.left)
        leaves.append(_Leaf(rows=pick.right_rows, node=pick.node.right))
        _find_split(x, g, h, orders, alpha, beta, leaves[at])
        _find_split(x, g, h, orders, alpha, beta, leaves[-1])
    for leaf in leaves:
        leaf.node.value = float(leaf.weight)
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
    orders = np.argsort(x.T, axis=1, kind="stable")  # (features, rows)
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
        tree = _build_tree(x, g, h, num_leaves, reg_alpha, reg_beta, orders)
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
    seed: int | np.random.Generator = 0,
) -> MlpModel:
    """ReLU hidden layer, linear or sigmoid output, Adam, early stopping.

    Features are standardized internally. The last 10% of rows (the most recent,
    respecting time order) form the early-stopping validation split, patience 10 epochs.
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
    cut = max(1, int(round(len(y) * 0.9)))
    if cut == len(y):
        cut = len(y) - 1
    z_tr, y_tr, z_val, y_val = z[:cut], y[:cut], z[cut:], y[cut:]
    cfg = TrainConfig(
        learning_rate=learning_rate_init,
        batch_size=min(200, len(y_tr)),
        max_epochs=max_iter,
        patience=10,
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
    folds_scored: int  # folds whose validation block could be scored
    fold_scores: tuple | None = None
    mean_score: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SearchCvResult:
    spec: ModelSpec
    model: object
    best_score: float
    trials: tuple[CvTrial, ...]


def _cv_arm(job, fold_sets, family: str, task: str, seed: int):
    """(fold scores, mean score, error) of one arm from (arm, params)."""
    arm, params = job
    spec = ModelSpec(family=family, params=params, task=task, seed=seed)
    score_fn = auroc if task == "classification" else r_squared
    scores = []
    try:
        for f, x_tr, y_tr, x_val, y_val in fold_sets:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(arm, f)))
            model = train_model(spec, x_tr, y_tr, rng=rng)
            scores.append(float(score_fn(y_val, model.predict(x_val))))
    except (ValueError, ArithmeticError, TrainingDiverged) as exc:
        return None, None, str(exc)
    return tuple(scores), float(np.mean(scores)), None


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
    validation folds are scored as-is, and a classification fold whose validation block
    holds one class, where AUROC is undefined, is skipped. The winner is refit on the
    full dataset (oversampled for classification).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    grid = FORECAST_GRIDS[family] if grid is None else grid
    x, y = dataset.features, dataset.target
    blocks = chronological_folds(len(y), folds)
    classification = dataset.task == "classification"
    fold_sets = []
    for f, block in enumerate(blocks):
        if classification and y[block].min() == y[block].max():  # AUROC undefined
            continue
        outside = np.ones(len(y), dtype=bool)
        outside[block] = False
        tr_idx = np.flatnonzero(outside)
        x_tr, y_tr = x[tr_idx], y[tr_idx]
        if classification:
            fold_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(f,)))
            x_tr, y_tr = oversample_minority(x_tr, y_tr, fold_rng)
        fold_sets.append((f, x_tr, y_tr, x[block], y[block]))
    if not fold_sets:
        raise ValueError("no CV fold holds both classes")

    configs = draw_configs(grid, iterations, seed)
    first: dict[tuple, int] = {}  # a repeated config reuses the evaluation of its first arm
    sources = [first.setdefault(tuple(params.values()), arm) for arm, params in enumerate(configs)]
    jobs = [(arm, configs[arm]) for arm in first.values()]
    # in process: the forecast stage spreads its cells, not their arms, over the workers
    results = map_arms(_cv_arm, jobs, (fold_sets, family, dataset.task, seed), workers=1)
    evaluated = dict(zip(first.values(), results))
    trials = tuple(CvTrial(arm, configs[arm], len(fold_sets), *evaluated[src])
                   for arm, src in enumerate(sources))
    best = first_best([None if t.error is not None else -t.mean_score for t in trials])  # highest score
    if best is None:
        raise RuntimeError(f"every search trial failed; arm 0: {trials[0].error}")

    x_fit, y_fit = x, y
    if classification:
        refit_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iterations,)))
        x_fit, y_fit = oversample_minority(x_fit, y_fit, refit_rng)
    winner = ModelSpec(family=family, params=configs[best], task=dataset.task, seed=seed)
    final_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iterations, 0)))
    model = train_model(winner, x_fit, y_fit, rng=final_rng)
    return SearchCvResult(spec=winner, model=model, best_score=trials[best].mean_score, trials=trials)

