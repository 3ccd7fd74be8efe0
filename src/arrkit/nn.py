"""Minimal dense-network engine: explicit forward/backward, Adam, gradient checking.

Everything is float64 numpy. Networks are described by a static layer-dimension tuple plus
per-layer activation names; parameters live outside the network object so training can
snapshot/restore them cheaply. Input dropout is the inverted kind (mask pre-scaled by
1/(1-rate)) and is applied to the raw input vector only, never at inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("elu", "relu", "sigmoid", "identity")


def elu(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_FORWARD = {"elu": elu, "relu": relu, "sigmoid": sigmoid, "identity": lambda z: z}


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "elu":
        return np.where(z > 0, 1.0, a + 1.0)
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


@dataclass(frozen=True)
class DenseNet:
    """Layer sizes (input first) and one activation name per weight layer."""

    dims: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        if len(self.activations) != len(self.dims) - 1:
            raise ValueError("need one activation per weight layer")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if any(d < 1 for d in self.dims):
            raise ValueError("layer dims must be positive")

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1


Params = list  # list of [W, b] pairs


def init_params(net: DenseNet, rng: np.random.Generator) -> Params:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = []
    for i in range(net.n_layers):
        fan_in, fan_out = net.dims[i], net.dims[i + 1]
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append([w, np.zeros(fan_out)])
    return params


def copy_params(params: Params) -> Params:
    return [[w.copy(), b.copy()] for w, b in params]


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Inverted dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def forward(net: DenseNet, params: Params, x: np.ndarray, input_mask: np.ndarray | None = None):
    """Returns (output, caches); caches hold per-layer (input, pre-activation, activation)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if input_mask is not None:
        a = a * input_mask
    caches = []
    for (w, b), act in zip(params, net.activations):
        z = a @ w + b
        a_next = _FORWARD[act](z)
        caches.append((a, z, a_next))
        a = a_next
    return a, caches


@dataclass(frozen=True)
class LossSpec:
    """Data-fit kind plus optional penalties.

    l1_weight penalizes the mean (over samples) L1 norm of the designated layer's
    activation; l1_layer indexes into the activations (0 = first hidden layer).
    l2_weight adds l2/(2B) * sum of squared weights (biases excluded).
    """

    kind: str = "mse"  # "mse" | "bce"
    l1_weight: float = 0.0
    l1_layer: int | None = None
    l2_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in ("mse", "bce"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.l1_weight < 0 or self.l2_weight < 0:
            raise ValueError("penalty weights must be non-negative")
        if self.l1_weight > 0 and self.l1_layer is None:
            raise ValueError("l1_weight needs an l1_layer")


def fit_term(spec: LossSpec, out: np.ndarray, y: np.ndarray, z_out: np.ndarray | None = None) -> float:
    """Penalty-free data term: MSE normalized by batch*output-dim, BCE per sample."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[None, :] if out.shape[0] == 1 else y[:, None]
    b = out.shape[0]
    if spec.kind == "mse":
        d = out - y
        return float(np.sum(d * d) / (b * out.shape[1]))
    # stable binary cross-entropy straight from logits when available
    if z_out is not None:
        z = z_out
        return float(np.sum(np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))) / b)
    p = np.clip(out, 1e-12, 1.0 - 1e-12)
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)) / b)


def loss_and_grads(
    net: DenseNet,
    params: Params,
    x: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    input_mask: np.ndarray | None = None,
):
    """Full-batch loss (fit + penalties) and its parameter gradients."""
    out, caches = forward(net, params, x, input_mask)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    b, d_out = out.shape
    z_last = caches[-1][1]

    if spec.kind == "mse":
        loss = float(np.sum((out - y) ** 2) / (b * d_out))
        d_a = 2.0 * (out - y) / (b * d_out)
        if spec.l1_weight > 0 and spec.l1_layer == net.n_layers - 1:
            d_a = d_a + spec.l1_weight * np.sign(out) / b
        d_z = d_a * _activation_grad(net.activations[-1], z_last, out)
    else:
        if net.activations[-1] != "sigmoid":
            raise ValueError("bce loss requires a sigmoid output layer")
        if spec.l1_weight > 0 and spec.l1_layer == net.n_layers - 1:
            raise ValueError("l1 on the output layer is not supported for bce")
        loss = fit_term(spec, out, y, z_out=z_last)
        d_z = (out - y) / b

    fit = loss  # the data term, before penalties
    l1_total = 0.0
    if spec.l1_weight > 0:
        a_l1 = caches[spec.l1_layer][2]
        l1_total = spec.l1_weight * float(np.sum(np.abs(a_l1))) / b
        loss += l1_total
    if spec.l2_weight > 0:
        loss += spec.l2_weight * sum(float(np.sum(w * w)) for w, _ in params) / (2.0 * b)

    grads = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        a_prev, z, a = caches[i]
        if i < net.n_layers - 1:
            d_a = d_upstream
            if spec.l1_weight > 0 and i == spec.l1_layer:
                d_a = d_a + spec.l1_weight * np.sign(a) / b
            d_z = d_a * _activation_grad(net.activations[i], z, a)
        d_w = a_prev.T @ d_z
        if spec.l2_weight > 0:
            d_w = d_w + spec.l2_weight * params[i][0] / b
        d_b = d_z.sum(axis=0)
        grads[i] = [d_w, d_b]
        d_upstream = d_z @ params[i][0].T
    return loss, grads, {"fit": fit, "l1": l1_total}


def clip_global_norm(grads: Params, max_norm: float) -> tuple[Params, float]:
    """Rescale all gradients together so their joint L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for pair in grads for g in pair))
    if total > max_norm and total > 0:
        scale = max_norm / total
        grads = [[w * scale, b * scale] for w, b in grads]
    return grads, total


@dataclass
class AdamState:
    m: Params = field(default_factory=list)
    v: Params = field(default_factory=list)
    t: int = 0

    @classmethod
    def like(cls, params: Params) -> "AdamState":
        return cls(
            m=[[np.zeros_like(w), np.zeros_like(b)] for w, b in params],
            v=[[np.zeros_like(w), np.zeros_like(b)] for w, b in params],
        )


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam update with bias correction."""
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        for j in range(2):
            m[j] *= beta1
            m[j] += (1.0 - beta1) * g[j]
            v[j] *= beta2
            v[j] += (1.0 - beta2) * g[j] * g[j]
            p[j] -= lr * (m[j] / c1) / (np.sqrt(v[j] / c2) + eps)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int):
        super().__init__(f"training diverged: non-finite loss at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 5
    clip_norm: float | None = None
    dropout_rate: float = 0.0


def train_dense_net(
    net: DenseNet,
    params: Params,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    spec: LossSpec,
    cfg: TrainConfig,
    rng: np.random.Generator,
):
    """Minibatch Adam with early stopping on the penalty-free validation fit.

    Returns (best_params, history); history rows carry epoch, mean train loss and
    validation fit. The parameters from the best validation epoch are returned even when
    the run exhausts max_epochs.
    """
    n = x_train.shape[0]
    state = AdamState.like(params)
    best_fit = math.inf
    best_params = copy_params(params)
    bad_epochs = 0
    history = []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for step, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            mask = None
            if cfg.dropout_rate > 0:
                mask = dropout_mask(rng, xb.shape, cfg.dropout_rate)
            loss, grads, _ = loss_and_grads(net, params, xb, yb, spec, input_mask=mask)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, step)
            if cfg.clip_norm is not None:
                grads, _ = clip_global_norm(grads, cfg.clip_norm)
            adam_step(params, grads, state, cfg.learning_rate)
            epoch_losses.append(loss)
        out_val, caches_val = forward(net, params, x_val)
        val_fit = fit_term(spec, out_val, y_val, z_out=caches_val[-1][1])
        if not math.isfinite(val_fit):
            raise TrainingDiverged(epoch, -1)
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_fit": val_fit}
        )
        if val_fit < best_fit:
            best_fit = val_fit
            best_params = copy_params(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best_params, history


def gradient_check(
    net: DenseNet,
    params: Params,
    x: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    input_mask: np.ndarray | None = None,
    step: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    _, grads, _ = loss_and_grads(net, params, x, y, spec, input_mask=input_mask)
    worst = 0.0
    for i, (w, b) in enumerate(params):
        for j, arr in enumerate((w, b)):
            flat = arr.ravel()
            g_flat = grads[i][j].ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                up, _, _ = loss_and_grads(net, params, x, y, spec, input_mask=input_mask)
                flat[k] = orig - step
                down, _, _ = loss_and_grads(net, params, x, y, spec, input_mask=input_mask)
                flat[k] = orig
                numeric = (up - down) / (2.0 * step)
                denom = max(1.0, abs(numeric) + abs(g_flat[k]))
                worst = max(worst, abs(numeric - g_flat[k]) / denom)
    return worst
