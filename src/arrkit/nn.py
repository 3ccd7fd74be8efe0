"""Minimal dense-network engine: explicit forward/backward, Adam, gradient checking.

Everything is float64 numpy. Networks are described by a static layer-dimension tuple plus
per-layer activation names. The weights and biases live in one flat vector (each layer's
row-major W, then its b) that training updates, clips and snapshots in a few vector ops; the
[W, b] pairs that `forward`, the serializer and the models take are views into it. Input
dropout is the inverted kind (mask pre-scaled by 1/(1-rate)) and is applied to the raw
input vector only, never at inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _backprop_activation(name: str, d_a: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d_a times the activation's derivative at z, where a is the activation."""
    if name == "elu":  # 1 where z > 0, else a + 1: that is min(a, 0) + 1, with no z > 0 mask
        return d_a * (np.minimum(a, 0.0) + 1.0)
    if name == "relu":
        return d_a * (z > 0)
    if name == "sigmoid":
        return d_a * (a * (1.0 - a))
    return d_a


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


def param_views(net: DenseNet, flat: np.ndarray | None = None) -> tuple[np.ndarray, Params]:
    """A flat parameter vector (zeros if none is given) and its [W, b] views."""
    layers = list(zip(net.dims, net.dims[1:]))
    if flat is None:
        flat = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in layers))
    params, lo = [], 0
    for fan_in, fan_out in layers:
        hi = lo + fan_in * fan_out
        params.append([flat[lo:hi].reshape(fan_in, fan_out), flat[hi : hi + fan_out]])
        lo = hi + fan_out
    if lo != flat.size:
        raise ValueError(f"need a flat vector of {lo} parameters, got {flat.size}")
    return flat, params


def flatten(params: Params) -> np.ndarray:
    """A new flat vector holding params, in the layout of param_views."""
    return np.concatenate([np.ravel(p) for pair in params for p in pair], dtype=np.float64)


def init_params(net: DenseNet, rng: np.random.Generator) -> Params:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, as views of one vector."""
    _, params = param_views(net)
    for w, _ in params:
        fan_in, fan_out = w.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return params


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
        z = a @ w
        z += b
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
    grads: Params | None = None,
):
    """Full-batch loss (fit + penalties) and its parameter gradients, written into grads
    ([dW, db] buffers, views of one flat vector) or into new ones when it is None."""
    out, caches = forward(net, params, x, input_mask)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    b, d_out = out.shape
    last = net.n_layers - 1
    if grads is None:
        _, grads = param_views(net)

    if spec.kind == "mse":
        diff = out - y
        loss = float(np.sum(diff * diff) / (b * d_out))
        d_a = 2.0 * diff / (b * d_out)
        if spec.l1_weight > 0 and spec.l1_layer == last:
            d_a += spec.l1_weight * np.sign(out) / b
        d_z = _backprop_activation(net.activations[-1], d_a, *caches[-1][1:])
    else:
        if net.activations[-1] != "sigmoid":
            raise ValueError("bce loss requires a sigmoid output layer")
        if spec.l1_weight > 0 and spec.l1_layer == last:
            raise ValueError("l1 on the output layer is not supported for bce")
        loss = fit_term(spec, out, y, z_out=caches[-1][1])
        d_z = (out - y) / b

    fit = loss  # the data term, before penalties
    l1_total = 0.0
    if spec.l1_weight > 0:
        a_l1 = caches[spec.l1_layer][2]
        l1_total = spec.l1_weight * float(np.sum(np.abs(a_l1))) / b
        loss += l1_total
    if spec.l2_weight > 0:
        loss += spec.l2_weight * sum(float(np.sum(w * w)) for w, _ in params) / (2.0 * b)

    for i in range(last, -1, -1):
        a_prev, z, a = caches[i]
        if i < last:
            d_a = d_z @ params[i + 1][0].T
            if spec.l1_weight > 0 and i == spec.l1_layer:
                d_a += spec.l1_weight * np.sign(a) / b
            d_z = _backprop_activation(net.activations[i], d_a, z, a)
        d_w, d_b = grads[i]
        np.matmul(a_prev.T, d_z, out=d_w)
        if spec.l2_weight > 0:
            d_w += spec.l2_weight * params[i][0] / b
        np.add.reduce(d_z, axis=0, out=d_b)
    return loss, grads, {"fit": fit, "l1": l1_total}


def clip_global_norm(flat: np.ndarray, bounds, max_norm: float) -> float:
    """Scale a flat gradient in place so its L2 norm is at most max_norm; returns the
    norm before clipping. The squares are summed per piece (flat[bounds[k]:bounds[k+1]],
    each W and b) and the sums added in order: the norm rounds as for separate arrays."""
    sq = flat * flat
    total = math.sqrt(sum(float(np.add.reduce(sq[lo:hi])) for lo, hi in zip(bounds, bounds[1:])))
    if total > max_norm and total > 0:
        flat *= max_norm / total
    return total


def adam_step(
    theta: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam step number t (from 1), with bias correction: updates theta and the moment
    vectors m and v in place."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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

    Trains a flat copy of params, which are left as they are. Returns (best_params,
    history); history rows carry epoch, mean train loss and validation fit. The
    parameters from the best validation epoch are returned even when the run exhausts
    max_epochs.
    """
    n = x_train.shape[0]
    theta, live = param_views(net, flatten(params))
    g, grads = param_views(net)
    bounds = np.cumsum([0] + [p.size for pair in grads for p in pair]).tolist()
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
    best_fit = math.inf
    best = theta.copy()
    bad_epochs = 0
    history = []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for step, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = x_train.take(idx, axis=0), y_train.take(idx, axis=0)  # faster than x[idx]
            mask = None
            if cfg.dropout_rate > 0:
                mask = dropout_mask(rng, xb.shape, cfg.dropout_rate)
            loss, _, _ = loss_and_grads(net, live, xb, yb, spec, input_mask=mask, grads=grads)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, step)
            if cfg.clip_norm is not None:
                clip_global_norm(g, bounds, cfg.clip_norm)
            t += 1
            adam_step(theta, g, m, v, t, cfg.learning_rate)
            epoch_losses.append(loss)
        out_val, caches_val = forward(net, live, x_val)
        val_fit = fit_term(spec, out_val, y_val, z_out=caches_val[-1][1])
        if not math.isfinite(val_fit):
            raise TrainingDiverged(epoch, -1)
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_fit": val_fit}
        )
        if val_fit < best_fit:
            best_fit = val_fit
            best[:] = theta
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return param_views(net, best)[1], history


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
    theta, live = param_views(net, flatten(params))

    def loss_at(k: int, value: float) -> float:
        theta[k] = value
        return loss_and_grads(net, live, x, y, spec, input_mask=input_mask)[0]

    analytic = flatten(loss_and_grads(net, live, x, y, spec, input_mask=input_mask)[1])
    worst = 0.0
    for k, orig in enumerate(theta.tolist()):
        numeric = (loss_at(k, orig + step) - loss_at(k, orig - step)) / (2.0 * step)
        theta[k] = orig
        worst = max(worst, abs(numeric - analytic[k]) / max(1.0, abs(numeric) + abs(analytic[k])))
    return worst
