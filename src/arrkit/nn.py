"""Minimal dense-network engine: explicit forward/backward, Adam, gradient checking.

Everything is float64 numpy. Networks are described by a static layer-dimension tuple plus
per-layer activation names. The weights and biases live in one flat vector (each layer's
row-major W, then its b) that training updates, clips and snapshots in a few vector ops; the
[W, b] pairs that `forward`, the serializer and the models take are views into it. Input
dropout is the inverted kind (mask pre-scaled by 1/(1-rate)) and is applied to the raw
input vector only, never at inference.

The passes run feature-major: activations and deltas are (width, rows) arrays in
per-layer buffers (`Workspace`, allocated once per training run), so every elementwise op,
bias add and bias-gradient sum runs along the long contiguous rows axis. `forward` and
`loss_and_grads` take and return (rows, width) arrays, the transposes of those buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("elu", "relu", "sigmoid", "identity")


def elu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(expm1(min(z, 0)), z); the + 0.0 turns the -0.0 of z = -0.0 into 0.0, so the
    result equals np.where(z > 0, z, expm1(min(z, 0))) bit for bit."""
    out = np.minimum(z, 0.0, out=out)
    np.expm1(out, out=out)
    np.maximum(out, z, out=out)
    out += 0.0
    return out


def relu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(z) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_FORWARD = {"elu": elu, "relu": relu, "sigmoid": sigmoid}


def _backprop_activation(name: str, d: np.ndarray, z: np.ndarray, a: np.ndarray) -> None:
    """Multiplies d (holding d_a) in place by the activation's derivative at z, where a is
    the activation. The elu branch overwrites a, which the backward pass no longer needs."""
    if name == "elu":  # 1 where z > 0, else a + 1: that is min(a, 0) + 1, with no z > 0 mask
        np.minimum(a, 0.0, out=a)
        a += 1.0
        d *= a
    elif name == "relu":
        d *= z > 0
    elif name == "sigmoid":
        d *= a * (1.0 - a)


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


def dropout_mask(rng: np.random.Generator, rate: float, out: np.ndarray) -> np.ndarray:
    """Fills the C-contiguous out with the inverted dropout mask (u >= rate) / (1 - rate),
    bit for bit, where u = rng.random(out.shape) takes the same draws; returns out."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    rng.random(out=out)
    np.greater_equal(out, rate, out=out)
    out /= 1.0 - rate
    return out


class Workspace:
    """Feature-major (width, rows) buffers for passes over `rows` rows: per layer z and the
    activation (z itself for identity); for training also the gathered batch, the
    row-major (rows, width) dropout mask, the masked input and per layer the delta."""

    def __init__(self, net: DenseNet, rows: int, train: bool = True):
        self.z = [np.empty((width, rows)) for width in net.dims[1:]]
        self.a = [z if act == "identity" else np.empty_like(z) for z, act in zip(self.z, net.activations)]
        self.batch, self.masked = np.empty((2, net.dims[0], rows)) if train else (None, None)
        self.mask = np.empty((rows, net.dims[0])) if train else None
        self.d = [np.empty_like(z) for z in self.z] if train else None


def _output_workspace(net: DenseNet, rows: int) -> Workspace:
    """Inference buffers for a pass that reads only the output layer: the hidden layers' z and
    activations take turns in two shared (max width, rows) buffers, each made from the other."""
    work, turn = Workspace(net, 0, train=False), 0
    hidden = np.empty((2, max(net.dims[1:-1], default=0), rows))
    for i, (width, act) in enumerate(zip(net.dims[1:-1], net.activations)):
        work.z[i] = hidden[turn % 2, :width]
        work.a[i] = work.z[i] if act == "identity" else hidden[(turn + 1) % 2, :width]
        turn += 1 if act == "identity" else 2
    work.z[-1] = np.empty((net.dims[-1], rows))
    work.a[-1] = work.z[-1] if net.activations[-1] == "identity" else np.empty_like(work.z[-1])
    return work


def _feature_major(x, input_mask=None):
    """x (rows, width) or one row, and its input mask, as (width, rows) arrays; an x whose
    transpose is C-contiguous is not copied."""
    x = np.asarray(x, dtype=np.float64)
    x = x[None, :] if x.ndim == 1 else x
    return np.ascontiguousarray(x.T), None if input_mask is None else np.atleast_2d(input_mask).T


def _forward_t(net: DenseNet, params: Params, xt: np.ndarray, mask_t, work: Workspace):
    """Feature-major pass of xt through work's buffers: per-layer (input, z, activation)."""
    a = xt if mask_t is None else np.multiply(xt, mask_t, out=work.masked)
    caches = []
    for (w, b), act, z, a_next in zip(params, net.activations, work.z, work.a):
        if w.shape[1] == 1:  # BLAS would run a gemv whose rounding depends on the row count
            np.add.reduce(w * a, axis=0, out=z[0])
        else:
            np.matmul(w.T, a, out=z)
        z += b[:, None]
        if act != "identity":
            _FORWARD[act](z, out=a_next)
        caches.append((a, z, a_next))
        a = a_next
    return caches


def forward(net: DenseNet, params: Params, x: np.ndarray, input_mask: np.ndarray | None = None):
    """Returns (output, caches); caches hold per-layer (input, pre-activation, activation)."""
    xt, mask_t = _feature_major(x, input_mask)
    caches = _forward_t(net, params, xt, mask_t, Workspace(net, xt.shape[1], train=False))
    return caches[-1][2].T, [(a_prev.T, z.T, a.T) for a_prev, z, a in caches]


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
    net: DenseNet, params: Params, x: np.ndarray, y: np.ndarray, spec: LossSpec,
    input_mask: np.ndarray | None = None, grads: Params | None = None, work: Workspace | None = None,
):
    """Full-batch loss (fit + penalties) and its parameter gradients, written into grads
    ([dW, db] buffers, views of one flat vector) or into new ones when it is None. The
    pass runs through work's buffers when given (sized for x's rows)."""
    xt, mask_t = _feature_major(x, input_mask)
    b, d_out = xt.shape[1], net.dims[-1]
    work = Workspace(net, b) if work is None else work
    y = np.asarray(y, dtype=np.float64)
    y_t = (y[:, None] if y.ndim == 1 else y).T
    caches = _forward_t(net, params, xt, mask_t, work)
    out, z_out = caches[-1][2], caches[-1][1]
    last = net.n_layers - 1
    grads = param_views(net)[1] if grads is None else grads

    d = np.subtract(out, y_t, out=work.d[last])
    if spec.kind == "mse":
        flat = d.reshape(-1)
        loss = float(np.dot(flat, flat)) / (b * d_out)
        d *= 2.0
        d /= b * d_out
    else:
        if net.activations[-1] != "sigmoid":
            raise ValueError("bce loss requires a sigmoid output layer")
        if spec.l1_weight > 0 and spec.l1_layer == last:
            raise ValueError("l1 on the output layer is not supported for bce")
        loss = fit_term(spec, out.T, y_t.T, z_out=z_out.T)
        d /= b

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
        d = work.d[i]
        if i < last:
            np.matmul(params[i + 1][0], work.d[i + 1], out=d)
        if spec.l1_weight > 0 and i == spec.l1_layer:
            d += spec.l1_weight * np.sign(a) / b
        if i < last or spec.kind == "mse":  # a bce delta is already taken through the sigmoid
            _backprop_activation(net.activations[i], d, z, a)
        d_w, d_b = grads[i]
        np.matmul(a_prev, d.T, out=d_w)
        if spec.l2_weight > 0:
            d_w += spec.l2_weight * params[i][0] / b
        np.add.reduce(d, axis=1, out=d_b)
    return loss, grads, {"fit": fit, "l1": l1_total}


def clip_global_norm(flat: np.ndarray, max_norm: float) -> float:
    """Scale a flat gradient in place so its L2 norm is at most max_norm; returns the
    norm before clipping, one dot product of the vector with itself."""
    total = math.sqrt(float(np.dot(flat, flat)))
    if total > max_norm and total > 0:
        flat *= max_norm / total
    return total


def adam_step(
    theta: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
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
    net: DenseNet, params: Params, x_train: np.ndarray, y_train: np.ndarray | None,
    x_val: np.ndarray, y_val: np.ndarray | None, spec: LossSpec, cfg: TrainConfig,
    rng: np.random.Generator,
):
    """Minibatch Adam with early stopping on the penalty-free validation fit.

    Trains a flat copy of params, which are left as they are. Returns (best_params,
    history); history rows carry epoch, mean train loss and validation fit. The
    parameters from the best validation epoch are returned even when the run exhausts
    max_epochs. y_train and y_val of None make the targets the first dims[-1] input
    columns (an autoencoder's), read as views of each gathered batch.
    """
    d_out = net.dims[-1]
    x_rows = np.ascontiguousarray(x_train, dtype=np.float64)  # rows gather fast, then transpose
    y_rows = None if y_train is None else np.ascontiguousarray(y_train, dtype=np.float64)
    xv_t, _ = _feature_major(x_val)
    yv_t = xv_t[:d_out] if y_val is None else np.asarray(y_val, dtype=np.float64).reshape(xv_t.shape[1], -1).T
    theta, live = param_views(net, flatten(params))
    g, grads = param_views(net)
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
    works = {}  # rows -> Workspace: the full batch and the ragged last one
    val_work = _output_workspace(net, xv_t.shape[1])
    best_fit = math.inf
    best = theta.copy()
    bad_epochs = 0
    history = []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(x_rows.shape[0])
        epoch_losses = []
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            work = works.get(idx.size) or works.setdefault(idx.size, Workspace(net, idx.size))
            np.copyto(work.batch, x_rows.take(idx, axis=0).T)
            xb = work.batch.T
            yb = xb[:, :d_out] if y_rows is None else y_rows.take(idx, axis=0)
            mask = dropout_mask(rng, cfg.dropout_rate, work.mask) if cfg.dropout_rate else None
            loss, _, _ = loss_and_grads(net, live, xb, yb, spec, mask, grads, work)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, step)
            if cfg.clip_norm is not None:
                clip_global_norm(g, cfg.clip_norm)
            t += 1
            adam_step(theta, g, m, v, t, cfg.learning_rate)
            epoch_losses.append(loss)
        _, z_val, out_val = _forward_t(net, live, xv_t, None, val_work)[-1]
        if spec.kind == "mse":  # fit_term's MSE, in the output buffer
            np.subtract(out_val, yv_t, out=out_val)
            val_fit = float(np.sum(np.multiply(out_val, out_val, out=out_val)) / out_val.size)
        else:
            val_fit = fit_term(spec, out_val.T, yv_t.T, z_out=z_val.T)
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
    net: DenseNet, params: Params, x: np.ndarray, y: np.ndarray, spec: LossSpec,
    input_mask: np.ndarray | None = None, step: float = 1e-6,
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
