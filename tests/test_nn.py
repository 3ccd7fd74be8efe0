"""Dense-network engine: activations, losses, gradients, Adam, training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrkit.nn as nn
from arrkit.nn import (
    ACTIVATIONS,
    DenseNet,
    LossSpec,
    TrainConfig,
    TrainingDiverged,
    Workspace,
    adam_step,
    clip_global_norm,
    dropout_mask,
    elu,
    fit_term,
    flatten,
    forward,
    gradient_check,
    init_params,
    loss_and_grads,
    param_views,
    relu,
    sigmoid,
    train_dense_net,
)


# ---------------------------------------------------------------------------
# activations


def test_elu_matches_piecewise_definition():
    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    expected = np.where(z > 0, z, np.array([math.expm1(v) for v in np.minimum(z, 0.0)]))
    np.testing.assert_allclose(elu(z), expected, rtol=0, atol=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=20))
def test_elu_equals_the_where_form_bit_for_bit(values):
    z = np.array(values + [0.0, -0.0, -1e-300, 5e-324, -5e-324, -800.0])
    expected = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    assert elu(z).tobytes() == expected.tobytes()
    out = np.empty_like(z)
    assert elu(z, out=out) is out and out.tobytes() == expected.tobytes()


def test_relu_matches_max_zero():
    z = np.array([-2.0, -1e-12, 0.0, 1e-12, 7.0])
    np.testing.assert_array_equal(relu(z), np.maximum(z, 0.0))


def test_sigmoid_matches_logistic_and_stays_finite():
    z = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
    np.testing.assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-15)
    extreme = sigmoid(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(extreme))
    assert extreme[0] == 0.0 and extreme[1] == 1.0


# ---------------------------------------------------------------------------
# network container and initialization


def test_dense_net_validates_shape_and_names():
    with pytest.raises(ValueError, match="one activation per weight layer"):
        DenseNet((3, 2, 1), ("elu",))
    with pytest.raises(ValueError, match="unknown activation"):
        DenseNet((3, 1), ("tanh",))
    with pytest.raises(ValueError, match="positive"):
        DenseNet((3, 0, 1), ("elu", "elu"))
    assert DenseNet((4, 2, 4), ("elu", "identity")).n_layers == 2


def test_init_params_bounds_shapes_and_zero_biases():
    net = DenseNet((7, 3, 2), ("elu", "identity"))
    params = init_params(net, np.random.default_rng(0))
    assert [(w.shape, b.shape) for w, b in params] == [((7, 3), (3,)), ((3, 2), (2,))]
    for (w, b), (fi, fo) in zip(params, [(7, 3), (3, 2)]):
        bound = math.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) <= bound)
        assert np.all(b == 0.0)


def test_init_params_deterministic_by_seed():
    net = DenseNet((5, 2), ("identity",))
    a = init_params(net, np.random.default_rng(42))
    b = init_params(net, np.random.default_rng(42))
    np.testing.assert_array_equal(a[0][0], b[0][0])


# ---------------------------------------------------------------------------
# dropout


def test_dropout_mask_is_inverted_and_unbiased():
    rng = np.random.default_rng(3)
    mask = dropout_mask(rng, 0.4, np.empty((200, 50)))
    keep = 1.0 / 0.6
    assert set(np.unique(mask)) <= {0.0, keep}
    # inverted scaling keeps the expected value of the masked input at 1
    assert abs(mask.mean() - 1.0) < 0.02
    assert abs((mask == 0.0).mean() - 0.4) < 0.02


def test_dropout_mask_rate_zero_and_validation():
    mask = dropout_mask(np.random.default_rng(0), 0.0, np.empty((3, 4)))
    np.testing.assert_array_equal(mask, np.ones((3, 4)))
    with pytest.raises(ValueError, match="dropout rate"):
        dropout_mask(np.random.default_rng(0), 1.0, np.empty(2))
    with pytest.raises(ValueError, match="dropout rate"):
        dropout_mask(np.random.default_rng(0), -0.1, np.empty(2))


@pytest.mark.parametrize("rate", [0.2, 0.8])
def test_workspace_mask_gives_the_allocating_formulas_masked_input(rate):
    """The mask drawn into a workspace takes the draws of rng.random(shape), and the
    masked input equals x * ((u >= rate) / (1 - rate)) bit for bit, signed zeros too."""
    net = DenseNet((6, 4, 5), ("elu", "identity"))
    rng = np.random.default_rng(5)
    params = init_params(net, rng)
    x = rng.normal(size=(37, 6))
    work = Workspace(net, 37)
    mask = dropout_mask(np.random.default_rng(11), rate, work.mask)
    assert mask is work.mask
    u = np.random.default_rng(11).random(x.shape)
    expected = x * ((u >= rate) / (1 - rate))
    loss_and_grads(net, params, x, x[:, :5], LossSpec("mse"), mask, work=work)
    assert work.masked.T.tobytes() == expected.tobytes()
    assert np.signbit(expected[expected == 0.0]).any()


# ---------------------------------------------------------------------------
# forward pass


def test_forward_matches_hand_computation():
    net = DenseNet((2, 2, 1), ("identity", "identity"))
    w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    b1 = np.array([0.5, -0.5])
    w2 = np.array([[2.0], [-1.0]])
    b2 = np.array([0.25])
    x = np.array([[1.0, -1.0], [0.5, 2.0]])
    out, caches = forward(net, [[w1, b1], [w2, b2]], x)
    np.testing.assert_allclose(out, (x @ w1 + b1) @ w2 + b2, rtol=0, atol=0)
    assert len(caches) == 2
    np.testing.assert_array_equal(caches[0][0], x)


def test_forward_promotes_vectors_and_applies_input_mask():
    net = DenseNet((3, 1), ("identity",))
    params = [[np.ones((3, 1)), np.zeros(1)]]
    out, _ = forward(net, params, np.array([1.0, 2.0, 3.0]))
    assert out.shape == (1, 1) and out[0, 0] == 6.0
    masked, _ = forward(net, params, np.array([1.0, 2.0, 3.0]), input_mask=np.array([0.0, 2.0, 0.0]))
    assert masked[0, 0] == 4.0


# ---------------------------------------------------------------------------
# losses


def test_loss_spec_validation():
    with pytest.raises(ValueError, match="unknown loss kind"):
        LossSpec(kind="huber")
    with pytest.raises(ValueError, match="non-negative"):
        LossSpec(l2_weight=-1.0)
    with pytest.raises(ValueError, match="l1_layer"):
        LossSpec(l1_weight=0.5)


def test_mse_fit_term_normalizes_by_batch_and_width():
    out = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[0.0, 2.0], [3.0, 1.0]])
    # squared error sum = 1 + 0 + 0 + 9 = 10, over B*D = 4
    assert fit_term(LossSpec("mse"), out, y) == pytest.approx(10.0 / 4.0, rel=0, abs=0)


def test_bce_fit_term_matches_direct_formula_and_is_stable():
    z = np.array([[-2.0], [0.5], [3.0]])
    y = np.array([[1.0], [0.0], [1.0]])
    p = 1.0 / (1.0 + np.exp(-z))
    direct = float(-np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)) / 3)
    assert fit_term(LossSpec("bce"), p, y, z_out=z) == pytest.approx(direct, rel=1e-12)
    assert fit_term(LossSpec("bce"), p, y) == pytest.approx(direct, rel=1e-9)
    huge = np.array([[800.0], [-800.0]])
    val = fit_term(LossSpec("bce"), sigmoid(huge), np.array([[0.0], [1.0]]), z_out=huge)
    assert math.isfinite(val) and val == pytest.approx(800.0, rel=1e-12)


def test_loss_includes_l1_and_l2_terms():
    net = DenseNet((2, 2, 2), ("identity", "identity"))
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    w2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    params = [[w1, np.zeros(2)], [w2, np.zeros(2)]]
    x = np.array([[1.0, -2.0], [3.0, 0.5]])
    y = np.zeros((2, 2))
    spec = LossSpec("mse", l1_weight=0.5, l1_layer=0, l2_weight=2.0)
    loss, _, aux = loss_and_grads(net, params, x, y, spec)
    b = 2
    mse = float(np.sum(x * x)) / (b * 2)
    l1 = 0.5 * float(np.sum(np.abs(x))) / b
    l2 = 2.0 * (float(np.sum(w1 * w1)) + float(np.sum(w2 * w2))) / (2.0 * b)
    assert loss == pytest.approx(mse + l1 + l2, rel=1e-14)
    assert aux["fit"] == pytest.approx(mse, rel=1e-14)
    assert aux["l1"] == pytest.approx(l1, rel=1e-14)


def test_bce_requires_sigmoid_output():
    net = DenseNet((2, 1), ("identity",))
    params = init_params(net, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sigmoid"):
        loss_and_grads(net, params, np.ones((3, 2)), np.ones((3, 1)), LossSpec("bce"))


# ---------------------------------------------------------------------------
# gradients vs central differences


def _check(net, spec, n=6, seed=0, mask_rate=0.0):
    rng = np.random.default_rng(seed)
    params = init_params(net, rng)
    x = rng.normal(size=(n, net.dims[0]))
    if spec.kind == "bce":
        y = (rng.random((n, net.dims[-1])) < 0.5).astype(float)
    else:
        y = rng.normal(size=(n, net.dims[-1]))
    mask = dropout_mask(rng, mask_rate, np.empty(x.shape)) if mask_rate else None
    return gradient_check(net, params, x, y, spec, input_mask=mask)


def test_gradients_mse_deep_elu():
    net = DenseNet((4, 3, 2, 3, 4), ("elu", "elu", "elu", "identity"))
    assert _check(net, LossSpec("mse")) < 1e-7


def test_gradients_mse_with_l1_and_dropout():
    net = DenseNet((5, 3, 2, 3, 5), ("elu", "elu", "elu", "identity"))
    spec = LossSpec("mse", l1_weight=0.3, l1_layer=1)
    assert _check(net, spec, mask_rate=0.4, seed=7) < 1e-7


def test_gradients_mse_l1_on_output_layer():
    net = DenseNet((3, 2, 3), ("elu", "identity"))
    spec = LossSpec("mse", l1_weight=0.2, l1_layer=1)
    assert _check(net, spec, seed=11) < 1e-7


def test_gradients_bce_sigmoid_head_with_l2():
    net = DenseNet((3, 4, 1), ("relu", "sigmoid"))
    spec = LossSpec("bce", l2_weight=0.7)
    assert _check(net, spec, seed=5) < 1e-7


# ---------------------------------------------------------------------------
# the feature-major step against a batch-major oracle


def _oracle_activation(name, z):
    if name == "elu":
        return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z


def _oracle_backprop(name, d_a, z, a):
    if name == "elu":
        return d_a * (np.minimum(a, 0.0) + 1.0)
    if name == "relu":
        return d_a * (z > 0)
    if name == "sigmoid":
        return d_a * (a * (1.0 - a))
    return d_a


def _oracle_forward(net, params, x, input_mask=None):
    """The batch-major (rows, width) pass the engine ran before it went feature-major."""
    a = np.asarray(x, dtype=np.float64)
    if input_mask is not None:
        a = a * input_mask
    caches = []
    for (w, b), act in zip(params, net.activations):
        z = a @ w + b
        a_next = _oracle_activation(act, z)
        caches.append((a, z, a_next))
        a = a_next
    return a, caches


def _oracle_loss_and_grads(net, params, x, y, spec, input_mask=None):
    out, caches = _oracle_forward(net, params, x, input_mask)
    b, d_out = out.shape
    last = net.n_layers - 1
    if spec.kind == "mse":
        diff = out - y
        loss = float(np.sum(diff * diff) / (b * d_out))
        d_a = 2.0 * diff / (b * d_out)
        if spec.l1_weight > 0 and spec.l1_layer == last:
            d_a += spec.l1_weight * np.sign(out) / b
        d_z = _oracle_backprop(net.activations[-1], d_a, *caches[-1][1:])
    else:
        z = caches[-1][1]
        loss = float(np.sum(np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))) / b)
        d_z = (out - y) / b
    if spec.l1_weight > 0:
        loss += spec.l1_weight * float(np.sum(np.abs(caches[spec.l1_layer][2]))) / b
    if spec.l2_weight > 0:
        loss += spec.l2_weight * sum(float(np.sum(w * w)) for w, _ in params) / (2.0 * b)
    grads = [None] * net.n_layers
    for i in range(last, -1, -1):
        a_prev, z, a = caches[i]
        if i < last:
            d_a = d_z @ params[i + 1][0].T
            if spec.l1_weight > 0 and i == spec.l1_layer:
                d_a += spec.l1_weight * np.sign(a) / b
            d_z = _oracle_backprop(net.activations[i], d_a, z, a)
        d_w = a_prev.T @ d_z
        if spec.l2_weight > 0:
            d_w = d_w + spec.l2_weight * params[i][0] / b
        grads[i] = [d_w, d_z.sum(axis=0)]
    return loss, grads


@st.composite
def _step_cases(draw):
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
    n_layers = len(widths) - 1
    kind = draw(st.sampled_from(["mse", "bce"]))
    acts = [draw(st.sampled_from(ACTIVATIONS)) for _ in range(n_layers)]
    if kind == "bce":
        acts[-1] = "sigmoid"
    l1_layers = n_layers if kind == "mse" else n_layers - 1  # bce refuses l1 on its output
    l1_layer = draw(st.integers(0, l1_layers - 1)) if l1_layers > 0 and draw(st.booleans()) else None
    spec = LossSpec(
        kind,
        l1_weight=0.0 if l1_layer is None else 0.3,
        l1_layer=l1_layer,
        l2_weight=draw(st.sampled_from([0.0, 0.7])),
    )
    rows = draw(st.integers(1, 40))
    batch = draw(st.integers(1, rows))  # rows % batch leaves a ragged last batch
    targets_in_input = kind == "mse" and widths[-1] <= widths[0] and draw(st.booleans())
    return (
        DenseNet(tuple(widths), tuple(acts)),
        spec,
        rows,
        batch,
        draw(st.sampled_from([0.0, 0.4])),
        targets_in_input,
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_step_cases())
def test_feature_major_step_matches_the_batch_major_oracle(case):
    """Each minibatch, gathered as train_dense_net gathers it (a full-size batch, a
    ragged last one, a batch of one row), gives the oracle's loss and gradients."""
    net, spec, rows, batch, rate, targets_in_input, seed = case
    rng = np.random.default_rng(seed)
    params = init_params(net, rng)
    for w, b in params:
        b[...] = rng.normal(scale=0.5, size=b.shape)
    x = rng.normal(size=(rows, net.dims[0]))
    if spec.kind == "bce":
        y = (rng.random((rows, net.dims[-1])) < 0.5).astype(float)
    else:
        y = rng.normal(size=(rows, net.dims[-1]))
    flat, grads = param_views(net)
    works = {}
    order = rng.permutation(rows)
    for lo in range(0, rows, batch):
        idx = order[lo : lo + batch]
        work = works.setdefault(idx.size, Workspace(net, idx.size))
        np.copyto(work.batch, x.take(idx, axis=0).T)
        xb = work.batch.T
        yb = xb[:, : net.dims[-1]] if targets_in_input else y.take(idx, axis=0)
        mask = dropout_mask(rng, rate, work.mask) if rate else None
        want_loss, want = _oracle_loss_and_grads(net, params, xb.copy(), yb.copy(), spec, mask)
        loss, got, _ = loss_and_grads(net, params, xb, yb, spec, mask, grads, work)
        assert got is grads
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        want_flat = flatten(want)
        scale = float(np.linalg.norm(want_flat))
        assert np.abs(flat - want_flat).max() <= 1e-12 * scale
        # the same batch through new buffers, as a caller without a workspace sees it
        alone, fresh, _ = loss_and_grads(net, params, xb.copy(), yb.copy(), spec, input_mask=mask)
        assert alone == loss
        assert flatten(fresh).tobytes() == flat.tobytes()


# ---------------------------------------------------------------------------
# clipping and Adam


def test_clip_global_norm_rescales_joint_norm():
    flat = np.array([3.0, 4.0])  # a 1x1 W and a one-element b
    total = clip_global_norm(flat, 1.0)
    assert total == pytest.approx(5.0)
    joint = math.sqrt(float(flat[0] ** 2) + float(flat[1] ** 2))
    assert joint == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_array_equal(flat, [3.0 * (1.0 / 5.0), 4.0 * (1.0 / 5.0)])  # one in-place scale
    same = np.array([3.0, 4.0])
    total2 = clip_global_norm(same, 10.0)
    assert total2 == pytest.approx(5.0)
    np.testing.assert_array_equal(same, [3.0, 4.0])


def test_clip_global_norm_is_one_dot_product():
    # the norm is sqrt(g . g) over the whole flat vector, not a sum of per-array sums
    rng = np.random.default_rng(20)
    pieces = [rng.normal(size=(12, 6)), rng.normal(size=6), rng.normal(size=(6, 2)), rng.normal(size=2)]
    flat = np.concatenate([p.ravel() for p in pieces])
    total = clip_global_norm(flat.copy(), math.inf)
    assert total == math.sqrt(float(np.dot(flat, flat)))
    assert total == pytest.approx(math.sqrt(sum(float(np.sum(p * p)) for p in pieces)), rel=1e-14)
    scaled = flat.copy()
    assert clip_global_norm(scaled, 0.5 * total) == total
    np.testing.assert_array_equal(scaled, flat * (0.5 * total / total))


def test_adam_step_matches_hand_arithmetic():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta = np.array([1.0, 2.0])
    moment1, moment2 = np.zeros(2), np.zeros(2)
    adam_step(theta, np.array([0.5, -0.25]), moment1, moment2, 1, lr, b1, b2, eps)
    # first step: m-hat = g, v-hat = g^2, so the update is lr * g / (|g| + eps)
    assert theta[0] == pytest.approx(1.0 - lr * 0.5 / (0.5 + eps), rel=1e-15)
    assert theta[1] == pytest.approx(2.0 - lr * (-0.25) / (0.25 + eps), rel=1e-15)
    # second step recomputed from the published moment recursions
    g2 = 0.1
    m = b1 * (1 - b1) * 0.5 + (1 - b1) * g2
    v = b2 * (1 - b2) * 0.25 + (1 - b2) * g2 * g2
    expected = theta[0] - lr * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
    adam_step(theta, np.array([g2, 0.0]), moment1, moment2, 2, lr, b1, b2, eps)
    assert theta[0] == pytest.approx(expected, rel=1e-15)
    assert moment1[0] == pytest.approx(m, rel=1e-15) and moment2[0] == pytest.approx(v, rel=1e-15)


# ---------------------------------------------------------------------------
# training loop


def _linear_task(seed=0, n=200):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    w_true = np.array([[1.0], [-2.0], [0.5]])
    y = x @ w_true
    return x[:150], y[:150], x[150:], y[150:]


def test_training_fits_a_linear_map():
    xt, yt, xv, yv = _linear_task()
    net = DenseNet((3, 1), ("identity",))
    params = init_params(net, np.random.default_rng(1))
    cfg = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=100, patience=20)
    best, history = train_dense_net(net, params, xt, yt, xv, yv, LossSpec("mse"), cfg, np.random.default_rng(2))
    assert history[-1]["val_fit"] < history[0]["val_fit"]
    out, _ = forward(net, best, xv)
    assert fit_term(LossSpec("mse"), out, yv) < 1e-3


def test_training_returns_best_epoch_parameters():
    xt, yt, xv, yv = _linear_task(seed=3)
    net = DenseNet((3, 2, 1), ("elu", "identity"))
    params = init_params(net, np.random.default_rng(4))
    cfg = TrainConfig(learning_rate=0.02, batch_size=64, max_epochs=12, patience=50)
    best, history = train_dense_net(net, params, xt, yt, xv, yv, LossSpec("mse"), cfg, np.random.default_rng(5))
    out, caches = forward(net, best, xv)
    refit = fit_term(LossSpec("mse"), out, yv, z_out=caches[-1][1])
    assert refit == min(h["val_fit"] for h in history)


def _full_workspace_training(net, params, x_train, y_train, x_val, y_val, spec, cfg, rng):
    """train_dense_net as it was when its validation pass ran through a full inference
    Workspace and fit_term: the loop's oracle."""
    d_out = net.dims[-1]
    x_rows = np.ascontiguousarray(x_train, dtype=np.float64)
    y_rows = None if y_train is None else np.ascontiguousarray(y_train, dtype=np.float64)
    xv_t = np.ascontiguousarray(np.asarray(x_val, dtype=np.float64).T)
    yv = xv_t[:d_out].T if y_val is None else y_val
    theta, live = param_views(net, flatten(params))
    g, grads = param_views(net)
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
    works = {}
    val_work = Workspace(net, xv_t.shape[1], train=False)
    best_fit, best, bad_epochs, history = math.inf, theta.copy(), 0, []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(x_rows.shape[0])
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            work = works.setdefault(idx.size, Workspace(net, idx.size))
            np.copyto(work.batch, x_rows.take(idx, axis=0).T)
            xb = work.batch.T
            yb = xb[:, :d_out] if y_rows is None else y_rows.take(idx, axis=0)
            mask = dropout_mask(rng, cfg.dropout_rate, work.mask) if cfg.dropout_rate else None
            loss, _, _ = loss_and_grads(net, live, xb, yb, spec, mask, grads, work)
            if cfg.clip_norm is not None:
                clip_global_norm(g, cfg.clip_norm)
            t += 1
            adam_step(theta, g, m, v, t, cfg.learning_rate)
            epoch_losses.append(loss)
        _, z_val, out_val = nn._forward_t(net, live, xv_t, None, val_work)[-1]
        val_fit = fit_term(spec, out_val.T, yv, z_out=z_val.T)
        history.append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_fit": val_fit})
        if val_fit < best_fit:
            best_fit, bad_epochs = val_fit, 0
            best[:] = theta
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return param_views(net, best)[1], history


@pytest.mark.parametrize("case", ["autoencoder", "mlp-regression", "mlp-bce", "identity-hidden"])
def test_validation_pass_matches_the_full_workspace_oracle(case):
    rng = np.random.default_rng(40)
    rows, val_rows = 300, 130
    spec, y_train, y_val = LossSpec("mse"), None, None
    cfg = TrainConfig(learning_rate=0.02, batch_size=64, max_epochs=6, patience=2, clip_norm=1.0)
    if case == "autoencoder":  # targets are the input columns but the last
        net = DenseNet((6, 4, 2, 4, 5), ("elu", "elu", "elu", "identity"))
        spec = LossSpec("mse", l1_weight=0.01, l1_layer=1)
        cfg = TrainConfig(learning_rate=0.02, batch_size=64, max_epochs=6, patience=2, dropout_rate=0.2)
    elif case == "identity-hidden":  # a width-1 hidden layer, and two identity layers in a row
        net = DenseNet((4, 3, 1, 2), ("identity", "identity", "elu"))
    else:
        net = DenseNet((4, 5, 1), ("relu", "sigmoid" if case == "mlp-bce" else "identity"))
        spec = LossSpec("bce" if case == "mlp-bce" else "mse", l2_weight=0.1)
    x = rng.normal(size=(rows + val_rows, net.dims[0]))
    if case != "autoencoder":
        y = np.tanh(x[:, :1] - x[:, 1:2]) + 0.1 * rng.normal(size=(len(x), 1))
        y = (y > 0).astype(float) if case == "mlp-bce" else np.repeat(y, net.dims[-1], axis=1)
        y_train, y_val = y[:rows], y[rows:]
    params = init_params(net, np.random.default_rng(41))
    got_params, got = train_dense_net(net, params, x[:rows], y_train, x[rows:], y_val, spec, cfg,
                                      np.random.default_rng(42))
    want_params, want = _full_workspace_training(net, params, x[:rows], y_train, x[rows:], y_val, spec,
                                                 cfg, np.random.default_rng(42))
    assert got == want
    assert flatten(got_params).tobytes() == flatten(want_params).tobytes()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_training_stops_after_patience_exhausted():
    xt, yt, xv, yv = _linear_task(seed=6)
    net = DenseNet((3, 1), ("identity",))
    params = init_params(net, np.random.default_rng(7))
    # absurd learning rate oscillates without improving: the loop must cut out early
    cfg = TrainConfig(learning_rate=5.0, batch_size=150, max_epochs=100, patience=3)
    try:
        _, history = train_dense_net(net, params, xt, yt, xv, yv, LossSpec("mse"), cfg, np.random.default_rng(8))
        assert len(history) < 100
    except TrainingDiverged:
        pass  # blowing up entirely is also an acceptable outcome at lr=5


def test_training_is_deterministic_given_seed():
    xt, yt, xv, yv = _linear_task(seed=9)
    net = DenseNet((3, 2, 1), ("elu", "identity"))
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=5, patience=5, dropout_rate=0.2)
    runs = []
    for _ in range(2):
        params = init_params(net, np.random.default_rng(10))
        best, history = train_dense_net(net, params, xt, yt, xv, yv, LossSpec("mse"), cfg, np.random.default_rng(11))
        runs.append((best, history))
    assert runs[0][1] == runs[1][1]
    for (w0, b0), (w1, b1) in zip(runs[0][0], runs[1][0]):
        assert w0.tobytes() == w1.tobytes() and b0.tobytes() == b1.tobytes()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_training_diverged_reports_position():
    xt, yt, xv, yv = _linear_task(seed=12)
    net = DenseNet((3, 1), ("identity",))
    params = [[np.full((3, 1), 1e150), np.zeros(1)]]
    with pytest.raises(TrainingDiverged, match="non-finite loss"):
        train_dense_net(
            net, params, xt * 1e160, yt, xv, yv, LossSpec("mse"),
            TrainConfig(learning_rate=1.0, batch_size=150, max_epochs=3, patience=3),
            np.random.default_rng(13),
        )


def _counting(monkeypatch, name, calls):
    """Replace nn.<name> by a wrapper that records each call's positional arguments."""
    inner = getattr(nn, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(nn, name, wrapper)


def test_training_steps_through_the_module_globals(monkeypatch):
    # the benchmark's tracer times a step from loss_and_grads to adam_step by these names
    xt, yt, xv, yv = _linear_task(seed=14)
    net = DenseNet((3, 2, 1), ("elu", "identity"))
    params = init_params(net, np.random.default_rng(15))
    cfg = TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=3, patience=3, clip_norm=1.0)
    grads_calls, adam_calls = [], []
    _counting(monkeypatch, "loss_and_grads", grads_calls)
    _counting(monkeypatch, "adam_step", adam_calls)
    _, history = train_dense_net(net, params, xt, yt, xv, yv, LossSpec("mse"), cfg, np.random.default_rng(16))
    steps = len(history) * math.ceil(len(xt) / cfg.batch_size)
    assert len(history) == 3
    assert len(grads_calls) == steps and len(adam_calls) == steps


def test_trained_params_do_not_alias_the_training_buffer(monkeypatch):
    xt, yt, xv, yv = _linear_task(seed=17)
    net = DenseNet((3, 2, 1), ("elu", "identity"))
    params = init_params(net, np.random.default_rng(18))
    before = [p.copy() for pair in params for p in pair]
    adam_calls = []
    _counting(monkeypatch, "adam_step", adam_calls)
    cfg = TrainConfig(learning_rate=0.02, batch_size=64, max_epochs=4, patience=4)
    best, _ = train_dense_net(net, params, xt, yt, xv, yv, LossSpec("mse"), cfg, np.random.default_rng(19))
    live = adam_calls[-1][0]
    assert live.shape == flatten(params).shape
    for w, b in best:
        assert not np.shares_memory(w, live) and not np.shares_memory(b, live)
    snapshot = [p.copy() for pair in best for p in pair]
    live[:] = 99.0
    for kept, now in zip(snapshot, (p for pair in best for p in pair)):
        np.testing.assert_array_equal(kept, now)
    # the caller's starting parameters are not trained in place
    for start, now in zip(before, (p for pair in params for p in pair)):
        np.testing.assert_array_equal(start, now)


def test_param_views_lay_out_each_layer_as_w_then_b():
    net = DenseNet((2, 3, 1), ("elu", "identity"))
    flat = np.arange(13.0)
    same, ((w1, b1), (w2, b2)) = param_views(net, flat)
    assert same is flat
    np.testing.assert_array_equal(w1, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(b1, [6.0, 7.0, 8.0])
    np.testing.assert_array_equal(w2, [[9.0], [10.0], [11.0]])
    np.testing.assert_array_equal(b2, [12.0])
    w2[1, 0] = -1.0
    assert flat[10] == -1.0
    np.testing.assert_array_equal(flatten([[w1, b1], [w2, b2]]), flat)
    zeros, views = param_views(net)
    assert zeros.shape == (13,) and not zeros.any() and views[1][0].base is zeros
    with pytest.raises(ValueError, match="13 parameters"):
        param_views(net, np.zeros(14))
