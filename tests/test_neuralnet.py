"""Network mechanics: gradients against finite differences, training rules.

The gradient check perturbs every parameter of a seeded network by
eps=1e-5 in both directions and compares the analytic gradient to the
centered difference; relative error is measured against the larger of the
two magnitudes with a small floor so zero-gradient entries do not divide
by zero.
"""

import json
import math

import numpy as np
import pytest

from frostcast import (
    DivergenceError,
    DomainError,
    FormatError,
    TrainConfig,
)
from frostcast.neuralnet import (
    Network,
    NetworkSpec,
    ONSITE_SPEC,
    SUBMODEL_SPEC,
    _forward_backward,
    forward_batch,
    init_network,
    mse_loss,
    network_from_dict,
    network_to_dict,
    train,
)


def analytic_gradients(net, x, y):
    """Training's backprop pass (``_forward_backward``), written into fresh buffers."""
    gw = [np.empty_like(w) for w in net.weights]
    gb = [np.empty_like(b) for b in net.biases]
    _forward_backward(net, x, y, gw, gb)
    return gw, gb


def finite_difference_gradients(net, x, y, eps=1e-5):
    """Centered-difference loss gradients, parameter by parameter."""
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    for arrs, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(arrs, grads):
            flat = arr.ravel()
            gflat = grad.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = mse_loss(net, x, y)
                flat[k] = orig - eps
                lo = mse_loss(net, x, y)
                flat[k] = orig
                gflat[k] = (hi - lo) / (2.0 * eps)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def gradient_check(spec, seed, n_rows):
    rng = np.random.default_rng(seed)
    net = init_network(spec, seed=seed)
    x = rng.normal(0.0, 1.0, (n_rows, spec.input_dim))
    y = rng.normal(0.0, 1.0, n_rows)
    gw, gb = analytic_gradients(net, x, y)
    fw, fb = finite_difference_gradients(net, x, y)
    return max(max_relative_error(gw, fw), max_relative_error(gb, fb))


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_submodel_architecture(self, seed):
        assert gradient_check(SUBMODEL_SPEC, seed, n_rows=4) < 1e-4

    @pytest.mark.parametrize("seed", range(5, 10))
    def test_onsite_architecture(self, seed):
        assert gradient_check(ONSITE_SPEC, seed, n_rows=6) < 1e-4

    def test_single_row(self):
        assert gradient_check(ONSITE_SPEC, seed=77, n_rows=1) < 1e-4


class TestArchitecture:
    def test_submodel_shape(self):
        assert SUBMODEL_SPEC.input_dim == 13
        assert SUBMODEL_SPEC.layer_sizes == (10, 14, 9, 8, 1)

    def test_onsite_shape(self):
        assert ONSITE_SPEC.input_dim == 5
        assert ONSITE_SPEC.layer_sizes == (7, 1)

    def test_spec_must_end_in_one(self):
        with pytest.raises(DomainError):
            NetworkSpec(3, (4, 2))

    def test_init_biases_zero_weights_bounded(self):
        net = init_network(ONSITE_SPEC, seed=1)
        for b in net.biases:
            assert np.all(b == 0.0)
        dims = ONSITE_SPEC.dims
        for w, fan_in, fan_out in zip(net.weights, dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)
            assert np.any(w != 0.0)

    def test_init_deterministic(self):
        a = init_network(SUBMODEL_SPEC, seed=9)
        b = init_network(SUBMODEL_SPEC, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_forward_batch_matches_scalar(self):
        net = init_network(ONSITE_SPEC, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 5))
        batch = forward_batch(net, x)
        singles = np.array([forward_batch(net, row[None, :])[0] for row in x])
        np.testing.assert_allclose(batch, singles, atol=1e-12)


def training_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 5))
    y = x @ np.array([0.5, -1.0, 0.2, 0.0, 0.3]) + 0.1
    return x, y


class TestTraining:
    def test_loss_decreases(self):
        x, y = training_data()
        net = init_network(ONSITE_SPEC, seed=0)
        start = mse_loss(net, x, y)
        trained, history = train(net, x, y, TrainConfig(seed=0, epochs=30, patience=30))
        end = mse_loss(trained, x, y)
        assert end < start
        assert len(history) <= 30 and len(history) >= 1

    def test_zero_epochs_returns_unchanged_net(self):
        x, y = training_data(50)
        net = init_network(ONSITE_SPEC, seed=3)
        before = [w.copy() for w in net.weights]
        trained, history = train(net, x, y, TrainConfig(seed=0, epochs=0))
        assert history == []
        for w0, w1 in zip(before, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_early_stopping_restores_best(self):
        x, y = training_data(120, seed=4)
        net = init_network(ONSITE_SPEC, seed=4)
        trained, history = train(
            net, x, y, TrainConfig(seed=4, epochs=200, patience=3, validation_fraction=0.25)
        )
        best = min(history)
        # Training halted within patience epochs of the best validation loss.
        assert len(history) <= history.index(best) + 1 + 3

    def test_determinism(self):
        x, y = training_data(80, seed=5)
        cfg = TrainConfig(seed=5, epochs=10, patience=10)
        t1, h1 = train(init_network(ONSITE_SPEC, seed=5), x, y, cfg)
        t2, h2 = train(init_network(ONSITE_SPEC, seed=5), x, y, cfg)
        assert h1 == h2
        for w1, w2 in zip(t1.weights, t2.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_divergence_raises_with_epoch(self):
        # Adam moves each parameter by about the learning rate per step, so
        # at 1e100 both layers' weights are that large and the loss overflows.
        x, y = training_data(50, seed=7)
        net = init_network(ONSITE_SPEC, seed=7)
        with pytest.raises(DivergenceError) as exc_info:
            train(net, x, y, TrainConfig(seed=7, epochs=50, learning_rate=1e100, patience=50))
        assert isinstance(exc_info.value.epoch, int)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=-1)
        with pytest.raises(DomainError):
            TrainConfig(validation_fraction=1.0)
        for rate in (0.0, -1e-3, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="learning_rate must be finite and > 0"):
                TrainConfig(learning_rate=rate)


class TestPersistence:
    def test_round_trip(self):
        for spec in (SUBMODEL_SPEC, ONSITE_SPEC):
            net = init_network(spec, seed=12)
            net.biases[0][:] = np.random.default_rng(1).normal(size=net.biases[0].shape)
            loaded = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
            assert loaded.spec == net.spec
            for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            x = np.random.default_rng(0).normal(size=(4, spec.input_dim))
            np.testing.assert_array_equal(forward_batch(net, x), forward_batch(loaded, x))

    def test_malformed_file(self):
        good = network_to_dict(init_network(ONSITE_SPEC, seed=1))
        unchained = {"weights": good["weights"][::-1], "biases": good["biases"]}
        bad = [
            "{not json", [], {}, {"weights": good["weights"]}, {"weights": [], "biases": []},
            unchained, {"weights": good["weights"], "biases": good["biases"][:1]},
            {"weights": [[[[0.0]]]], "biases": [[0.0]]},  # a 3-D weight
            {"weights": [[[1.0, 2.0], [3.0]]], "biases": [[0.0, 0.0]]},  # ragged rows
            {"weights": [[[float("nan")]]], "biases": [[0.0]]},
            {"weights": [[[10**400]]], "biases": [[0.0]]},
            {"weights": [[["1.5"]]], "biases": [[0.0]]},
            {"weights": [[[None]]], "biases": [[0.0]]},
        ]
        for doc in bad:
            with pytest.raises(FormatError):
                network_from_dict(doc)


def reference_train(net, x, y, cfg):
    """The per-array training loop that `train` must reproduce bit for bit.

    Gradients come from a backward pass with boolean-mask rectifier
    derivatives, and Adam updates each weight matrix and bias vector
    separately. Every epoch computes both losses and raises DivergenceError
    at the first non-finite one; the history holds (train, val) pairs.
    """
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    n_val = min(int(round(cfg.validation_fraction * n)), n - 1)
    perm = rng.permutation(n)
    x_train, y_train = x[perm[n_val:]], y[perm[n_val:]]
    x_val, y_val = (x[perm[:n_val]], y[perm[:n_val]]) if n_val > 0 else (x_train, y_train)
    net = Network(net.spec, [w.copy() for w in net.weights], [b.copy() for b in net.biases])
    params = net.weights + net.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0

    def backward(xb, yb):
        acts, pre = [xb], []
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = acts[-1] @ w + b
            pre.append(z)
            acts.append(np.maximum(z, 0.0) if i != len(net.weights) - 1 else z)
        delta = (2.0 / xb.shape[0]) * (acts[-1][:, 0] - yb)[:, None]
        gw, gb = [None] * len(params), [None] * len(params)
        for i in range(len(net.weights) - 1, -1, -1):
            gw[i] = acts[i].T @ delta
            gb[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ net.weights[i].T
                delta[pre[i - 1] <= 0.0] = 0.0
        return gw[: len(net.weights)] + gb[: len(net.biases)]

    best_val, best, bad, history = np.inf, [p.copy() for p in params], 0, []
    for epoch in range(cfg.epochs):
        order = rng.permutation(x_train.shape[0])
        for start in range(0, x_train.shape[0], cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = backward(x_train[batch], y_train[batch])
            t += 1
            b1c, b2c = 1.0 - 0.9**t, 1.0 - 0.999**t
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * g * g
                p -= cfg.learning_rate * (mi / b1c) / (np.sqrt(vi / b2c) + 1e-8)
        history.append((mse_loss(net, x_train, y_train), mse_loss(net, x_val, y_val)))
        if not all(map(math.isfinite, history[-1])):
            raise DivergenceError(epoch)
        if history[-1][1] < best_val:
            best_val, best, bad = history[-1][1], [p.copy() for p in params], 0
        else:
            bad += 1
            if bad >= max(1, cfg.patience):
                break
    for p, b in zip(params, best):
        p[...] = b
    return net, history


def reference_forward_backward(net, x, y, grads_w, grads_b):
    """The backward pass that `_forward_backward` must reproduce bit for bit.

    Bias gradients are ``sum(axis=0)`` of each layer's delta, and the
    rectifier derivative masks a fresh product with ``np.where``.
    """
    activations = [x]
    dead = []
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i != last:
            dead.append(h <= 0.0)
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    delta = (2.0 / x.shape[0]) * (activations[-1][:, 0] - y)[:, None]
    for i in range(last, -1, -1):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        delta.sum(axis=0, out=grads_b[i])
        if i > 0:
            delta = np.where(dead[i - 1], 0.0, delta @ net.weights[i].T)


#: Includes width-1 hidden layers, whose bias sums take the column path.
NARROW_SPEC = NetworkSpec(input_dim=3, layer_sizes=(1, 4, 1, 1))
SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308, 1e200])


def _backward_case(spec, rng):
    """A random network and batch, with dead units and special values mixed in."""
    n = int(rng.choice([1, 2, 3, 7, 8, 9, 16, 17, 255, 256, 257, 512, 700, rng.integers(1, 701)]))
    net = init_network(spec, seed=int(rng.integers(1 << 30)))
    for b in net.biases:
        b[...] = rng.normal(size=b.shape)
        b[rng.random(b.shape) < 0.2] = -1e6  # units dead on every row
    if rng.random() < 0.1:
        net.biases[int(rng.integers(len(net.biases) - 1))][...] = -1e6  # a dead layer
    x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, spec.input_dim))
    y = rng.normal(size=n)
    if rng.random() < 0.5:
        x[rng.random(x.shape) < 0.01] = rng.choice(SPECIAL_VALUES)
        y[rng.random(n) < 0.01] = rng.choice(SPECIAL_VALUES)
    if rng.random() < 0.2:
        x[rng.random(x.shape) < 0.3] = -0.0
    return net, x, y


class TestBackwardPass:
    """`_forward_backward` against the reference pass, bit for bit."""

    @pytest.mark.parametrize("spec", [SUBMODEL_SPEC, ONSITE_SPEC, NARROW_SPEC],
                             ids=["submodel", "onsite", "narrow"])
    def test_bit_identical_to_reference(self, spec):
        rng = np.random.default_rng(spec.input_dim)
        for case in range(150):
            net, x, y = _backward_case(spec, rng)
            got = ([np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases])
            want = ([np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases])
            with np.errstate(all="ignore"):
                _forward_backward(net, x, y, *got)
                reference_forward_backward(net, x, y, *want)
            for g, w in zip(got[0] + got[1], want[0] + want[1]):
                assert g.tobytes() == w.tobytes(), (case, x.shape)


class TestFlatTraining:
    """`train` on one flat parameter vector against the per-array reference."""

    @pytest.mark.parametrize(
        "spec, n, cfg",
        [
            (SUBMODEL_SPEC, 300, TrainConfig(seed=1, epochs=6, batch_size=64)),
            (ONSITE_SPEC, 90, TrainConfig(seed=3, epochs=5, batch_size=32,
                                          validation_fraction=0.0)),
            (SUBMODEL_SPEC, 101, TrainConfig(seed=4, epochs=4, batch_size=17)),
            (ONSITE_SPEC, 120, TrainConfig(seed=5, epochs=200, batch_size=16, patience=2,
                                           validation_fraction=0.5, learning_rate=0.05)),
            (SUBMODEL_SPEC, 1, TrainConfig(seed=6, epochs=3)),
            (ONSITE_SPEC, 2, TrainConfig(seed=8, epochs=3, validation_fraction=0.5)),
        ],
        ids=["adam", "no-validation", "ragged-batches", "early-stop", "n1", "n2-val"],
    )
    def test_bit_identical_to_reference(self, spec, n, cfg):
        rng = np.random.default_rng(cfg.seed)
        x = rng.normal(size=(n, spec.input_dim))
        y = x[:, 0] - 0.5 * x[:, 1] + rng.normal(0.0, 0.1, n)
        net = init_network(spec, seed=cfg.seed)
        expected, expected_history = reference_train(net, x, y, cfg)
        trained, history = train(net, x, y, cfg)
        if cfg.patience == 2:
            assert len(history) < cfg.epochs
        assert history == [val for _, val in expected_history]
        for got, want in zip(trained.weights + trained.biases,
                             expected.weights + expected.biases):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_returned_arrays_are_independent(self):
        x, y = training_data(40, seed=9)
        net = init_network(ONSITE_SPEC, seed=9)
        before = [p.copy() for p in net.weights + net.biases]
        trained, _ = train(net, x, y, TrainConfig(seed=9, epochs=2))
        arrays = trained.weights + trained.biases
        for p, b in zip(net.weights + net.biases, before):
            np.testing.assert_array_equal(p, b)
        for i, a in enumerate(arrays):
            assert a.base is None
            assert not any(np.shares_memory(a, o) for o in arrays[i + 1 :])

    def test_gradients_are_fresh_arrays(self):
        rng = np.random.default_rng(10)
        net = init_network(SUBMODEL_SPEC, seed=10)
        x, y = rng.normal(size=(5, 13)), rng.normal(size=5)
        gw1, gb1 = analytic_gradients(net, x, y)
        gw2, gb2 = analytic_gradients(net, x, y)
        first, second = gw1 + gb1, gw2 + gb2
        params = net.weights + net.biases
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        for a in first:
            assert not any(np.shares_memory(a, o) for o in second + params)
            assert sum(np.shares_memory(a, o) for o in first) == 1


def _train_outcome(fit, spec, seed, lr):
    """The DivergenceError epoch, or the trained parameters' bytes."""
    rng = np.random.default_rng(seed)
    x = 3.0 * rng.normal(size=(50, spec.input_dim))
    y = rng.normal(size=50)
    cfg = TrainConfig(seed=seed, epochs=30, batch_size=16, learning_rate=lr, patience=30)
    try:
        with np.errstate(all="ignore"):
            trained, _ = fit(init_network(spec, seed=seed), x, y, cfg)
    except DivergenceError as exc:
        return exc.epoch
    return b"".join(p.tobytes() for p in trained.weights + trained.biases)


class TestSkippedTrainLoss:
    """`train` skips the training-set loss where a bound proves it finite,
    and still diverges in the epoch that computing it would."""

    @pytest.mark.parametrize("spec", [SUBMODEL_SPEC, ONSITE_SPEC], ids=["submodel", "onsite"])
    def test_same_divergence_epoch_or_weights(self, spec):
        # The bound proves the loss finite at the small rates and fails at the
        # large ones. At lr 1.5e30 (13 inputs) and 1e76 (5 inputs) several runs
        # overflow the training loss an epoch before the validation loss,
        # (13-input, seed 0) and (5-input, seed 2) among them: a skip without
        # the bound raises DivergenceError one epoch late there. The reference
        # computes both losses every epoch.
        diverged = 0
        for seed in range(15):
            for lr in (3, 1e8, 1e20, 1.5e30, 1e50, 1e76, 1e100):
                case = (spec, seed, lr)
                want = _train_outcome(reference_train, *case)
                assert _train_outcome(train, *case) == want, case[1:]
                diverged += isinstance(want, int)
        assert 0 < diverged < 105
