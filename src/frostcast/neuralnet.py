"""Minimal dense feedforward regressors trained with analytic backprop.

Two fixed shapes are used elsewhere in the package: the off-site predictor
(13 inputs, hidden 10-14-9-8) and the on-site reference model (5 inputs,
hidden 7). Hidden layers are rectifiers, the output is linear, and the loss
is mean squared error. Everything is plain numpy so gradients stay exact
and runs stay reproducible.

Training is mini-batch Adam on one flat float64 parameter vector: the
working network's weight matrices and bias vectors are views into it,
backprop writes into views of a matching gradient vector, and each Adam step
is a fixed sequence of in-place passes over the whole vector.

Backprop keeps the textbook pass's bits in fewer numpy calls. A bias gradient
of two or more columns is ``np.einsum("ij->j", delta)``, which adds the rows in
order as ``delta.sum(axis=0)`` does; a one-column delta keeps ``sum``, which
adds a contiguous column pairwise. ``np.putmask`` zeroes dead rectifier units
in place, with the values (NaN and inf included) of ``np.where``'s new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError, DomainError, FormatError


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths excluding the input; the final width must be 1."""

    input_dim: int
    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise DomainError(f"input_dim must be >= 1: {self.input_dim!r}")
        if not self.layer_sizes or self.layer_sizes[-1] != 1:
            raise DomainError(f"layer_sizes must end in 1: {self.layer_sizes!r}")
        if any(s < 1 for s in self.layer_sizes):
            raise DomainError(f"layer sizes must be >= 1: {self.layer_sizes!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(self.layer_sizes)


SUBMODEL_SPEC = NetworkSpec(input_dim=13, layer_sizes=(10, 14, 9, 8, 1))
ONSITE_SPEC = NetworkSpec(input_dim=5, layer_sizes=(7, 1))


class Network:
    """Weights and biases for one feedforward regressor."""

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        dims = spec.dims
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise DataError("parameter count does not match spec")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise DataError(f"layer {i} has shape {w.shape}, expected {(dims[i], dims[i + 1])}")
        self.spec = spec
        self.weights = weights
        self.biases = biases


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Glorot-uniform weights, zero biases, reproducible per seed."""
    rng = np.random.default_rng(seed)
    dims = spec.dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(spec, weights, biases)


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Predictions for an (n, input_dim) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise DataError(f"expected (n, {net.spec.input_dim}) input, got {x.shape}")
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h[:, 0]


def _forward_backward(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    grads_w: list[np.ndarray],
    grads_b: list[np.ndarray],
) -> None:
    """Write the batch's MSE gradients into ``grads_w`` and ``grads_b``."""
    activations = [x]
    dead: list[np.ndarray] = []
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i != last:
            # Rectifier subgradient: zero at exactly zero pre-activation.
            dead.append(h <= 0.0)
            np.maximum(h, 0.0, out=h)
        activations.append(h)

    delta = (2.0 / x.shape[0]) * (activations[-1][:, 0] - y)[:, None]
    for i in range(last, -1, -1):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        if delta.shape[1] > 1:
            np.einsum("ij->j", delta, out=grads_b[i])
        else:
            delta.sum(axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ net.weights[i].T
            np.putmask(delta, dead[i - 1], 0.0)


def mse_loss(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    pred = forward_batch(net, x)
    err = pred - np.asarray(y, dtype=np.float64)
    return float(np.mean(err * err))


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    validation_fraction: float = 0.1
    patience: int = 10

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0: {self.seed!r}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0: {self.epochs!r}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1: {self.batch_size!r}")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and > 0: {self.learning_rate!r}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise DomainError(f"validation_fraction must be in [0, 1): {self.validation_fraction!r}")
        if self.patience < 0:
            raise DomainError(f"patience must be >= 0: {self.patience!r}")


def _unflatten(spec: NetworkSpec, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of a flat vector laid out as every weight matrix, then every bias."""
    dims = spec.dims
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    for fan_out in dims[1:]:
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def train(
    net: Network, x: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> tuple[Network, list[float]]:
    """Mini-batch Adam training with early stopping on a held-out slice.

    Returns the parameters from the best validation epoch and the validation
    loss of each completed epoch. With epochs=0 the input network is
    returned untouched. A non-finite training or validation loss raises
    DivergenceError naming the epoch.

    All parameters live in one flat vector that the working network's
    arrays view, so Adam (beta1=0.9, beta2=0.999, eps=1e-8) updates them
    all at once in each step. The training-set loss serves only to detect
    divergence, so it is computed only in an epoch where a bound on the
    network's outputs does not prove it finite.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise DataError(f"expected (n, {net.spec.input_dim}) training matrix, got {x.shape}")
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise DataError("training inputs and labels must be non-empty and aligned")
    if cfg.epochs == 0:
        return net, []

    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    n_val = int(round(cfg.validation_fraction * n))
    if n_val >= n:
        n_val = n - 1
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = (x[val_idx], y[val_idx]) if n_val > 0 else (x_train, y_train)

    theta = np.concatenate([w.ravel() for w in net.weights] + list(net.biases))
    net = Network(net.spec, *_unflatten(net.spec, theta))
    grad = np.empty_like(theta)
    grads_w, grads_b = _unflatten(net.spec, grad)
    lr = cfg.learning_rate
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # m and v are the rows of one array (scratch likewise), so one call scales
    # or adds both. Rates are full width: a (2, 1) column broadcast is slower.
    moments, pair = np.zeros((2, theta.size)), np.empty((2, theta.size))
    (m, v), (scratch, scratch2) = moments, pair
    betas = np.repeat([[beta1], [beta2]], theta.size, axis=1)
    one_minus = 1.0 - betas
    t = 0

    best_val = math.inf
    best = theta.copy()
    bad_epochs = 0
    history: list[float] = []
    n_train = x_train.shape[0]
    x_epoch, y_epoch = np.empty_like(x_train), np.empty_like(y_train)
    x_bound, y_bound = float(np.abs(x_train).max()), float(np.abs(y_train).max())
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        np.take(x_train, order, axis=0, out=x_epoch)
        np.take(y_train, order, out=y_epoch)
        # Overflow here is not an error condition: it surfaces as a
        # non-finite loss and raises DivergenceError below.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n_train, cfg.batch_size):
                stop = start + cfg.batch_size
                _forward_backward(net, x_epoch[start:stop], y_epoch[start:stop], grads_w, grads_b)
                # Element for element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
                # theta -= lr*(m/b1c) / (sqrt(v/b2c) + eps). Results depend
                # on this operation order down to the last bit.
                t += 1
                moments *= betas
                np.multiply(grad, one_minus, out=pair)
                scratch2 *= grad
                moments += pair
                np.divide(m, 1.0 - beta1**t, out=scratch)
                scratch *= lr
                np.divide(v, 1.0 - beta2**t, out=scratch2)
                np.sqrt(scratch2, out=scratch2)
                scratch2 += eps
                scratch /= scratch2
                theta -= scratch
            # |output| <= bound on every training row; outputs and labels
            # below 1e100 keep each squared error, and the loss, finite.
            bound = x_bound
            for w, b in zip(net.weights, net.biases):
                bound = bound * float(np.abs(w).sum(axis=0).max()) + float(np.abs(b).max())
            train_finite = bound + y_bound < 1e100 or math.isfinite(mse_loss(net, x_train, y_train))
            val_loss = mse_loss(net, x_val, y_val)
        if not (train_finite and math.isfinite(val_loss)):
            raise DivergenceError(epoch)
        history.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best[...] = theta
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(1, cfg.patience):
                break
    weights, biases = _unflatten(net.spec, best)
    return Network(net.spec, [w.copy() for w in weights], [b.copy() for b in biases]), history


def network_to_dict(net: Network) -> dict:
    """The network's weights and biases as JSON-ready nested lists."""
    return {"weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases]}


def _finite_array(value: object, ndim: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise FormatError(f"expected a {ndim}-D array of numbers, got {arr.dtype} {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise FormatError("parameters must be finite")
    return arr


def network_from_dict(doc: dict) -> Network:
    """Invert :func:`network_to_dict` bit for bit; the layer widths come from the weight shapes.

    Raises FormatError unless ``doc`` holds finite weight matrices and bias
    vectors that chain into a network ending in one output.
    """
    try:
        weights = [_finite_array(w, 2) for w in doc["weights"]]
        biases = [_finite_array(b, 1) for b in doc["biases"]]
        spec = NetworkSpec(weights[0].shape[0], tuple(w.shape[1] for w in weights))
        return Network(spec, weights, biases)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed model: {exc}") from exc
