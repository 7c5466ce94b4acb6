"""The trainable hashing model: a stack of affine layers with identity,
sigmoid, or scaled-sigmoid activations, explicit backpropagation, and
momentum SGD with weight decay.  `init_head_layers` builds the hashing
head for a code length: two sigmoid layers, whose widths the code length
fixes, and a scaled-sigmoid output layer of one unit per bit.

Both nonlinear activations come from one tanh: with t = tanh(z / 2),
sigmoid(z) = (1 + t) / 2 and the scaled sigmoid 2 * sigmoid(z) - 1 = t.
tanh saturates instead of overflowing, so no input needs special casing.

Samples travel as columns: a batch is a (features x batch) matrix and the
network output is (code bits x batch).  A NetworkParams instance is mutated
only by sgd_step; forward passes on it are otherwise read-only.

A network computes in the dtype of its layers, float32 or float64 (any
other input becomes float64): forward casts its input to it, and every
tape entry and gradient backward returns has it.  sgd_step updates the
weights in their own dtype, so float32 gradients can drive float64 master
weights.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .numerics import as_float, check_int, check_value

ACTIVATIONS = ("identity", "sigmoid", "scaled_sigmoid")

# Hidden-layer widths of the hashing head for the standard code lengths.
_HEAD_TABLE = {
    8: (90, 20),
    16: (90, 30),
    24: (100, 40),
    32: (120, 50),
    48: (140, 80),
}


@dataclass
class Layer:
    weights: np.ndarray  # out_dim x in_dim
    bias: np.ndarray     # out_dim
    activation: str

    def __post_init__(self):
        self.weights = as_float(self.weights)
        self.bias = np.asarray(self.bias, dtype=self.weights.dtype)
        if self.weights.ndim != 2:
            raise InvalidInput(f"weights must be 2-d, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise InvalidInput(
                f"bias length {self.bias.shape} does not match {self.weights.shape[0]} outputs"
            )
        if self.activation not in ACTIVATIONS:
            raise InvalidInput(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class NetworkParams:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise InvalidInput("a network needs at least one layer")
        if len({layer.weights.dtype for layer in self.layers}) > 1:
            raise InvalidInput("all layers of a network must share one dtype")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise InvalidInput(
                    f"layer output dim {prev.out_dim} does not feed layer input dim {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    momentum: float = 0.9

    def __post_init__(self):
        # learning_rate 0 is allowed so a frozen network can run the
        # surrounding loop machinery.
        rates = {"learning rate": self.learning_rate, "weight decay": self.weight_decay}
        for name, value in rates.items():
            check_value(value, name, "finite and non-negative", lambda v: np.isfinite(v) and v >= 0)
        check_value(self.momentum, "momentum", "in [0, 1)", lambda v: 0 <= v < 1)


@dataclass
class ForwardTape:
    """Intermediate values a forward pass records for backpropagation."""

    inputs: np.ndarray
    out: list[np.ndarray] = field(default_factory=list)


def _head_widths(bits: int) -> tuple[int, int]:
    """Hidden widths of the hashing head for a code length: standard
    lengths come from a fixed table, anything else gets a monotone
    extension of the table's growth pattern."""
    if bits in _HEAD_TABLE:
        return _HEAD_TABLE[bits]
    return max(90, 2 * bits + 40), max(20, math.ceil(1.6 * bits))


def init_head_layers(in_dim: int, bits: int, rng: np.random.Generator) -> list[Layer]:
    """Randomly initialized head for bits-bit codes: two sigmoid layers,
    whose widths the code length fixes, and a scaled-sigmoid output layer,
    weights uniform in +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    check_int(in_dim, "input dim", 1)
    check_int(bits, "code length", 1)
    dims = [in_dim, *_head_widths(bits), bits]
    acts = ["sigmoid", "sigmoid", "scaled_sigmoid"]
    layers = []
    for d_in, d_out, act in zip(dims, dims[1:], acts):
        bound = math.sqrt(6.0 / (d_in + d_out))
        weights = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append(Layer(weights, np.zeros(d_out), act))
    return layers


def _activate_in_place(tag: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation to a fresh pre-activation array, overwriting it:
    the operations of tanh(z / 2) and 0.5 * (1 + t), in the same order,
    with no temporaries."""
    if tag != "identity":
        z *= 0.5
        np.tanh(z, out=z)
        if tag == "sigmoid":
            z += 1.0
            z *= 0.5
    return z


def _through_activation(tag: str, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """An output gradient carried back through the activation, whose
    derivative is expressed through its output value.  The identity's
    derivative is 1, so its gradient passes unchanged."""
    if tag == "identity":
        return delta
    if tag == "sigmoid":
        return delta * (out * (1.0 - out))
    return delta * ((1.0 - out * out) / 2.0)


def forward(params: NetworkParams, X) -> tuple[np.ndarray, ForwardTape]:
    """Run the network on a (features x batch) matrix.

    Returns the output matrix and the tape backward() needs, both in the
    dtype of the network's layers.
    """
    X = np.asarray(X, dtype=params.layers[0].weights.dtype)
    if X.ndim != 2 or X.shape[0] != params.in_dim:
        raise InvalidInput(
            f"input shape {X.shape} does not match network input dim {params.in_dim}"
        )
    tape = ForwardTape(inputs=X)
    a = X
    for layer in params.layers:
        z = layer.weights @ a
        z += layer.bias[:, None]
        a = _activate_in_place(layer.activation, z)
        tape.out.append(a)
    return a, tape


def backward(params: NetworkParams, tape: ForwardTape, dF) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate an output gradient to every weight and bias.

    dF is the gradient of a scalar objective with respect to the network
    output.  Returns (weight grad, bias grad) pairs in layer order, in the
    dtype of the network's layers.
    """
    dF = np.asarray(dF, dtype=params.layers[0].weights.dtype)
    if len(tape.out) != len(params.layers):
        raise InvalidInput("tape does not match the network (layer count differs)")
    for layer, out in zip(params.layers, tape.out):
        if out.shape[0] != layer.out_dim:
            raise InvalidInput("tape does not match the network (layer shapes differ)")
    if dF.shape != tape.out[-1].shape:
        raise InvalidInput(
            f"output gradient shape {dF.shape} does not match network output {tape.out[-1].shape}"
        )
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    delta = _through_activation(params.layers[-1].activation, dF, tape.out[-1])
    for i in range(len(params.layers) - 1, -1, -1):
        below = tape.out[i - 1] if i > 0 else tape.inputs
        grads[i] = (delta @ below.T, delta.sum(axis=1))
        if i > 0:
            delta = _through_activation(
                params.layers[i - 1].activation,
                params.layers[i].weights.T @ delta,
                tape.out[i - 1],
            )
    return grads


def zero_velocity(params: NetworkParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fresh zero momentum buffers shaped like the parameters."""
    return [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in params.layers]


def sgd_step(params: NetworkParams, grads, cfg: SgdConfig, velocity) -> NetworkParams:
    """One momentum SGD update, in place.

    v <- momentum * v - lr * (grad + weight_decay * weight); weight += v.
    Weight decay applies to weights only, never biases.  The update runs in
    the dtype of the weights and velocity, whatever the gradients' dtype.
    Every gradient and velocity buffer is checked against its parameter's
    shape before anything is updated.
    """
    shapes = [(layer.weights.shape, layer.bias.shape) for layer in params.layers]
    for buffers in (grads, velocity):
        if [(w.shape, b.shape) for w, b in buffers] != shapes:
            raise InvalidInput("gradient or velocity buffers do not match the network")
    for layer, (dw, db), (vw, vb) in zip(params.layers, grads, velocity):
        vw *= cfg.momentum
        vw -= cfg.learning_rate * (dw + cfg.weight_decay * layer.weights)
        layer.weights += vw
        vb *= cfg.momentum
        # weight_decay * weights already widens the weight term; a float32
        # bias gradient is widened before lr scales it, or lr * db would
        # round in float32.
        vb -= cfg.learning_rate * db.astype(vb.dtype, copy=False)
        layer.bias += vb
    return params
