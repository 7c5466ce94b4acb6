"""The trainable hashing model: a stack of affine layers with identity,
sigmoid, or scaled-sigmoid activations, explicit backpropagation, and
momentum SGD with weight decay.

Both nonlinear activations come from one tanh: with t = tanh(z / 2),
sigmoid(z) = (1 + t) / 2 and the scaled sigmoid 2 * sigmoid(z) - 1 = t.
tanh saturates instead of overflowing, so no input needs special casing.

Samples travel as columns: a batch is a (features x batch) matrix and the
network output is (code bits x batch).  A NetworkParams instance is mutated
only by sgd_step; forward passes on it are otherwise read-only.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

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
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
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
class HeadSpec:
    code_length: int
    hidden: tuple[int, int]


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    momentum: float = 0.9

    def __post_init__(self):
        # learning_rate 0 is allowed so a frozen network can run the
        # surrounding loop machinery.
        if not self.learning_rate >= 0:
            raise InvalidInput(f"learning rate must be >= 0, got {self.learning_rate}")
        if not self.weight_decay >= 0:
            raise InvalidInput(f"weight decay must be >= 0, got {self.weight_decay}")
        if not 0 <= self.momentum < 1:
            raise InvalidInput(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class ForwardTape:
    """Intermediate values a forward pass records for backpropagation."""

    inputs: np.ndarray
    out: list[np.ndarray] = field(default_factory=list)


def head_spec_for(code_length: int) -> HeadSpec:
    """Hidden sizes of the three-layer hashing head for a code length.

    Standard lengths come from a fixed table; anything else gets a monotone
    extension of the table's growth pattern.
    """
    if code_length < 1:
        raise InvalidInput(f"code length must be >= 1, got {code_length}")
    if code_length in _HEAD_TABLE:
        return HeadSpec(code_length, _HEAD_TABLE[code_length])
    hidden = (max(90, 2 * code_length + 40), max(20, math.ceil(1.6 * code_length)))
    return HeadSpec(code_length, hidden)


def init_head_layers(in_dim: int, spec: HeadSpec, rng: np.random.Generator) -> list[Layer]:
    """Randomly initialized head: two sigmoid layers and a scaled-sigmoid
    output layer, weights uniform in +-sqrt(6 / (fan_in + fan_out)), zero
    biases."""
    if in_dim < 1:
        raise InvalidInput(f"input dim must be >= 1, got {in_dim}")
    dims = [in_dim, spec.hidden[0], spec.hidden[1], spec.code_length]
    acts = ["sigmoid", "sigmoid", "scaled_sigmoid"]
    layers = []
    for d_in, d_out, act in zip(dims, dims[1:], acts):
        bound = math.sqrt(6.0 / (d_in + d_out))
        weights = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append(Layer(weights, np.zeros(d_out), act))
    return layers


def _activate(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return z
    t = np.tanh(z / 2.0)
    if tag == "sigmoid":
        return 0.5 * (1.0 + t)
    return t


def _activation_grad(tag: str, out: np.ndarray) -> np.ndarray:
    """Derivative of the activation expressed through its output value."""
    if tag == "identity":
        return np.ones_like(out)
    if tag == "sigmoid":
        return out * (1.0 - out)
    return (1.0 - out * out) / 2.0


def forward(params: NetworkParams, X) -> tuple[np.ndarray, ForwardTape]:
    """Run the network on a (features x batch) matrix.

    Returns the output matrix and the tape backward() needs.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != params.in_dim:
        raise InvalidInput(
            f"input shape {X.shape} does not match network input dim {params.in_dim}"
        )
    tape = ForwardTape(inputs=X)
    a = X
    for layer in params.layers:
        z = layer.weights @ a + layer.bias[:, None]
        a = _activate(layer.activation, z)
        tape.out.append(a)
    return a, tape


def backward(params: NetworkParams, tape: ForwardTape, dF) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate an output gradient to every weight and bias.

    dF is the gradient of a scalar objective with respect to the network
    output.  Returns (weight grad, bias grad) pairs in layer order.
    """
    dF = np.asarray(dF, dtype=np.float64)
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
    delta = dF * _activation_grad(params.layers[-1].activation, tape.out[-1])
    for i in range(len(params.layers) - 1, -1, -1):
        below = tape.out[i - 1] if i > 0 else tape.inputs
        grads[i] = (delta @ below.T, delta.sum(axis=1))
        if i > 0:
            delta = (params.layers[i].weights.T @ delta) * _activation_grad(
                params.layers[i - 1].activation, tape.out[i - 1]
            )
    return grads


def zero_velocity(params: NetworkParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fresh zero momentum buffers shaped like the parameters."""
    return [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in params.layers]


def sgd_step(params: NetworkParams, grads, cfg: SgdConfig, velocity) -> NetworkParams:
    """One momentum SGD update, in place.

    v <- momentum * v - lr * (grad + weight_decay * weight); weight += v.
    Weight decay applies to weights only, never biases.
    """
    if len(grads) != len(params.layers) or len(velocity) != len(params.layers):
        raise InvalidInput("gradient or velocity buffers do not match the network")
    for layer, (dw, db), (vw, vb) in zip(params.layers, grads, velocity):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise InvalidInput("gradient shapes do not match the network")
        vw *= cfg.momentum
        vw -= cfg.learning_rate * (dw + cfg.weight_decay * layer.weights)
        layer.weights += vw
        vb *= cfg.momentum
        vb -= cfg.learning_rate * db
        layer.bias += vb
    return params
