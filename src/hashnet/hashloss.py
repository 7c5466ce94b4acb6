"""Pairwise label similarity and the relaxed binary-code training objective.

The objective scores a batch of real-valued network outputs against an
explicitly binary copy of the codes.  Four weighted terms: similarity
preservation (the code Gram matrix should match the label similarity
matrix), quantization penalty (outputs should sit near their binary
counterparts), bit independence (code-bit covariance near identity), and
bit balance (each bit +1 on half the batch).

Terms are normalized per batch (similarity by 1/m^2, quantization by 1/m,
independence and balance through 1/m inside the squared norm) so the term
weights mean the same thing at any batch size.  The loss and its gradient
compute in the dtype of the outputs, float32 or float64 (any other input
becomes float64).  All functions are pure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numerics import as_float, check_value


@dataclass(frozen=True)
class Hyperparams:
    """Non-negative weights of the four loss terms."""

    alpha: float = 0.01   # similarity preservation
    beta: float = 0.01    # quantization penalty
    theta: float = 0.001  # bit independence
    gamma: float = 0.01   # bit balance

    def __post_init__(self):
        for name in ("alpha", "beta", "theta", "gamma"):
            value = getattr(self, name)
            check_value(value, name, "finite and non-negative", lambda v: np.isfinite(v) and v >= 0)
            # A numpy float64 weight would widen a float32 loss to float64.
            object.__setattr__(self, name, float(value))


def similarity_matrix(labels) -> np.ndarray:
    """Entry (i, j) is +1 when labels i and j match and -1 otherwise.

    Labels must be non-negative integers.  The matrix is square,
    symmetric, and has a unit diagonal.
    """
    labels = _check_labels(labels)
    return _pair_signs(labels, np.float64)


def _check_labels(labels) -> np.ndarray:
    """`labels` as an array, if they are a non-empty 1-d sequence of
    non-negative integers; raises InvalidInput otherwise."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise InvalidInput("labels must be a non-empty 1-d sequence")
    if not np.issubdtype(labels.dtype, np.integer) or np.any(labels < 0):
        raise InvalidInput("labels must be non-negative integers")
    return labels


def _pair_signs(labels: np.ndarray, dtype) -> np.ndarray:
    """The similarity matrix of checked labels in `dtype`, without
    checking them again."""
    sim = (labels[:, None] == labels[None, :]).astype(dtype)
    sim *= 2
    sim -= 1
    return sim


def _check_shapes(outputs, codes, sim):
    outputs = as_float(outputs)
    codes = np.asarray(codes, dtype=outputs.dtype)
    sim = np.asarray(sim, dtype=outputs.dtype)
    if outputs.ndim != 2 or outputs.shape[1] < 1:
        raise InvalidInput(f"outputs must be a bits x batch matrix, got shape {outputs.shape}")
    if codes.shape != outputs.shape:
        raise InvalidInput(f"binary codes shape {codes.shape} does not match outputs {outputs.shape}")
    m = outputs.shape[1]
    if sim.shape != (m, m):
        raise InvalidInput(f"similarity matrix shape {sim.shape} does not match batch size {m}")
    return outputs, codes, sim


def loss_terms_and_grad(outputs, codes, sim, hp: Hyperparams):
    """The four weighted loss terms (similarity, quantization, independence,
    balance) and the gradient of their sum with respect to the outputs,
    sharing one Gram, one covariance and one row-sum evaluation.  The
    gradient has the outputs' dtype."""
    outputs, codes, sim = _check_shapes(outputs, codes, sim)
    bits, m = outputs.shape
    gram = outputs.T @ outputs / bits - sim
    diff = outputs - codes
    cov = outputs @ outputs.T / m - np.eye(bits, dtype=outputs.dtype)
    row_sums = outputs.sum(axis=1)
    row_means = row_sums / m
    terms = (
        hp.alpha / (2.0 * m * m) * float(np.sum(gram * gram)),
        hp.beta / (2.0 * m) * float(np.sum(diff * diff)),
        hp.theta / 2.0 * float(np.sum(cov * cov)),
        hp.gamma / 2.0 * float(np.sum(row_means * row_means)),
    )
    grad = (2.0 * hp.alpha / (m * m * bits)) * (outputs @ gram)
    grad += (hp.beta / m) * diff
    grad += (2.0 * hp.theta / m) * (cov @ outputs)
    grad += (hp.gamma / (m * m)) * row_sums[:, None]
    return terms, grad


def loss_terms(outputs, codes, sim, hp: Hyperparams):
    """The four weighted loss terms (similarity, quantization, independence,
    balance), each non-negative.  Their sum is the total loss."""
    return loss_terms_and_grad(outputs, codes, sim, hp)[0]


def loss_grad(outputs, codes, sim, hp: Hyperparams) -> np.ndarray:
    """Gradient of the objective with respect to the network outputs.

    Validated against central finite differences of the summed
    loss_terms() in the test suite, which is the authority on correctness.
    """
    return loss_terms_and_grad(outputs, codes, sim, hp)[1]
