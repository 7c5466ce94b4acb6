"""Alternating training loop for the hashing network.

Each outer iteration holds the binary codes fixed while the network runs
T minibatch SGD steps against them, then refreshes the codes as the sign
of the network output over the whole training set.  Batches come from a
seeded epoch shuffle, so every sample is visited exactly once per pass and
every artifact (loss history, parameters, codes) is reproducible bitwise
for a fixed seed.  Each step hands the loss its batch's labels; the labels
are checked once, by LabeledFeatures.  A step or refresh that overflows
float32 ends the run with DivergenceError.

Training computes in float32 against float64 master weights: each step
runs forward, loss and backward on a float32 copy of the network and
applies the float32 gradients to the float64 weights in float64.  The
returned parameters, and so the model file, stay float64.  A full-rank
PCA layer is folded into the head once, at init, so training, each code
refresh, `encode` and `quantization_gap` run the stored layers, in one
blocked pass over a float32 copy: `encode` of the training features gives
`train`'s codes, and the gap measures the outputs those codes are signs of.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidInput
from .hashloss import Hyperparams, _check_labels, loss_terms_and_grad
from .index import binarize
from .network import (
    Layer,
    NetworkParams,
    SgdConfig,
    backward,
    forward,
    init_head_layers,
    sgd_step,
    zero_velocity,
)
from .numerics import as_float, check_int
from .pretrain import ITQ_ITERS, PcaModel, _check_code_shape, _pretrain, itq

# Abort when a batch loss exceeds this multiple of the first batch loss.
DIVERGENCE_FACTOR = 1e6

# Outer rounds of `default_schedule` and reduction layer width of `train`,
# also the defaults of `hashnet train --outer` and `--dr-dim`.
OUTER_ROUNDS = 5
DR_DIM = 800

# Samples per block of the encode pass (`_forward_blocks`): the default of
# `update_codes` and the block size of `quantization_gap`.
ENCODE_BLOCK = 256


@dataclass(frozen=True)
class TrainSchedule:
    """Loop sizes: outer code-update rounds, inner SGD steps per round,
    and the minibatch size, all positive integers; and the non-negative
    integer seed of the run."""

    outer: int
    inner: int
    batch: int
    seed: int = 0

    def __post_init__(self):
        check_int(self.outer, "outer iteration count", 1)
        check_int(self.inner, "inner iteration count", 1)
        check_int(self.batch, "batch size", 1)
        check_int(self.seed, "seed", 0)


@dataclass(frozen=True)
class LabeledFeatures:
    """Training inputs: (n x d) finite features with one class id, a
    non-negative integer, per sample.  The one check of training labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = as_float(self.features)
        if features.ndim != 2:
            raise InvalidInput(f"features must be 2-d, got shape {features.shape}")
        labels = _check_labels(self.labels)
        if labels.shape[0] != features.shape[0]:
            raise InvalidInput(f"{labels.shape[0]} labels for {features.shape[0]} samples")
        if not np.all(np.isfinite(features)):
            raise InvalidInput("features contain non-finite values")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class BatchRecord:
    """Loss bookkeeping for one SGD step."""

    outer: int
    inner: int
    total: float
    similarity: float
    quantization: float
    independence: float
    balance: float


@dataclass
class TrainState:
    """Everything a finished run leaves behind.  A run that diverges
    raises DivergenceError and returns no state."""

    params: NetworkParams
    codes: np.ndarray  # bits x n, entries +-1
    history: list[BatchRecord] = field(default_factory=list)


def default_schedule(n: int, batch: int, seed: int = 0) -> TrainSchedule:
    """Standard schedule: OUTER_ROUNDS outer rounds, ceil(4n / batch)
    inner steps (about four passes over the data per round)."""
    check_int(n, "sample count", 1)
    check_int(batch, "batch size", 1)
    if batch > n:
        raise InvalidInput(f"batch size {batch} exceeds sample count {n}")
    return TrainSchedule(OUTER_ROUNDS, math.ceil(4 * n / batch), batch, seed)


def _network_on(pca: PcaModel, bits: int, rng: np.random.Generator) -> NetworkParams:
    """The network `train` starts from: the PCA reduction layer a and a
    random head for bits-bit codes (`init_head_layers`).  A full-rank a is
    merged into the first head layer b as (W_b W_a, W_b b_a + b_b); a real
    reduction stays a layer, so it still bounds the rank after it."""
    a = pca.dr_layer()
    b, *rest = init_head_layers(a.out_dim, bits, rng)
    if a.out_dim < a.in_dim:
        return NetworkParams([a, b] + rest)
    ab = Layer(b.weights @ a.weights, b.weights @ a.bias + b.bias, b.activation)
    return NetworkParams([ab] + rest)


def _float32_copy(params: NetworkParams) -> NetworkParams:
    """The network with its weights and biases rounded to float32."""
    return NetworkParams(
        [
            Layer(l.weights.astype(np.float32), l.bias.astype(np.float32), l.activation)
            for l in params.layers
        ]
    )


def _forward_blocks(params: NetworkParams, features, batch: int):
    """Check (n x d) features and a block size, then return an iterator of
    (start, outputs) pairs: the outputs (bits x block) of a float32 copy of
    the network, made once per call, for the samples from start on, in
    column blocks of at most `batch`."""
    features = as_float(features)
    if features.ndim != 2 or features.shape[1] != params.in_dim:
        raise InvalidInput(
            f"features shape {features.shape} does not match network input dim {params.in_dim}"
        )
    check_int(batch, "block size", 1)
    compute = _float32_copy(params)
    return (
        (start, forward(compute, features[start : start + batch].T)[0])
        for start in range(0, features.shape[0], batch)
    )


def update_codes(params: NetworkParams, features, batch: int = ENCODE_BLOCK) -> np.ndarray:
    """Sign of the network output over all samples, computed in column
    blocks of at most `batch`; `encode` and `train`'s code refresh use the
    default.  The codes are those of a float32 copy of the network,
    whatever the dtype of `params`, on the features as float32; it runs
    exactly the layers `params` holds.  Another block size, or float64
    `forward`, can change an output by float32 rounding (a matrix product
    of another shape may sum in another order), so a code bit only where
    the output is within float32 rounding of 0.  `params` is not changed."""
    blocks = _forward_blocks(params, features, batch)
    out = np.empty((params.out_dim, len(features)))
    for start, block in blocks:
        out[:, start : start + batch] = binarize(block)
    return out


def _batches(n: int, batch: int, rng: np.random.Generator):
    """Endless chunks of at most `batch` of `rng.permutation(n)`, drawn
    afresh at the first chunk of each pass; the last chunk of a pass may
    be shorter."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch):
            yield order[start : start + batch]


def train(
    data: LabeledFeatures,
    bits: int,
    hp: Hyperparams,
    sched: TrainSchedule,
    sgd: SgdConfig,
    dr_dim: int = DR_DIM,
) -> TrainState:
    """Run the full alternating optimization and return the final state.

    Flow: build the network (`_network_on`) on a PCA of the features to
    min(dr_dim, feature dimension) components, start the binary codes from
    ITQ_ITERS iterations of ITQ, then for each outer round run `sched.inner`
    minibatch SGD steps against the frozen codes and re-binarize the codes
    from the updated network.  One PCA serves both the reduction layer and
    ITQ.  Raises DivergenceError if a batch loss goes non-finite or
    explodes past 1e6 times the first positive batch loss, or if a step or
    a code refresh overflows or makes a NaN.

    Steps and code refreshes compute in float32: on the features as float32
    (float32 features, which read_features returns, are used without a
    copy), on float32 +-1 codes, and on a float32 copy of the network; the
    loss builds each batch's similarity matrix from its labels in float32.
    The SGD update applies their gradients to float64 master weights in
    float64.  The returned parameters are float64, so the model file stays
    float64, and the codes are float64 +-1: the codes `update_codes` gives
    the returned parameters.
    """
    check_int(dr_dim, "reduction dim", 1)
    labels = data.labels
    if np.unique(labels).size < 2:
        raise InvalidInput("training data must contain at least 2 classes")
    if sched.batch > data.n:
        raise InvalidInput(f"batch size {sched.batch} exceeds sample count {data.n}")
    _check_code_shape(data.features, bits)

    rng = np.random.default_rng(sched.seed)
    pca, projected = _pretrain(data.features, min(dr_dim, data.dim), bits)
    params = _network_on(pca, bits, rng)
    itq_seed = int(rng.integers(0, 2**63))
    codes = itq(projected, iters=ITQ_ITERS, seed=itq_seed).codes
    del projected
    # A copy only for float64 features, made after the PCA and ITQ
    # temporaries are freed.
    features32 = data.features.astype(np.float32, copy=False)

    velocity = zero_velocity(params)
    history: list[BatchRecord] = []
    first_total = None
    batches = _batches(data.n, sched.batch, rng)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(1, sched.outer + 1):
                codes32 = codes.astype(np.float32)
                for t, idx in zip(range(1, sched.inner + 1), batches):
                    compute = _float32_copy(params)
                    outputs, tape = forward(compute, features32[idx].T)
                    terms, grad = loss_terms_and_grad(outputs, codes32[:, idx], labels[idx], hp)
                    total = float(sum(terms))
                    # An exploding loss diverges as an overflow does.
                    if not np.isfinite(total) or (
                        first_total is not None and total > DIVERGENCE_FACTOR * first_total
                    ):
                        raise FloatingPointError(repr(total))
                    if first_total is None and total > 0:
                        first_total = total
                    sgd_step(params, backward(compute, tape, grad), sgd, velocity)
                    history.append(BatchRecord(k, t, total, *terms))
                codes = update_codes(params, features32)
    except FloatingPointError as exc:
        raise DivergenceError(
            f"loss diverged at outer {k}, inner {t}: {exc}", outer=k, inner=t
        ) from exc

    return TrainState(params=params, codes=codes, history=history)


def quantization_gap(params: NetworkParams, features, codes) -> float:
    """Mean squared distance between network outputs and their binary
    codes, |F - B|^2 / (bits * n), summed in float64.  The outputs are
    those `update_codes` signs: a float32 copy of the network, in blocks
    of ENCODE_BLOCK samples."""
    blocks = _forward_blocks(params, features, ENCODE_BLOCK)
    codes = np.asarray(codes, dtype=np.float64)
    n = len(features)
    bits = params.out_dim
    if n == 0:
        raise InvalidInput("quantization gap needs at least one sample")
    if codes.shape != (bits, n):
        raise InvalidInput(f"codes shape {codes.shape} does not match ({bits}, {n})")
    total = 0.0
    for start, block in blocks:
        resid = block - codes[:, start : start + ENCODE_BLOCK]
        total += float(np.sum(resid * resid))
    return total / (bits * n)
