"""Alternating training loop for the hashing network.

Each outer iteration holds the binary codes fixed while the network runs
T minibatch SGD steps against them, then refreshes the codes as the sign
of the network output over the whole training set.  Batches come from a
seeded epoch shuffle, so every sample is visited exactly once per pass and
every artifact (loss history, parameters, codes) is reproducible bitwise
for a fixed seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidInput
from .hashloss import Hyperparams, loss_terms_and_grad, similarity_matrix
from .index import binarize
from .network import (
    NetworkParams,
    SgdConfig,
    backward,
    forward,
    head_spec_for,
    init_head_layers,
    sgd_step,
    zero_velocity,
)
from .pretrain import init_binary_codes, pca_fit

# Abort when a batch loss exceeds this multiple of the first batch loss.
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class TrainSchedule:
    """Loop sizes: outer code-update rounds, inner SGD steps per round,
    and the minibatch size."""

    outer: int
    inner: int
    batch: int
    seed: int = 0

    def __post_init__(self):
        if self.outer < 1:
            raise InvalidInput(f"outer iteration count must be >= 1, got {self.outer}")
        if self.inner < 1:
            raise InvalidInput(f"inner iteration count must be >= 1, got {self.inner}")
        if self.batch < 1:
            raise InvalidInput(f"batch size must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class LabeledFeatures:
    """Training inputs: (n x d) features with one class id per sample."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise InvalidInput(f"features must be 2-d, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise InvalidInput(
                f"{labels.shape} labels do not match {features.shape[0]} samples"
            )
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
    """Everything a finished (or aborted) run leaves behind."""

    params: NetworkParams
    codes: np.ndarray  # bits x n, entries +-1
    history: list[BatchRecord] = field(default_factory=list)
    outer: int = 0
    inner: int = 0


def default_schedule(n: int, batch: int, seed: int = 0) -> TrainSchedule:
    """Standard schedule: 5 outer rounds, ceil(4n / batch) inner steps
    (about four passes over the data per round)."""
    if batch < 1:
        raise InvalidInput(f"batch size must be >= 1, got {batch}")
    if batch > n:
        raise InvalidInput(f"batch size {batch} exceeds sample count {n}")
    return TrainSchedule(outer=5, inner=math.ceil(4 * n / batch), batch=batch, seed=seed)


def init_network(
    features, bits: int, dr_dim: int, rng: np.random.Generator
) -> NetworkParams:
    """Fresh model: PCA-initialized dimension-reduction layer (identity
    activation) plus a randomly initialized hashing head.

    The reduction width is capped at the feature dimension.
    """
    features = np.asarray(features, dtype=np.float64)
    if bits < 1:
        raise InvalidInput(f"code length must be >= 1, got {bits}")
    if dr_dim < 1:
        raise InvalidInput(f"reduction dim must be >= 1, got {dr_dim}")
    p = min(dr_dim, features.shape[1])
    dr = pca_fit(features, p).dr_layer()
    head = init_head_layers(p, head_spec_for(bits), rng)
    return NetworkParams([dr] + head)


def _forward_blocks(params: NetworkParams, features, batch: int):
    """Check (n x d) features and a block size, then return an iterator of
    (start, outputs) pairs: the network outputs (bits x block) for the
    samples from start on, in column blocks of at most `batch`."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.in_dim:
        raise InvalidInput(
            f"features shape {features.shape} does not match network input dim {params.in_dim}"
        )
    if batch < 1:
        raise InvalidInput(f"block size must be >= 1, got {batch}")
    return (
        (start, forward(params, features[start : start + batch].T)[0])
        for start in range(0, features.shape[0], batch)
    )


def update_codes(params: NetworkParams, features, batch: int) -> np.ndarray:
    """Sign of the network output over all samples, computed in column
    blocks of at most `batch`.  Blocking does not change the result."""
    blocks = _forward_blocks(params, features, batch)
    out = np.empty((params.out_dim, len(features)))
    for start, block in blocks:
        out[:, start : start + batch] = binarize(block)
    return out


def _batch_indices(order: np.ndarray, pos: int, batch: int, rng: np.random.Generator):
    """Next chunk of the epoch shuffle, reshuffling when exhausted.

    The last chunk of a pass may be shorter than the batch size.
    """
    if pos >= order.size:
        order = rng.permutation(order.size)
        pos = 0
    chunk = order[pos : pos + batch]
    return order, pos + chunk.size, chunk


def train(
    data: LabeledFeatures,
    bits: int,
    hp: Hyperparams,
    sched: TrainSchedule,
    sgd: SgdConfig,
    dr_dim: int = 800,
    itq_iters: int = 50,
) -> TrainState:
    """Run the full alternating optimization and return the final state.

    Flow: build the network (PCA reduction layer + random head), start the
    binary codes from ITQ, then for each outer round run `sched.inner`
    minibatch SGD steps against the frozen codes and re-binarize the codes
    from the updated network.  Raises DivergenceError if a batch loss goes
    non-finite or explodes past 1e6 times the first batch loss.
    """
    if bits < 1:
        raise InvalidInput(f"code length must be >= 1, got {bits}")
    if np.unique(np.asarray(data.labels)).size < 2:
        raise InvalidInput("training data must contain at least 2 classes")
    if sched.batch > data.n:
        raise InvalidInput(f"batch size {sched.batch} exceeds sample count {data.n}")

    rng = np.random.default_rng(sched.seed)
    params = init_network(data.features, bits, dr_dim, rng)
    itq_seed = int(rng.integers(0, 2**63))
    codes = init_binary_codes(data.features, bits, itq_seed, iters=itq_iters).codes

    velocity = zero_velocity(params)
    history: list[BatchRecord] = []
    first_total = None
    order = rng.permutation(data.n)
    pos = 0
    labels = np.asarray(data.labels)

    for k in range(1, sched.outer + 1):
        for t in range(1, sched.inner + 1):
            order, pos, idx = _batch_indices(order, pos, sched.batch, rng)
            batch_x = data.features[idx].T
            batch_sim = similarity_matrix(labels[idx])
            batch_codes = codes[:, idx]
            outputs, tape = forward(params, batch_x)
            terms, grad = loss_terms_and_grad(outputs, batch_codes, batch_sim, hp)
            total = float(sum(terms))
            if not np.isfinite(total) or (
                first_total is not None and first_total > 0 and total > DIVERGENCE_FACTOR * first_total
            ):
                raise DivergenceError(
                    f"loss diverged at outer {k}, inner {t}: {total!r}", outer=k, inner=t
                )
            if first_total is None:
                first_total = total
            sgd_step(params, backward(params, tape, grad), sgd, velocity)
            history.append(BatchRecord(k, t, total, *terms))
        codes = update_codes(params, data.features, sched.batch)

    return TrainState(
        params=params, codes=codes, history=history, outer=sched.outer, inner=sched.inner
    )


def quantization_gap(params: NetworkParams, features, codes, batch: int = 256) -> float:
    """Mean squared distance between network outputs and their binary
    codes, |F - B|^2 / (bits * n)."""
    blocks = _forward_blocks(params, features, batch)
    n = len(features)
    bits = params.out_dim
    if codes.shape != (bits, n):
        raise InvalidInput(f"codes shape {codes.shape} does not match ({bits}, {n})")
    total = 0.0
    for start, block in blocks:
        resid = block - codes[:, start : start + batch]
        total += float(np.sum(resid * resid))
    return total / (bits * n)
