"""Initialization procedures: PCA for the dimension-reduction layer and
iterative quantization (ITQ) for the starting binary codes.

ITQ alternates two exact minimizations of the quantization error
|B - V R|^2: binary codes by entry-wise sign, the rotation by an
orthogonal Procrustes solve.  The error therefore never increases.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .index import binarize
from .network import Layer
from .numerics import as_float, check_int, procrustes_rotation, sym_eig

# ITQ iterations of the training start, `init_binary_codes` and `hashnet itq`.
ITQ_ITERS = 50


@dataclass(frozen=True)
class PcaModel:
    """Top principal components of a feature set.

    projection rows are orthonormal eigenvectors of the sample covariance
    (divisor n - 1), in order of descending variance.
    """

    projection: np.ndarray  # p x d
    mean: np.ndarray        # d

    @property
    def bias(self) -> np.ndarray:
        """Bias that centers projected data: -projection @ mean."""
        return -(self.projection @ self.mean)

    def dr_layer(self) -> Layer:
        """The induced dimension-reduction layer (identity activation)."""
        return Layer(self.projection.copy(), self.bias, "identity")

    def transform(self, features) -> np.ndarray:
        """Center and project (n x d) features to (n x p), in float64."""
        return (as_float(features) - self.mean) @ self.projection.T


@dataclass(frozen=True)
class ItqResult:
    rotation: np.ndarray         # orthogonal, bits x bits
    codes: np.ndarray            # bits x n, entries +-1
    objective_trace: np.ndarray  # per-iteration quantization error, non-increasing


def pca_fit(features, p: int) -> PcaModel:
    """Fit the top-p principal components of (n x d) features.

    Float32 features are used as they are: the mean accumulates in float64
    and centering them against it gives the float64 matrix the covariance
    is built from, the same numbers as widening the features first.
    """
    return _pretrain(features, p, 0)[0]


def _pretrain(features, p: int, bits: int) -> tuple[PcaModel, np.ndarray]:
    """pca_fit(features, p) and the features projected onto the leading
    `bits` components, (n x bits), for any p and bits up to the feature
    dimension, from one eigendecomposition and the one centered matrix the
    covariance is built from.  The projection holds the numbers of
    `pca_fit(features, bits).transform(features)`, bit for bit."""
    x = as_float(features)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInput(f"need at least 2 samples in a 2-d array, got shape {x.shape}")
    n, d = x.shape
    check_int(p, "target dim", 1)
    if p > d:
        raise InvalidInput(f"target dim {p} must be in 1..{d}")
    mean = x.mean(axis=0, dtype=np.float64)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0  # clear float asymmetry before the eigensolve
    dec = sym_eig(cov)
    top = dec.vectors[:, : max(p, bits)].T.copy()
    pca = PcaModel(projection=top[:p].copy(), mean=mean)
    del cov, dec  # the projection then peaks no higher than the fit
    return pca, centered @ top[:bits].T


def random_rotation(bits: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((bits, bits)))
    return q * np.sign(np.diag(r))


def itq(projected, iters: int, seed: int, init_rotation=None) -> ItqResult:
    """Iterative quantization of centered, PCA-projected (n x bits) data.

    Alternates codes = sign(V R) and the Procrustes rotation update from a
    random orthogonal start seeded by a non-negative integer (or the given
    one; the seed is checked either way).  Returns the final rotation, the
    codes as a (bits x n) matrix, and the per-iteration quantization error
    trace.
    """
    v = np.asarray(projected, dtype=np.float64)
    if v.ndim != 2:
        raise InvalidInput(f"projected data must be 2-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("projected data contains non-finite values")
    n, bits = v.shape
    if bits > n:
        raise InvalidInput(f"cannot fit {bits} bits to only {n} samples")
    check_int(iters, "iteration count", 1)
    check_int(seed, "seed", 0)
    if init_rotation is None:
        rotation = random_rotation(bits, seed)
    else:
        rotation = np.asarray(init_rotation, dtype=np.float64)
        if rotation.shape != (bits, bits):
            raise InvalidInput(f"initial rotation must be {bits} x {bits}")
    trace = np.empty(iters)
    codes = None
    projected = v @ rotation
    for i in range(iters):
        codes = binarize(projected)
        rotation = procrustes_rotation(v.T @ codes)
        projected = v @ rotation  # this iteration's residual and the next one's codes
        resid = codes - projected
        trace[i] = float(np.sum(resid * resid))
    return ItqResult(rotation=rotation, codes=codes.T, objective_trace=trace)


def init_binary_codes(features, bits: int, seed: int, iters: int = ITQ_ITERS) -> ItqResult:
    """Starting binary codes for training: ITQ over the centered top-bits
    PCA projection of the features.  The result's codes are a (bits x n)
    matrix of +-1."""
    x = as_float(features)
    _check_code_shape(x, bits)
    check_int(iters, "iteration count", 1)
    check_int(seed, "seed", 0)
    return itq(_pretrain(x, bits, bits)[1], iters=iters, seed=seed)


def _check_code_shape(x: np.ndarray, bits: int) -> None:
    """Reject (n x d) features too small for ITQ to give them bits-bit codes."""
    check_int(bits, "code length", 1)
    if x.ndim != 2 or x.shape[0] < bits:
        raise InvalidInput(
            f"need at least {bits} samples for {bits}-bit codes, got shape {x.shape}"
        )
    if x.shape[1] < bits:
        raise InvalidInput(
            f"{bits}-bit codes need at least {bits} feature dimensions, got {x.shape[1]}"
        )
