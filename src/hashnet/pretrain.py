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
from .numerics import procrustes_rotation, sym_eig


@dataclass(frozen=True)
class PcaModel:
    """Top principal components of a feature set.

    projection rows are orthonormal eigenvectors of the sample covariance
    (divisor n - 1), paired with descending eigenvalues.
    """

    projection: np.ndarray   # p x d
    mean: np.ndarray         # d
    eigenvalues: np.ndarray  # p, descending, non-negative

    @property
    def bias(self) -> np.ndarray:
        """Bias that centers projected data: -projection @ mean."""
        return -(self.projection @ self.mean)

    def dr_layer(self) -> Layer:
        """The induced dimension-reduction layer (identity activation)."""
        return Layer(self.projection.copy(), self.bias, "identity")

    def transform(self, features) -> np.ndarray:
        """Center and project (n x d) features to (n x p)."""
        return (np.asarray(features, dtype=np.float64) - self.mean) @ self.projection.T


@dataclass(frozen=True)
class ItqResult:
    rotation: np.ndarray         # orthogonal, bits x bits
    codes: np.ndarray            # bits x n, entries +-1
    objective_trace: np.ndarray  # per-iteration quantization error, non-increasing


def pca_fit(features, p: int) -> PcaModel:
    """Fit the top-p principal components of (n x d) features."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInput(f"need at least 2 samples in a 2-d array, got shape {x.shape}")
    n, d = x.shape
    if not 1 <= p <= d:
        raise InvalidInput(f"target dim {p} must be in 1..{d}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0  # clear float asymmetry before the eigensolve
    dec = sym_eig(cov)
    return PcaModel(
        projection=dec.vectors[:, :p].T.copy(),
        mean=mean,
        eigenvalues=np.maximum(dec.values[:p], 0.0),
    )


def random_rotation(bits: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((bits, bits)))
    return q * np.sign(np.diag(r))


def itq(projected, iters: int, seed: int, init_rotation=None) -> ItqResult:
    """Iterative quantization of centered, PCA-projected (n x bits) data.

    Alternates codes = sign(V R) and the Procrustes rotation update from a
    seeded random orthogonal start (or the given one).  Returns the final
    rotation, the codes as a (bits x n) matrix, and the per-iteration
    quantization error trace.
    """
    v = np.asarray(projected, dtype=np.float64)
    if v.ndim != 2:
        raise InvalidInput(f"projected data must be 2-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("projected data contains non-finite values")
    n, bits = v.shape
    if bits > n:
        raise InvalidInput(f"cannot fit {bits} bits to only {n} samples")
    if iters < 1:
        raise InvalidInput(f"iteration count must be >= 1, got {iters}")
    if init_rotation is None:
        rotation = random_rotation(bits, seed)
    else:
        rotation = np.asarray(init_rotation, dtype=np.float64)
        if rotation.shape != (bits, bits):
            raise InvalidInput(f"initial rotation must be {bits} x {bits}")
    trace = np.empty(iters)
    codes = None
    for i in range(iters):
        codes = binarize(v @ rotation)
        rotation = procrustes_rotation(v.T @ codes)
        resid = codes - v @ rotation
        trace[i] = float(np.sum(resid * resid))
    return ItqResult(rotation=rotation, codes=codes.T, objective_trace=trace)


def init_binary_codes(features, bits: int, seed: int, iters: int = 50) -> ItqResult:
    """Starting binary codes for training: ITQ over the centered top-bits
    PCA projection of the features.  The result's codes are a (bits x n)
    matrix of +-1."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < bits:
        raise InvalidInput(
            f"need at least {bits} samples for {bits}-bit codes, got shape {x.shape}"
        )
    if x.shape[1] < bits:
        raise InvalidInput(
            f"{bits}-bit codes need at least {bits} feature dimensions, got {x.shape[1]}"
        )
    model = pca_fit(x, bits)
    return itq(model.transform(x), iters=iters, seed=seed)
