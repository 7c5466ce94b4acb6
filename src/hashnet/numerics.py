"""Symmetric eigendecomposition and orthogonal alignment on float64 arrays,
and the float dtype rule the network, the loss, binarization and the
feature path (file, PCA, training) share.

Both routines are deterministic: eigenvalues come back in descending order
and eigenvector signs follow a fixed convention, so repeated runs on the
same machine produce identical bytes.  All functions are pure and safe to
call from multiple threads.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NumericalFailure

# Maximum allowed |A - A.T| entry for an input to count as symmetric.
SYMMETRY_TOL = 1e-10

# Absolute floor of the eigendecomposition's reconstruction bound.
RECONSTRUCTION_TOL = 1e-9


class EigenDecomposition(NamedTuple):
    values: np.ndarray   # eigenvalues, descending
    vectors: np.ndarray  # orthonormal columns, column i pairs with values[i]


def as_float(a) -> np.ndarray:
    """`a` as a float32 array if it already is one, else as a float64 array.

    These are the two dtypes the network and the loss compute in; float32
    and float64 input come back without a copy.
    """
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def check_int(value, name: str, minimum: int) -> None:
    """Raise InvalidInput unless `value` is an integer, not a bool, of at
    least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value}")


def check_value(value, name: str, rule: str, test) -> None:
    """Raise InvalidInput, saying `value` must be `rule`, unless test(value)
    holds; a value the test cannot compare (a string, None) fails it."""
    try:
        valid = bool(test(value))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidInput(f"{name} must be {rule}, got {value}")


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive.

    np.argmax returns the first maximum, so exact ties break toward the
    lowest index.
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0
    out = vectors.copy()
    out[:, flip] *= -1.0
    return out


def sym_eig(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Returns all eigenpairs with eigenvalues sorted descending.  The
    reconstruction error max|A - Q diag(v) Q.T| is verified against
    max(RECONSTRUCTION_TOL, 1e-10 * max|A|).
    """
    a = _as_square(a, "input")
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise InvalidInput("input matrix is not symmetric within 1e-10")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from None
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    recon = (vectors * values) @ vectors.T
    bound = max(RECONSTRUCTION_TOL, 1e-10 * float(np.max(np.abs(a), initial=0.0)))
    if np.max(np.abs(a - recon), initial=0.0) > bound:
        raise NumericalFailure("eigendecomposition failed the reconstruction check")
    return EigenDecomposition(values=values, vectors=vectors)


def procrustes_rotation(m) -> np.ndarray:
    """Orthogonal matrix maximizing trace(R.T @ M).

    This is the orthogonal Procrustes solution R = P Q.T for the singular
    value decomposition M = P S Q.T.  Rank-deficient inputs (including the
    zero matrix) are fine: the SVD supplies a complete orthonormal basis,
    so the result is always orthogonal and deterministic.
    """
    m = _as_square(m, "input")
    try:
        u, _, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular value decomposition failed: {exc}") from None
    r = u @ vt
    if np.max(np.abs(r.T @ r - np.eye(m.shape[0])), initial=0.0) > 1e-8:
        raise NumericalFailure("Procrustes solution lost orthogonality")
    return r
