import numpy as np
import pytest

from hashnet.errors import InvalidInput
from hashnet.hashloss import Hyperparams
from hashnet.index import pack, search
from hashnet.network import SgdConfig, init_head_layers
from hashnet.numerics import procrustes_rotation, sym_eig
from hashnet.pretrain import init_binary_codes, pca_fit
from hashnet.trainer import LabeledFeatures, TrainSchedule, default_schedule, train


def random_orthogonal(rng, n):
    # QR of a Gaussian matrix, signs fixed so the distribution is Haar.
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_sym_eig_identity():
    dec = sym_eig(np.eye(3))
    assert np.allclose(dec.values, [1.0, 1.0, 1.0], atol=1e-12)
    assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(3))) <= 1e-8


def test_sym_eig_diagonal():
    dec = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(dec.values, [3.0, 1.0], atol=1e-12)
    # Eigenvectors of a diagonal matrix are signed unit vectors; the sign
    # convention makes the dominant entry positive.
    assert np.allclose(np.abs(dec.vectors), np.eye(2), atol=1e-12)
    assert np.all(dec.vectors[dec.vectors != 0] > 0)


def test_sym_eig_reconstructs_random_symmetric():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2
    dec = sym_eig(a)
    recon = (dec.vectors * dec.values) @ dec.vectors.T
    assert np.max(np.abs(a - recon)) <= 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_sym_eig_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    dec = sym_eig(a)
    assert np.all(np.diff(dec.values) <= 1e-12)
    assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(n))) <= 1e-8
    assert np.max(np.abs(a @ dec.vectors - dec.vectors * dec.values)) <= 1e-8
    assert np.sum(dec.values) == pytest.approx(np.trace(a), rel=1e-8, abs=1e-12)


def test_sym_eig_sign_convention_is_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2
    d1 = sym_eig(a)
    d2 = sym_eig(a.copy())
    assert np.array_equal(d1.vectors, d2.vectors)
    for j in range(5):
        col = d1.vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eig_rejects_bad_input():
    with pytest.raises(InvalidInput):
        sym_eig(np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_procrustes_identity():
    assert np.allclose(procrustes_rotation(np.eye(3)), np.eye(3), atol=1e-12)


def test_procrustes_rotation_input_is_fixed_point():
    t = np.pi / 6
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert np.allclose(procrustes_rotation(rot), rot, atol=1e-12)


def test_procrustes_maximizes_trace():
    # Oracle: no orthogonal matrix among 1000 random samples beats the
    # returned solution on trace(R.T @ M).
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4))
    r = procrustes_rotation(m)
    best = np.trace(r.T @ m)
    for _ in range(1000):
        q = random_orthogonal(rng, 4)
        assert np.trace(q.T @ m) <= best + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_procrustes_output_orthogonal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    r = procrustes_rotation(rng.standard_normal((n, n)))
    assert np.max(np.abs(r.T @ r - np.eye(n))) <= 1e-8


def test_procrustes_degenerate_inputs():
    # Rank-deficient and zero inputs still yield an orthogonal matrix.
    for m in (np.zeros((3, 3)), np.outer([1.0, 2.0, 0.5], [0.0, 1.0, 1.0])):
        r = procrustes_rotation(m)
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-8
        assert np.array_equal(r, procrustes_rotation(m))


def test_procrustes_rejects_non_square():
    with pytest.raises(InvalidInput):
        procrustes_rotation(np.zeros((2, 3)))


_X = np.random.default_rng(0).standard_normal((40, 8))
_DATA = LabeledFeatures(_X, np.arange(40) % 2)
_SCHED = TrainSchedule(outer=1, inner=1, batch=8)
_DB = pack(np.ones((8, 3)))


def _train(bits=4, dr_dim=8):
    return train(_DATA, bits, Hyperparams(), _SCHED, SgdConfig(), dr_dim=dr_dim)


# Integer arguments of the library, as (call of the value, minimum).  Those of
# TrainSchedule, itq and the encode block size have tests of their own.
INTEGER_ARGUMENTS = {
    "train bits": (lambda v: _train(bits=v), 1),
    "train dr_dim": (lambda v: _train(dr_dim=v), 1),
    "init_binary_codes bits": (lambda v: init_binary_codes(_X, v, 0), 1),
    "init_binary_codes seed": (lambda v: init_binary_codes(_X, 4, v), 0),
    "init_binary_codes iters": (lambda v: init_binary_codes(_X, 4, 0, iters=v), 1),
    "pca_fit p": (lambda v: pca_fit(_X, v), 1),
    "init_head_layers in_dim": (lambda v: init_head_layers(v, 4, np.random.default_rng(0)), 1),
    "init_head_layers bits": (lambda v: init_head_layers(8, v, np.random.default_rng(0)), 1),
    "default_schedule n": (lambda v: default_schedule(v, 1), 1),
    "default_schedule batch": (lambda v: default_schedule(40, v), 1),
    "search k": (lambda v: search(_DB, b"\0", v), 1),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("bad", ["1.5", "True", "minimum - 1"])
def test_integer_arguments_reject_floats_bools_and_values_below_minimum(call, bad):
    run, minimum = INTEGER_ARGUMENTS[call]
    value = {"1.5": 1.5, "True": True, "minimum - 1": minimum - 1}[bad]
    with pytest.raises(InvalidInput):
        run(value)
