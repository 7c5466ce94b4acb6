from types import SimpleNamespace

import numpy as np
import pytest

from hashnet import hashloss
from hashnet.errors import InvalidInput
from hashnet.hashloss import (
    Hyperparams,
    loss_grad,
    loss_terms,
    loss_terms_and_grad,
    similarity_matrix,
)
from hashnet.network import SgdConfig


def similarity_oracle(labels_a, labels_b):
    # Naive double loop straight off the definition.
    out = np.empty((len(labels_a), len(labels_b)))
    for i, la in enumerate(labels_a):
        for j, lb in enumerate(labels_b):
            out[i, j] = 1.0 if la == lb else -1.0
    return out


def loss_oracle(F, B, S, hp):
    # Element-wise scalar recomputation of the four terms, no matrix algebra.
    L, m = F.shape
    sim = 0.0
    for i in range(m):
        for j in range(m):
            g = sum(F[k, i] * F[k, j] for k in range(L)) / L
            sim += (g - S[i, j]) ** 2
    quant = sum((F[k, i] - B[k, i]) ** 2 for k in range(L) for i in range(m))
    indep = 0.0
    for k in range(L):
        for l in range(L):
            c = sum(F[k, i] * F[l, i] for i in range(m)) / m
            indep += (c - (1.0 if k == l else 0.0)) ** 2
    bal = sum((sum(F[k, i] for i in range(m)) / m) ** 2 for k in range(L))
    return (
        hp.alpha / (2 * m * m) * sim
        + hp.beta / (2 * m) * quant
        + hp.theta / 2 * indep
        + hp.gamma / 2 * bal
    )


def fd_grad(F, B, labels, hp, step=1e-5):
    g = np.zeros_like(F)
    for k in range(F.shape[0]):
        for i in range(F.shape[1]):
            up = F.copy()
            up[k, i] += step
            dn = F.copy()
            dn[k, i] -= step
            hi, lo = sum(loss_terms(up, B, labels, hp)), sum(loss_terms(dn, B, labels, hp))
            g[k, i] = (hi - lo) / (2 * step)
    return g


def random_instance(rng, L=3, m=4):
    F = rng.uniform(-0.95, 0.95, size=(L, m))
    B = np.where(rng.standard_normal((L, m)) >= 0, 1.0, -1.0)
    return F, B, rng.integers(0, 3, size=m)


def test_similarity_basic():
    got = similarity_matrix([0, 0, 1])
    assert np.array_equal(got, [[1, 1, -1], [1, 1, -1], [-1, -1, 1]])


def test_similarity_single_label():
    assert np.array_equal(similarity_matrix([5]), [[1.0]])


def test_similarity_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=200)
    assert np.array_equal(similarity_matrix(labels), similarity_oracle(labels, labels))


@pytest.mark.parametrize("seed", range(5))
def test_similarity_symmetric_unit_diagonal(seed):
    rng = np.random.default_rng(seed)
    ls = rng.integers(0, 4, size=int(rng.integers(1, 30)))
    s = similarity_matrix(ls)
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 1.0)


def test_similarity_rejects_bad_labels():
    with pytest.raises(InvalidInput):
        similarity_matrix([])
    with pytest.raises(InvalidInput):
        similarity_matrix([0, -1])


def constructed_minimum():
    F = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    hp = Hyperparams(alpha=0.7, beta=1.3, theta=0.0, gamma=0.9)
    return F, F.copy(), [0, 0, 1, 1], hp


def test_loss_zero_at_constructed_minimum():
    F, B, labels, hp = constructed_minimum()
    assert sum(loss_terms(F, B, labels, hp)) == 0.0


def test_loss_zero_for_identical_same_class_codes():
    F = np.ones((2, 2))
    hp = Hyperparams(alpha=1.0, beta=1.0, theta=0.0, gamma=0.0)
    assert sum(loss_terms(F, F.copy(), [3, 3], hp)) == 0.0


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    F, B, labels = random_instance(rng)
    hp = Hyperparams(alpha=1.0, beta=1.0, theta=1.0, gamma=1.0)
    want = loss_oracle(F, B, similarity_matrix(labels), hp)
    assert sum(loss_terms(F, B, labels, hp)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_loss_terms_individually_non_negative(seed):
    rng = np.random.default_rng(seed)
    F, B, labels = random_instance(rng, L=4, m=6)
    hp = Hyperparams(*rng.uniform(0, 1, size=4))
    terms = loss_terms(F, B, labels, hp)
    assert all(t >= 0.0 for t in terms)
    assert sum(terms) == pytest.approx(loss_oracle(F, B, similarity_matrix(labels), hp), abs=1e-12)


def test_loss_shape_mismatch():
    F = np.zeros((2, 3))
    with pytest.raises(InvalidInput):
        loss_terms(F, np.ones((2, 4)), [0, 1, 2], Hyperparams())
    with pytest.raises(InvalidInput, match="4 labels for a batch of 3"):
        loss_terms(F, np.ones((2, 3)), [0, 1, 2, 3], Hyperparams())
    with pytest.raises(InvalidInput, match=r"bits x batch matrix, got shape \(3,\)"):
        loss_terms(np.zeros(3), np.ones(3), [0, 1, 2], Hyperparams())


@pytest.mark.parametrize("labels", [[0, -1, 1], [0.0, 1.0, 1.0], ["a", "b", "b"], [[0, 1, 1]]],
                         ids=["negative", "float", "str", "2-d"])
def test_loss_rejects_labels_that_are_not_class_ids(labels):
    with pytest.raises(InvalidInput, match="labels must be"):
        loss_terms_and_grad(np.zeros((2, 3)), np.ones((2, 3)), labels, Hyperparams())


def test_loss_invariant_under_column_permutation():
    rng = np.random.default_rng(9)
    F, B, labels = random_instance(rng, L=4, m=6)
    hp = Hyperparams(0.3, 0.4, 0.2, 0.1)
    perm = rng.permutation(6)
    permuted = sum(loss_terms(F[:, perm], B[:, perm], labels[perm], hp))
    assert permuted == pytest.approx(sum(loss_terms(F, B, labels, hp)), rel=1e-12)


def test_loss_zero_iff_gram_matches_similarity():
    # With beta = theta = gamma = 0 the loss vanishes exactly when
    # outputs.T @ outputs / L equals the similarity matrix.
    hp = Hyperparams(alpha=1.0, beta=0.0, theta=0.0, gamma=0.0)
    F = np.array([[1.0, -1.0], [1.0, -1.0]])
    assert sum(loss_terms(F, np.sign(F), [0, 1], hp)) == 0.0
    F2 = F.copy()
    F2[0, 0] = 0.5
    assert sum(loss_terms(F2, np.sign(F), [0, 1], hp)) > 0.0


def test_grad_zero_at_constructed_minimum():
    F, B, labels, hp = constructed_minimum()
    assert np.max(np.abs(loss_grad(F, B, labels, hp))) <= 1e-12


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    F, B, labels = random_instance(rng)
    hp = Hyperparams(alpha=1.0, beta=1.0, theta=1.0, gamma=1.0)
    assert np.max(np.abs(loss_grad(F, B, labels, hp) - fd_grad(F, B, labels, hp))) <= 1e-6


def test_grad_quantization_only_term():
    rng = np.random.default_rng(6)
    F = rng.uniform(-0.9, 0.9, size=(3, 2))
    B = np.where(rng.standard_normal((3, 2)) >= 0, 1.0, -1.0)
    hp = Hyperparams(alpha=0.0, beta=1.0, theta=0.0, gamma=0.0)
    assert np.array_equal(loss_grad(F, B, [0, 1], hp), (F - B) / 2)


@pytest.mark.parametrize("seed", range(20))
def test_grad_finite_difference_sweep(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 9))
    m = int(rng.integers(1, 17))
    F = rng.uniform(-0.95, 0.95, size=(L, m))
    B = np.where(rng.standard_normal((L, m)) >= 0, 1.0, -1.0)
    labels = rng.integers(0, 3, size=m)
    hp = Hyperparams(*rng.uniform(0, 1, size=4))
    assert np.max(np.abs(loss_grad(F, B, labels, hp) - fd_grad(F, B, labels, hp))) <= 1e-6


WEIGHTS = {
    "alpha": lambda v: Hyperparams(alpha=v),
    "theta": lambda v: Hyperparams(theta=v),
    "learning_rate": lambda v: SgdConfig(learning_rate=v),
    "weight_decay": lambda v: SgdConfig(weight_decay=v),
    "momentum": lambda v: SgdConfig(momentum=v),
}


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("value", ["x", None, [0.5], 0.5j, np.array([0.5, 0.5])],
                         ids=["str", "None", "list", "complex", "array"])
def test_weights_reject_non_numbers(weight, value):
    with pytest.raises(InvalidInput):
        WEIGHTS[weight](value)


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("value", [0, 0.5, False, np.float32(0.5), np.int64(0), np.array(0.5)],
                         ids=["int", "float", "bool", "float32", "int64", "0-d"])
def test_weights_accept_numbers_of_any_numeric_type(weight, value):
    WEIGHTS[weight](value)


def test_hyperparams_reject_negative():
    with pytest.raises(InvalidInput):
        Hyperparams(alpha=-0.1)
    with pytest.raises(InvalidInput):
        Hyperparams(gamma=float("nan"))


# Tolerance of the float32 loss against float64, fixed from float32's unit
# roundoff (6e-8) with headroom for the Gram and covariance sums: every term
# within 1e-5 of the float64 total, the gradient within 1e-5 of its largest
# float64 entry.
LOSS_RTOL = 1e-5


def reference_terms_and_grad(F, B, labels, hp):
    """The float64-only loss and gradient that the dtype-generic one
    replaced, with every array in F's dtype."""
    B, S = (np.asarray(a, dtype=F.dtype) for a in (B, similarity_matrix(labels)))
    bits, m = F.shape
    gram = F.T @ F / bits - S
    diff = F - B
    cov = F @ F.T / m - np.eye(bits, dtype=F.dtype)
    row_sums = F.sum(axis=1)
    row_means = row_sums / m
    terms = (
        hp.alpha / (2.0 * m * m) * float(np.sum(gram * gram)),
        hp.beta / (2.0 * m) * float(np.sum(diff * diff)),
        hp.theta / 2.0 * float(np.sum(cov * cov)),
        hp.gamma / 2.0 * float(np.sum(row_means * row_means)),
    )
    grad = (2.0 * hp.alpha / (m * m * bits)) * (F @ gram)
    grad += (hp.beta / m) * diff
    grad += (2.0 * hp.theta / m) * (cov @ F)
    grad += (hp.gamma / (m * m)) * row_sums[:, None]
    return terms, grad


def float_loss_case(seed, L=32, m=64):
    rng = np.random.default_rng(seed)
    F = rng.uniform(-0.95, 0.95, size=(L, m))
    B = np.where(rng.standard_normal((L, m)) >= 0, 1.0, -1.0)
    labels = rng.integers(0, 5, size=m)
    return F, B, labels, Hyperparams(*rng.uniform(0.1, 1, size=4))


@pytest.mark.parametrize("seed", range(5))
def test_float32_loss_agrees_with_float64(seed):
    F, B, labels, hp = float_loss_case(seed)
    terms64, grad64 = loss_terms_and_grad(F, B, labels, hp)
    terms32, grad32 = loss_terms_and_grad(F.astype(np.float32), B, labels, hp)
    assert all(abs(a - b) <= LOSS_RTOL * sum(terms64) for a, b in zip(terms32, terms64))
    assert np.max(np.abs(grad32 - grad64)) <= LOSS_RTOL * np.max(np.abs(grad64))


def test_float32_loss_never_upcasts(monkeypatch):
    F, B, labels, hp = float_loss_case(0)
    assert all(type(getattr(hp, k)) is float for k in ("alpha", "beta", "theta", "gamma"))
    built = []

    def recording_pair_signs(labels, dtype):
        built.append(real_pair_signs(labels, dtype))
        return built[-1]

    real_pair_signs = hashloss._pair_signs
    monkeypatch.setattr(hashloss, "_pair_signs", recording_pair_signs)
    terms, grad = loss_terms_and_grad(F.astype(np.float32), B, labels, hp)
    assert grad.dtype == np.float32
    # The similarity matrix is built from the labels in the outputs' dtype.
    assert [s.dtype for s in built] == [np.float32]
    assert np.array_equal(built[0], similarity_matrix(labels))
    # A float64 constant would widen an intermediate and round back into the
    # float32 gradient in place, unseen by its dtype; the bits show it.
    want_terms, want_grad = reference_terms_and_grad(F.astype(np.float32), B, labels, hp)
    assert terms == want_terms and grad.tobytes() == want_grad.tobytes()
    assert loss_grad(F.astype(np.float16), B, labels, hp).dtype == np.float64


@pytest.mark.parametrize("seed", range(5))
def test_float64_loss_is_bitwise_unchanged(seed):
    F, B, labels, _ = float_loss_case(seed, L=int(seed) + 3, m=2 * int(seed) + 5)
    raw = np.random.default_rng(seed).uniform(0.1, 1, size=4)  # numpy float64 weights
    terms, grad = loss_terms_and_grad(F, B.tolist(), labels.tolist(), Hyperparams(*raw))
    parent_hp = SimpleNamespace(**dict(zip(("alpha", "beta", "theta", "gamma"), raw)))
    want_terms, want_grad = reference_terms_and_grad(F, B, labels, parent_hp)
    assert grad.dtype == np.float64
    assert terms == want_terms and grad.tobytes() == want_grad.tobytes()
