import numpy as np
import pytest

from hashnet.errors import InvalidInput
from hashnet.hashloss import Hyperparams, loss, loss_grad, similarity_matrix
from hashnet.network import (
    HeadSpec,
    Layer,
    NetworkParams,
    SgdConfig,
    backward,
    forward,
    head_spec_for,
    init_head_layers,
    sgd_step,
    zero_velocity,
)


def identity_layer(n):
    return Layer(np.eye(n), np.zeros(n), "identity")


def random_net(rng, dims, acts):
    # Glorot-scale weights keep outputs O(1), the regime the loss is used in.
    layers = []
    for d_in, d_out, act in zip(dims, dims[1:], acts):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append(Layer(weights, rng.uniform(-0.1, 0.1, size=d_out), act))
    return NetworkParams(layers)


def composed_loss(params, X, B, S, hp):
    F, _ = forward(params, X)
    return loss(F, B, S, hp)


def fd_param_grads(params, X, B, S, hp, step=1e-5):
    """Central finite differences through forward + loss for every weight and bias."""
    out = []
    for layer in params.layers:
        dw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            hi = composed_loss(params, X, B, S, hp)
            layer.weights[idx] = orig - step
            lo = composed_loss(params, X, B, S, hp)
            layer.weights[idx] = orig
            dw[idx] = (hi - lo) / (2 * step)
        db = np.zeros_like(layer.bias)
        for i in range(layer.bias.size):
            orig = layer.bias[i]
            layer.bias[i] = orig + step
            hi = composed_loss(params, X, B, S, hp)
            layer.bias[i] = orig - step
            lo = composed_loss(params, X, B, S, hp)
            layer.bias[i] = orig
            db[i] = (hi - lo) / (2 * step)
        out.append((dw, db))
    return out


def test_head_spec_table_rows():
    assert head_spec_for(8) == HeadSpec(8, (90, 20))
    assert head_spec_for(16) == HeadSpec(16, (90, 30))
    assert head_spec_for(24) == HeadSpec(24, (100, 40))
    assert head_spec_for(32) == HeadSpec(32, (120, 50))
    assert head_spec_for(48) == HeadSpec(48, (140, 80))


def test_head_spec_interpolates_untabulated_lengths():
    spec = head_spec_for(12)
    assert spec.code_length == 12
    assert spec.hidden == (90, 20)
    spec = head_spec_for(64)
    assert spec.hidden == (168, 103)
    # The extension itself grows monotonically with the code length.
    untabulated = [head_spec_for(L).hidden for L in range(49, 128)]
    assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(untabulated, untabulated[1:]))
    assert all(h1 > 0 and h2 > 0 for h1, h2 in (head_spec_for(L).hidden for L in range(1, 49)))


def test_head_spec_rejects_zero():
    with pytest.raises(InvalidInput):
        head_spec_for(0)


def test_forward_identity_network():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 6))
    params = NetworkParams([identity_layer(4)])
    F, _ = forward(params, X)
    assert np.array_equal(F, X)


def test_forward_zero_sigmoid_layer():
    params = NetworkParams([Layer(np.zeros((3, 2)), np.zeros(3), "sigmoid")])
    F, _ = forward(params, np.ones((2, 5)))
    assert np.all(F == 0.5)


def test_forward_zero_scaled_sigmoid_layer():
    params = NetworkParams([Layer(np.zeros((3, 2)), np.zeros(3), "scaled_sigmoid")])
    F, _ = forward(params, np.ones((2, 5)))
    assert np.all(F == 0.0)


def test_forward_rejects_dim_mismatch():
    params = NetworkParams([identity_layer(4)])
    with pytest.raises(InvalidInput):
        forward(params, np.zeros((3, 2)))


def test_forward_is_deterministic():
    rng = np.random.default_rng(1)
    params = random_net(rng, [3, 5, 2], ["sigmoid", "scaled_sigmoid"])
    X = rng.standard_normal((3, 7))
    F1, _ = forward(params, X)
    F2, _ = forward(params, X)
    assert np.array_equal(F1, F2)


def test_activation_ranges():
    rng = np.random.default_rng(2)
    z = rng.uniform(-30, 30, size=(4, 50))
    sig = NetworkParams([Layer(np.eye(4), np.zeros(4), "sigmoid")])
    F, _ = forward(sig, z)
    assert np.all((F > 0.0) & (F < 1.0))
    scaled = NetworkParams([Layer(np.eye(4), np.zeros(4), "scaled_sigmoid")])
    F, _ = forward(scaled, z)
    assert np.all((F > -1.0) & (F < 1.0))


def split_sigmoid(z):
    """Reference logistic, split by sign so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("tag", ["sigmoid", "scaled_sigmoid"])
def test_activations_match_split_sigmoid(tag):
    z = np.linspace(-800.0, 800.0, 1_600_001)[None, :]
    expected = split_sigmoid(z)
    if tag == "scaled_sigmoid":
        expected = 2.0 * expected - 1.0
    params = NetworkParams([Layer(np.ones((1, 1)), np.zeros(1), tag)])
    with np.errstate(all="raise"):
        F, _ = forward(params, z)
    assert np.max(np.abs(F - expected)) <= 1e-15


def test_backward_zero_upstream():
    rng = np.random.default_rng(3)
    params = random_net(rng, [3, 4, 2], ["sigmoid", "scaled_sigmoid"])
    F, tape = forward(params, rng.standard_normal((3, 5)))
    grads = backward(params, tape, np.zeros_like(F))
    for dw, db in grads:
        assert np.all(dw == 0.0)
        assert np.all(db == 0.0)


def test_backward_linear_least_squares_gradient():
    # Single identity layer with J = 0.5 * |F|^2, so dF = F and dW = F X^T.
    rng = np.random.default_rng(4)
    params = random_net(rng, [3, 2], ["identity"])
    X = rng.standard_normal((3, 6))
    F, tape = forward(params, X)
    (dw, db), = backward(params, tape, F)
    assert np.allclose(dw, F @ X.T, atol=1e-12)
    assert np.allclose(db, F.sum(axis=1), atol=1e-12)


def test_backward_matches_finite_differences_two_layer():
    rng = np.random.default_rng(5)
    params = random_net(rng, [4, 3, 2], ["identity", "scaled_sigmoid"])
    X = rng.standard_normal((4, 5))
    B = np.where(rng.standard_normal((2, 5)) >= 0, 1.0, -1.0)
    S = similarity_matrix(rng.integers(0, 2, size=5))
    hp = Hyperparams(0.5, 0.8, 0.3, 0.2)
    F, tape = forward(params, X)
    grads = backward(params, tape, loss_grad(F, B, S, hp))
    expected = fd_param_grads(params, X, B, S, hp)
    for (dw, db), (ew, eb) in zip(grads, expected):
        assert np.max(np.abs(dw - ew)) <= 1e-6
        assert np.max(np.abs(db - eb)) <= 1e-6


@pytest.mark.parametrize("seed", range(50))
def test_gradient_check_random_small_networks(seed):
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 11)) for _ in range(n_layers + 1)]
    acts = [str(rng.choice(["identity", "sigmoid", "scaled_sigmoid"])) for _ in range(n_layers - 1)]
    acts.append("scaled_sigmoid")  # trained networks always end in the code activation
    m = int(rng.integers(1, 9))
    params = random_net(rng, dims, acts)
    X = rng.standard_normal((dims[0], m))
    B = np.where(rng.standard_normal((dims[-1], m)) >= 0, 1.0, -1.0)
    S = similarity_matrix(rng.integers(0, 3, size=m))
    hp = Hyperparams(*rng.uniform(0, 1, size=4))
    F, tape = forward(params, X)
    grads = backward(params, tape, loss_grad(F, B, S, hp))
    expected = fd_param_grads(params, X, B, S, hp)
    for (dw, db), (ew, eb) in zip(grads, expected):
        assert np.max(np.abs(dw - ew)) <= 1e-6
        assert np.max(np.abs(db - eb)) <= 1e-6


def test_backward_rejects_mismatched_tape():
    rng = np.random.default_rng(6)
    params = random_net(rng, [3, 2], ["identity"])
    other = random_net(rng, [3, 4, 2], ["sigmoid", "identity"])
    F, tape = forward(params, rng.standard_normal((3, 4)))
    with pytest.raises(InvalidInput):
        backward(other, tape, F)
    with pytest.raises(InvalidInput):
        backward(params, tape, np.zeros((5, 4)))


def test_sgd_vanilla_step():
    layer = Layer(np.array([[1.0, 2.0]]), np.array([0.5]), "identity")
    params = NetworkParams([layer])
    grads = [(np.array([[0.25, -1.0]]), np.array([2.0]))]
    vel = zero_velocity(params)
    sgd_step(params, grads, SgdConfig(learning_rate=1.0, weight_decay=0.0, momentum=0.0), vel)
    assert np.array_equal(layer.weights, [[0.75, 3.0]])
    assert np.array_equal(layer.bias, [-1.5])


def test_sgd_zero_grad_decays_velocity():
    layer = Layer(np.ones((1, 1)), np.zeros(1), "identity")
    params = NetworkParams([layer])
    vel = [(np.array([[1.0]]), np.array([0.5]))]
    grads = [(np.zeros((1, 1)), np.zeros(1))]
    cfg = SgdConfig(learning_rate=0.0, weight_decay=0.0, momentum=0.5)
    sgd_step(params, grads, cfg, vel)
    assert vel[0][0] == pytest.approx(0.5)
    assert vel[0][1] == pytest.approx(0.25)


def test_sgd_weight_decay_hand_value():
    layer = Layer(np.array([[1.0]]), np.array([0.0]), "identity")
    params = NetworkParams([layer])
    grads = [(np.zeros((1, 1)), np.zeros(1))]
    cfg = SgdConfig(learning_rate=1e-4, weight_decay=5e-4, momentum=0.0)
    sgd_step(params, grads, cfg, zero_velocity(params))
    assert layer.weights[0, 0] == 0.99999995


def test_sgd_lr_zero_is_identity():
    rng = np.random.default_rng(7)
    params = random_net(rng, [3, 2], ["scaled_sigmoid"])
    before = [(l.weights.copy(), l.bias.copy()) for l in params.layers]
    grads = [(rng.standard_normal((2, 3)), rng.standard_normal(2))]
    sgd_step(params, grads, SgdConfig(learning_rate=0.0, weight_decay=5e-4, momentum=0.9), zero_velocity(params))
    for layer, (w, b) in zip(params.layers, before):
        assert np.array_equal(layer.weights, w)
        assert np.array_equal(layer.bias, b)


def test_init_head_layers_shapes_and_seeding():
    spec = head_spec_for(16)
    l1 = init_head_layers(800, spec, np.random.default_rng(0))
    l2 = init_head_layers(800, spec, np.random.default_rng(0))
    assert [l.weights.shape for l in l1] == [(90, 800), (30, 90), (16, 30)]
    assert [l.activation for l in l1] == ["sigmoid", "sigmoid", "scaled_sigmoid"]
    for a, b in zip(l1, l2):
        assert np.array_equal(a.weights, b.weights)
        assert np.all(a.bias == 0.0)
    bound = np.sqrt(6.0 / (800 + 90))
    assert np.max(np.abs(l1[0].weights)) <= bound


def test_network_params_validates_chaining():
    with pytest.raises(InvalidInput):
        NetworkParams([identity_layer(3), Layer(np.zeros((2, 4)), np.zeros(2), "sigmoid")])
    with pytest.raises(InvalidInput):
        NetworkParams([])


def test_layer_validation():
    with pytest.raises(InvalidInput):
        Layer(np.zeros((2, 3)), np.zeros(3), "identity")
    with pytest.raises(InvalidInput):
        Layer(np.zeros((2, 3)), np.zeros(2), "relu")


def test_sgd_config_validation():
    with pytest.raises(InvalidInput):
        SgdConfig(learning_rate=-1.0)
    with pytest.raises(InvalidInput):
        SgdConfig(momentum=1.0)
    with pytest.raises(InvalidInput):
        SgdConfig(weight_decay=-0.1)
    SgdConfig(learning_rate=0.0)  # zero step allowed for frozen-network runs
