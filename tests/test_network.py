import numpy as np
import pytest

from hashnet.errors import InvalidInput
from hashnet.hashloss import Hyperparams, loss_grad, loss_terms
from hashnet.network import (
    Layer,
    NetworkParams,
    SgdConfig,
    _head_widths,
    backward,
    forward,
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


def composed_loss(params, X, B, labels, hp):
    F, _ = forward(params, X)
    return sum(loss_terms(F, B, labels, hp))


def fd_param_grads(params, X, B, labels, hp, step=1e-5):
    """Central finite differences through forward + loss for every weight and bias."""
    out = []
    for layer in params.layers:
        dw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            hi = composed_loss(params, X, B, labels, hp)
            layer.weights[idx] = orig - step
            lo = composed_loss(params, X, B, labels, hp)
            layer.weights[idx] = orig
            dw[idx] = (hi - lo) / (2 * step)
        db = np.zeros_like(layer.bias)
        for i in range(layer.bias.size):
            orig = layer.bias[i]
            layer.bias[i] = orig + step
            hi = composed_loss(params, X, B, labels, hp)
            layer.bias[i] = orig - step
            lo = composed_loss(params, X, B, labels, hp)
            layer.bias[i] = orig
            db[i] = (hi - lo) / (2 * step)
        out.append((dw, db))
    return out


def test_head_width_table_rows():
    assert _head_widths(8) == (90, 20)
    assert _head_widths(16) == (90, 30)
    assert _head_widths(24) == (100, 40)
    assert _head_widths(32) == (120, 50)
    assert _head_widths(48) == (140, 80)


def test_head_widths_extend_to_untabulated_lengths():
    assert _head_widths(12) == (90, 20)
    assert _head_widths(64) == (168, 103)
    # The extension itself grows monotonically with the code length.
    untabulated = [_head_widths(L) for L in range(49, 128)]
    assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(untabulated, untabulated[1:]))
    assert all(h1 > 0 and h2 > 0 for h1, h2 in (_head_widths(L) for L in range(1, 49)))


@pytest.mark.parametrize("bits", [1, 8, 12, 16, 24, 32, 48, 64])
def test_init_head_layers_takes_its_widths_from_the_code_length(bits):
    h1, h2 = _head_widths(bits)
    assert all(type(h) is int and h >= 1 for h in (h1, h2))
    layers = init_head_layers(20, bits, np.random.default_rng(bits))
    assert [l.weights.shape for l in NetworkParams(layers).layers] == [
        (h1, 20), (h2, h1), (bits, h2)
    ]


def test_init_head_layers_rejects_zero_bits():
    with pytest.raises(InvalidInput):
        init_head_layers(8, 0, np.random.default_rng(0))


@pytest.mark.parametrize("bad", ["16", None, [8]])
def test_init_head_layers_rejects_non_number_bits(bad):
    with pytest.raises(InvalidInput, match="code length"):
        init_head_layers(8, bad, np.random.default_rng(0))


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
    labels = rng.integers(0, 2, size=5)
    hp = Hyperparams(0.5, 0.8, 0.3, 0.2)
    F, tape = forward(params, X)
    grads = backward(params, tape, loss_grad(F, B, labels, hp))
    expected = fd_param_grads(params, X, B, labels, hp)
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
    labels = rng.integers(0, 3, size=m)
    hp = Hyperparams(*rng.uniform(0, 1, size=4))
    F, tape = forward(params, X)
    grads = backward(params, tape, loss_grad(F, B, labels, hp))
    expected = fd_param_grads(params, X, B, labels, hp)
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
    l1 = init_head_layers(800, 16, np.random.default_rng(0))
    l2 = init_head_layers(800, 16, np.random.default_rng(0))
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


@pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sgd_config_rejects_non_finite_rates(field, bad):
    with pytest.raises(InvalidInput, match="finite"):
        SgdConfig(**{field: bad})
    SgdConfig(**{field: 1e300})  # every finite non-negative value stays accepted


# Tolerances of the float32 path against float64, fixed from float32's unit
# roundoff (6e-8) with headroom for the sums and layers in between: outputs
# within 1e-5 and weight and bias gradients within 1e-4 of the largest
# float64 entry.
FORWARD_RTOL = 1e-5
BACKWARD_RTOL = 1e-4
ACTS = ["identity", "sigmoid", "scaled_sigmoid"]


def as_float32(params):
    return NetworkParams(
        [
            Layer(l.weights.astype(np.float32), l.bias.astype(np.float32), l.activation)
            for l in params.layers
        ]
    )


def reference_forward(params, X):
    """The out-of-place forward pass in the layers' dtype: the oracle for
    the in-place one, and for float64 the pass from before float32."""
    a = np.asarray(X, dtype=params.layers[0].weights.dtype)
    outs = []
    for layer in params.layers:
        z = layer.weights @ a + layer.bias[:, None]
        if layer.activation != "identity":
            t = np.tanh(z / 2.0)
            z = 0.5 * (1.0 + t) if layer.activation == "sigmoid" else t
        a = z
        outs.append(a)
    return outs


def reference_backward(params, X, outs, dF):
    """The float64-only backward pass that the dtype-generic one replaced,
    multiplying by an all-ones derivative for identity layers."""

    def act_grad(tag, out):
        if tag == "identity":
            return np.ones_like(out)
        if tag == "sigmoid":
            return out * (1.0 - out)
        return (1.0 - out * out) / 2.0

    grads = [None] * len(params.layers)
    delta = np.asarray(dF, dtype=np.float64) * act_grad(params.layers[-1].activation, outs[-1])
    for i in range(len(params.layers) - 1, -1, -1):
        below = outs[i - 1] if i > 0 else X
        grads[i] = (delta @ below.T, delta.sum(axis=1))
        if i > 0:
            delta = (params.layers[i].weights.T @ delta) * act_grad(
                params.layers[i - 1].activation, outs[i - 1]
            )
    return grads


def float_net_case(seed):
    rng = np.random.default_rng(seed)
    dims = [64, 32, 40, 20, 8]
    acts = ["identity", "sigmoid", "sigmoid", "scaled_sigmoid"]
    params = random_net(rng, dims, acts)
    X = rng.standard_normal((64, 50))
    B = np.where(rng.standard_normal((8, 50)) >= 0, 1.0, -1.0)
    labels = rng.integers(0, 3, size=50)
    # numpy float64 weights, which must not widen a float32 loss
    hp = Hyperparams(*rng.uniform(0.1, 1, size=4))
    return params, X, B, labels, hp


def test_layer_keeps_float32_and_widens_other_dtypes():
    f32 = Layer(np.ones((2, 3), dtype=np.float32), np.zeros(2), "sigmoid")
    assert f32.weights.dtype == np.float32 and f32.bias.dtype == np.float32
    for weights in (np.ones((2, 3), dtype=np.float16), np.ones((2, 3), dtype=int), [[1, 2, 3]] * 2):
        layer = Layer(weights, np.zeros(2, dtype=np.float32), "sigmoid")
        assert layer.weights.dtype == np.float64 and layer.bias.dtype == np.float64


def test_network_rejects_layers_of_mixed_dtypes():
    with pytest.raises(InvalidInput):
        NetworkParams(
            [
                Layer(np.eye(3, dtype=np.float32), np.zeros(3), "identity"),
                Layer(np.ones((2, 3)), np.zeros(2), "sigmoid"),
            ]
        )


@pytest.mark.parametrize("seed", range(5))
def test_float32_step_agrees_with_float64(seed):
    params, X, B, labels, hp = float_net_case(seed)
    F64, tape64 = forward(params, X)
    grads64 = backward(params, tape64, loss_grad(F64, B, labels, hp))
    net32 = as_float32(params)
    F32, tape32 = forward(net32, X.astype(np.float32))
    grads32 = backward(net32, tape32, loss_grad(F32, B, labels, hp))
    assert np.max(np.abs(F32 - F64)) <= FORWARD_RTOL * np.max(np.abs(F64))
    for (dw32, db32), (dw64, db64) in zip(grads32, grads64):
        assert np.max(np.abs(dw32 - dw64)) <= BACKWARD_RTOL * np.max(np.abs(dw64))
        assert np.max(np.abs(db32 - db64)) <= BACKWARD_RTOL * np.max(np.abs(db64))


def test_float32_step_never_upcasts():
    params, X, B, labels, hp = float_net_case(0)
    net32 = as_float32(params)
    F, tape = forward(net32, X)  # float64 input is cast to the layers' dtype
    grad = loss_grad(F, B, labels, hp)  # float64 codes
    grads = backward(net32, tape, grad.astype(np.float64))
    assert F.dtype == tape.inputs.dtype == grad.dtype == np.float32
    assert all(out.dtype == np.float32 for out in tape.out)
    assert all(dw.dtype == db.dtype == np.float32 for dw, db in grads)


@pytest.mark.parametrize("seed", range(10))
def test_float64_forward_and_backward_are_bitwise_unchanged(seed):
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 20)) for _ in range(n_layers + 1)]
    acts = [str(rng.choice(ACTS)) for _ in range(n_layers)]
    params = random_net(rng, dims, acts)
    X = rng.standard_normal((dims[0], int(rng.integers(1, 30))))
    F, tape = forward(params, X)
    dF = rng.standard_normal(F.shape)
    outs = reference_forward(params, X)
    assert F.dtype == np.float64
    assert all(a.tobytes() == b.tobytes() for a, b in zip(tape.out, outs))
    for (dw, db), (ew, eb) in zip(backward(params, tape, dF), reference_backward(params, X, outs, dF)):
        assert dw.dtype == db.dtype == np.float64
        assert dw.tobytes() == ew.tobytes() and db.tobytes() == eb.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(10))
def test_in_place_forward_is_bitwise_the_out_of_place_pass(seed, dtype):
    rng = np.random.default_rng(100 + seed)
    n_layers = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 40)) for _ in range(n_layers + 1)]
    acts = [str(rng.choice(ACTS)) for _ in range(n_layers)]
    params = random_net(rng, dims, acts)
    if dtype == np.float32:
        params = as_float32(params)
    X = 4.0 * rng.standard_normal((dims[0], int(rng.integers(1, 300))))  # saturates some units
    for x in (X, X.astype(np.float32)):
        F, tape = forward(params, x)
        outs = reference_forward(params, x)
        assert F.dtype == dtype and F is tape.out[-1]
        assert all(a.dtype == dtype and a.tobytes() == b.tobytes() for a, b in zip(tape.out, outs))


def test_sgd_step_applies_float32_gradients_in_float64():
    # lr * db must not round in float32 before it reaches float64 weights.
    rng = np.random.default_rng(8)
    params = random_net(rng, [5, 3], ["scaled_sigmoid"])
    twin = random_net(np.random.default_rng(8), [5, 3], ["scaled_sigmoid"])
    grads32 = [(rng.standard_normal((3, 5)).astype(np.float32), rng.standard_normal(3).astype(np.float32))]
    grads64 = [(dw.astype(np.float64), db.astype(np.float64)) for dw, db in grads32]
    cfg = SgdConfig(learning_rate=1e-4, weight_decay=0.0, momentum=0.9)
    sgd_step(params, grads32, cfg, zero_velocity(params))
    sgd_step(twin, grads64, cfg, zero_velocity(twin))
    for got, want in zip(params.layers, twin.layers):
        assert got.weights.dtype == got.bias.dtype == np.float64
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
    rounded = (1e-4 * grads32[0][1]).astype(np.float64)
    assert not np.array_equal(rounded, 1e-4 * grads64[0][1])  # the case tells them apart


@pytest.mark.parametrize(
    "case",
    ["too_few_gradients", "too_few_velocities", "gradient_shape", "velocity_shape",
     "tape_shapes", "1d_weights"],
)
def test_network_rejects_malformed_arguments(case):
    message = {
        "tape_shapes": "layer shapes differ",
        "1d_weights": r"weights must be 2-d, got shape \(3,\)",
    }.get(case, "gradient or velocity buffers do not match the network")
    rng = np.random.default_rng(7)
    params = random_net(rng, [3, 4, 2], ["sigmoid", "identity"])
    before = [(l.weights.copy(), l.bias.copy()) for l in params.layers]
    cfg = SgdConfig(learning_rate=0.1, weight_decay=0.0, momentum=0.5)
    grads = [(np.ones_like(l.weights), np.ones_like(l.bias)) for l in params.layers]
    velocity = zero_velocity(params)
    with pytest.raises(InvalidInput, match=message):
        if case == "too_few_gradients":
            sgd_step(params, grads[:1], cfg, velocity)
        elif case == "too_few_velocities":
            sgd_step(params, grads, cfg, velocity[:1])
        elif case == "gradient_shape":
            grads[1] = (np.ones((2, 3)), np.ones(2))
            sgd_step(params, grads, cfg, velocity)
        elif case == "velocity_shape":
            velocity[1] = (np.ones((2, 3)), np.ones(2))
            sgd_step(params, grads, cfg, velocity)
        elif case == "tape_shapes":
            other = random_net(rng, [3, 5, 2], ["sigmoid", "identity"])
            _, tape = forward(other, rng.standard_normal((3, 6)))
            backward(params, tape, np.zeros((2, 6)))
        else:
            Layer(np.ones(3), np.zeros(1), "identity")
    # A rejected step leaves every layer as it was, even past the first.
    for layer, (w, b) in zip(params.layers, before):
        assert np.array_equal(layer.weights, w) and np.array_equal(layer.bias, b)
