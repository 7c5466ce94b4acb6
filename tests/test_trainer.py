import numpy as np
import pytest

from hashnet import trainer
from hashnet.errors import DivergenceError, InvalidInput
from hashnet.hashloss import Hyperparams
from hashnet.index import binarize
from hashnet.network import (
    Layer,
    NetworkParams,
    SgdConfig,
    _head_widths,
    forward,
    init_head_layers,
)
from hashnet.pretrain import init_binary_codes, pca_fit
from hashnet.trainer import (
    LabeledFeatures,
    TrainSchedule,
    _batches,
    _forward_blocks,
    _network_on,
    default_schedule,
    quantization_gap,
    train,
    update_codes,
)


def two_cluster_data(seed=0, n=500, d=16):
    rng = np.random.default_rng(seed)
    half = n // 2
    center = np.zeros(d)
    center[0] = 3.0
    feats = np.vstack(
        [
            center + rng.standard_normal((half, d)),
            -center + rng.standard_normal((n - half, d)),
        ]
    )
    labels = np.array([0] * half + [1] * (n - half))
    return LabeledFeatures(feats, labels)


def start_network(features, seed):
    """The 8-bit network `train` starts from on 16-d features, at any
    dr_dim of 16 or more."""
    return _network_on(pca_fit(features, 16), 8, np.random.default_rng(seed))


def test_default_schedule_large_corpus():
    sched = default_schedule(50000, 256)
    assert sched.outer == 5
    assert sched.inner == 782
    assert sched.batch == 256


def test_default_schedule_exact_multiple():
    assert default_schedule(256, 256).inner == 4


def test_default_schedule_ceiling():
    assert default_schedule(1000, 256).inner == 16


def test_default_schedule_rejects_batch_larger_than_n():
    with pytest.raises(InvalidInput):
        default_schedule(100, 256)


def test_schedule_rejects_zero_counts():
    with pytest.raises(InvalidInput):
        TrainSchedule(outer=0, inner=1, batch=1)
    with pytest.raises(InvalidInput):
        TrainSchedule(outer=1, inner=0, batch=1)
    with pytest.raises(InvalidInput):
        TrainSchedule(outer=1, inner=1, batch=0)


@pytest.mark.parametrize(
    "name, value",
    [("outer", 1.5), ("inner", 2.5), ("batch", 16.0), ("seed", 0.5),
     ("outer", True), ("batch", "16"), ("seed", -1), ("seed", None)],
)
def test_schedule_rejects_non_integer_sizes_and_bad_seeds(name, value):
    sizes = {"outer": 1, "inner": 1, "batch": 16, "seed": 0, name: value}
    with pytest.raises(InvalidInput):
        TrainSchedule(**sizes)


def test_schedule_takes_numpy_integers():
    sched = TrainSchedule(outer=np.int64(2), inner=np.int32(3), batch=np.int64(4), seed=np.uint8(5))
    assert (sched.outer, sched.inner, sched.batch, sched.seed) == (2, 3, 4, 5)


def test_batch_stream_exhausts_every_sample_each_pass():
    n, m = 103, 10
    batches = _batches(n, m, np.random.default_rng(0))
    per_pass = -(-n // m)
    orders = []
    for _ in range(3):  # three consecutive passes
        seen = np.concatenate([next(batches) for _ in range(per_pass)])
        assert sorted(seen.tolist()) == list(range(n))
        orders.append(seen)
    # each pass is a fresh permutation from the same generator
    want = np.random.default_rng(0)
    for seen in orders:
        assert np.array_equal(seen, want.permutation(n))


def test_batch_stream_short_final_chunk():
    rng = np.random.default_rng(1)
    batches = _batches(25, 10, rng)
    assert [next(batches).size for _ in range(4)] == [10, 10, 5, 10]


def test_train_loss_decreases_at_default_settings():
    data = two_cluster_data()
    sched = default_schedule(data.n, 256, seed=1)
    state = train(data, 8, Hyperparams(), sched, SgdConfig())
    first = np.mean([r.total for r in state.history if r.outer == 1])
    last = np.mean([r.total for r in state.history if r.outer == sched.outer])
    assert last < first
    assert len(state.history) == sched.outer * sched.inner
    assert np.all(np.abs(state.codes) == 1.0)


def test_train_reaches_small_quantization_gap():
    # 2-cluster task: outputs should nearly saturate at the binary codes.
    data = two_cluster_data()
    sched = default_schedule(data.n, 256, seed=1)
    state = train(
        data,
        8,
        Hyperparams(alpha=0.1),
        sched,
        SgdConfig(learning_rate=60.0, weight_decay=0.0),
    )
    assert quantization_gap(state.params, data.features, state.codes) < 0.05


def test_train_frozen_network():
    # lr = 0: parameters stay at their initialization and the codes are the
    # sign of the initial network output.
    data = two_cluster_data(n=64)
    sched = TrainSchedule(outer=1, inner=1, batch=32, seed=9)
    state = train(data, 8, Hyperparams(), sched, SgdConfig(learning_rate=0.0))
    # The default dr_dim, 800, keeps all 16 feature dimensions.
    expected = _network_on(pca_fit(data.features, 16), 8, np.random.default_rng(9))
    for got, want in zip(state.params.layers, expected.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)
    outputs, _ = forward(expected, data.features.T)
    assert np.array_equal(state.codes, binarize(outputs))


def test_train_codes_constant_across_outer_rounds_with_lr_zero():
    data = two_cluster_data(n=64)
    one = train(
        data, 8, Hyperparams(), TrainSchedule(outer=1, inner=2, batch=32, seed=3), SgdConfig(learning_rate=0.0)
    )
    three = train(
        data, 8, Hyperparams(), TrainSchedule(outer=3, inner=2, batch=32, seed=3), SgdConfig(learning_rate=0.0)
    )
    assert np.array_equal(one.codes, three.codes)


def test_train_deterministic_for_fixed_seed():
    data = two_cluster_data(n=128)
    sched = TrainSchedule(outer=2, inner=4, batch=32, seed=11)
    a = train(data, 8, Hyperparams(), sched, SgdConfig())
    b = train(data, 8, Hyperparams(), sched, SgdConfig())
    assert a.codes.tobytes() == b.codes.tobytes()
    assert a.history == b.history
    for la, lb in zip(a.params.layers, b.params.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


def test_train_rejects_single_class():
    rng = np.random.default_rng(2)
    data = LabeledFeatures(rng.standard_normal((32, 4)), np.zeros(32, dtype=int))
    with pytest.raises(InvalidInput):
        train(data, 4, Hyperparams(), TrainSchedule(outer=1, inner=1, batch=16), SgdConfig())


def test_train_rejects_batch_larger_than_n():
    data = two_cluster_data(n=64)
    with pytest.raises(InvalidInput):
        train(data, 4, Hyperparams(), TrainSchedule(outer=1, inner=1, batch=128), SgdConfig())


def test_train_divergence_guard_reports_position():
    data = two_cluster_data(n=64)
    sched = TrainSchedule(outer=2, inner=4, batch=32, seed=1)
    crazy = SgdConfig(learning_rate=1e160, weight_decay=0.9, momentum=0.9)
    with pytest.raises(DivergenceError) as exc:
        train(data, 8, Hyperparams(), sched, crazy)
    assert exc.value.outer >= 1
    assert exc.value.inner >= 1


def test_train_overflow_is_a_divergence_not_a_warning():
    # The weights pass the float32 range after the last step, so only the
    # code refresh that follows it overflows.
    data = two_cluster_data(n=64, d=8)
    crazy = SgdConfig(learning_rate=1e8, weight_decay=0.9)
    with pytest.raises(DivergenceError, match="overflow") as exc:
        train(data, 8, Hyperparams(), TrainSchedule(1, 5, 32, 0), crazy)
    assert (exc.value.outer, exc.value.inner) == (1, 5)


def test_divergence_reference_is_the_first_positive_loss(monkeypatch):
    import hashnet.trainer

    real = hashnet.trainer.loss_terms_and_grad
    totals = iter([0.0, 1.0, 1e7])

    def scripted(*args):
        _, grad = real(*args)
        return (next(totals), 0.0, 0.0, 0.0), grad

    monkeypatch.setattr(hashnet.trainer, "loss_terms_and_grad", scripted)
    sched = TrainSchedule(outer=1, inner=5, batch=16, seed=1)
    with pytest.raises(DivergenceError) as exc:
        train(two_cluster_data(n=64), 8, Hyperparams(), sched, SgdConfig())
    assert (exc.value.outer, exc.value.inner) == (1, 3)


def test_update_codes_zero_network_all_positive():
    from hashnet.network import Layer, NetworkParams

    params = NetworkParams([Layer(np.zeros((4, 6)), np.zeros(4), "scaled_sigmoid")])
    codes = update_codes(params, np.random.default_rng(0).standard_normal((10, 6)), 3)
    assert np.all(codes == 1.0)


def test_update_codes_blocking_invisible():
    data = two_cluster_data(n=50)
    params = start_network(data.features, 4)
    whole = update_codes(params, data.features, 50)
    blocked = update_codes(params, data.features, 7)
    assert np.array_equal(whole, blocked)


def test_update_codes_matches_per_sample_oracle():
    data = two_cluster_data(n=60)
    params = start_network(data.features, 5)
    codes = update_codes(params, data.features, 16)
    rng = np.random.default_rng(6)
    for i in rng.integers(0, 60, size=50):
        out, _ = forward(params, data.features[[i]].T)
        assert np.array_equal(codes[:, [i]], binarize(out))


def test_update_codes_encodes_through_the_float32_network():
    # In float64 the output is tanh(-2**-31) < 0, code -1.  The float32 copy
    # rounds the first weight to 1, so its output is exactly 0, code +1.
    weights = np.array([[1 - 2.0**-30, -1.0]])
    params = NetworkParams([Layer(weights.copy(), np.zeros(1), "scaled_sigmoid")])
    x = np.ones((1, 2))
    assert forward(params, x.T)[0][0, 0] < 0
    want = binarize(forward(trainer._float32_copy(params), x.T)[0])
    assert want.tolist() == [[1.0]]
    for features in (x, x.astype(np.float32)):
        assert update_codes(params, features, 1).tolist() == want.tolist()
    assert params.layers[0].weights.dtype == np.float64
    assert params.layers[0].weights.tobytes() == weights.tobytes()


def test_train_refreshes_codes_in_encode_blocks_at_any_batch(monkeypatch):
    blocks = []
    real = trainer._forward_blocks

    def spy(params, features, batch):
        blocks.append(batch)
        return real(params, features, batch)

    monkeypatch.setattr(trainer, "_forward_blocks", spy)
    data = two_cluster_data(n=300)
    sched = TrainSchedule(outer=2, inner=2, batch=16, seed=1)
    state = train(data, 8, Hyperparams(), sched, SgdConfig())
    assert blocks == [256, 256]
    assert np.array_equal(update_codes(state.params, data.features), state.codes)


def test_update_codes_rejects_dim_mismatch():
    data = two_cluster_data(n=50)
    params = start_network(data.features, 7)
    with pytest.raises(InvalidInput):
        update_codes(params, np.zeros((5, 3)), 4)


def test_update_codes_rejects_bad_block_sizes():
    data = two_cluster_data(n=50)
    params = start_network(data.features, 7)
    for bad in (0, 1.5, True, "16"):
        with pytest.raises(InvalidInput):
            update_codes(params, data.features, bad)
    want = update_codes(params, data.features, 16)
    assert np.array_equal(update_codes(params, data.features, np.int64(16)), want)
    gap = quantization_gap(params, data.features, want)
    assert quantization_gap(params, data.features, want.tolist()) == gap


def test_quantization_gap_rejects_zero_samples():
    params = start_network(two_cluster_data(n=50).features, 7)
    with pytest.raises(InvalidInput):
        quantization_gap(params, np.zeros((0, 16)), np.zeros((8, 0)))


@pytest.mark.parametrize("shape", [(8, 49), (49, 8), (8,)])
def test_quantization_gap_rejects_codes_of_the_wrong_shape(shape):
    features = two_cluster_data(n=50).features
    params = start_network(features, 7)
    with pytest.raises(InvalidInput, match=r"does not match \(8, 50\)"):
        quantization_gap(params, features, np.ones(shape))


def blockwise_forward(params, features, batch):
    """Oracle: `forward` of the network, block by block."""
    return np.hstack(
        [forward(params, features[s : s + batch].T)[0] for s in range(0, len(features), batch)]
    )


def block_outputs(params, features, batch):
    return np.hstack([block for _, block in _forward_blocks(params, features, batch)])


def same_layers(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def gap_oracle(params, features, codes):
    """Mean in float64 of (outputs - codes)^2, the outputs from `forward`
    of the float32 copy of the network in 256-sample blocks."""
    outputs = blockwise_forward(trainer._float32_copy(params), features, 256)
    assert outputs.dtype == np.float32
    resid = outputs.astype(np.float64) - codes
    return float(np.mean(resid * resid))


@pytest.mark.parametrize("n", [1, 255, 256, 700])
def test_quantization_gap_matches_float32_oracle(n):
    data = two_cluster_data(n=700)
    features = data.features[:n]
    params = start_network(data.features, 8)
    for codes in (update_codes(params, features),
                  binarize(np.random.default_rng(n).standard_normal((8, n)))):
        got = quantization_gap(params, features, codes)
        want = gap_oracle(params, features, codes)
        assert abs(got - want) <= 1e-12 * want


def test_quantization_gap_measures_the_outputs_the_codes_are_signs_of():
    # The network of test_update_codes_encodes_through_the_float32_network:
    # its float32 output is exactly 0 (code +1), its float64 output -4.7e-10.
    weights = np.array([[1 - 2.0**-30, -1.0]])
    params = NetworkParams([Layer(weights, np.zeros(1), "scaled_sigmoid")])
    x = np.ones((1, 2))
    codes = update_codes(params, x)
    assert codes.tolist() == [[1.0]]
    assert quantization_gap(params, x, codes) == 1.0


def test_folded_initial_network_matches_unfolded_pca_layer_and_head():
    data = two_cluster_data(n=500, d=64)
    pca = pca_fit(data.features, 64)
    folded = _network_on(pca, 32, np.random.default_rng(3))
    head = init_head_layers(64, 32, np.random.default_rng(3))
    unfolded = NetworkParams([pca.dr_layer()] + head)
    assert [l.activation for l in folded.layers] == ["sigmoid", "sigmoid", "scaled_sigmoid"]
    for got_layer, want_layer in zip(folded.layers[1:], head[1:]):
        assert np.array_equal(got_layer.weights, want_layer.weights)
    got = blockwise_forward(folded, data.features, 64)
    want = blockwise_forward(unfolded, data.features, 64)
    assert got.dtype == want.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-12


def test_unfolded_identity_layer_update_codes_matches_per_sample_oracle():
    # A hand-built identity layer, as a model file written before the fold
    # at init holds: it is encoded as stored, unfolded.
    data = two_cluster_data(n=400)
    pca = pca_fit(data.features, 16)
    head = init_head_layers(16, 8, np.random.default_rng(5))
    params = NetworkParams([pca.dr_layer()] + head)
    codes = update_codes(params, data.features, 16)
    for i in range(400):
        out, _ = forward(params, data.features[[i]].T)
        assert np.array_equal(codes[:, [i]], binarize(out))
    x = data.features
    want = blockwise_forward(trainer._float32_copy(params), x, 16)
    assert np.array_equal(block_outputs(params, x, 16), want)


def test_encoding_leaves_params_bitwise_unchanged():
    data = two_cluster_data(n=400)
    params = start_network(data.features, 5)
    before = [(l.weights.copy(), l.bias.copy(), l.activation) for l in params.layers]
    layers = list(params.layers)
    codes = update_codes(params, data.features, 64)
    quantization_gap(params, data.features, codes)
    assert same_layers(params.layers, layers)
    for layer, (w, b, act) in zip(params.layers, before):
        assert np.array_equal(layer.weights, w) and np.array_equal(layer.bias, b)
        assert layer.activation == act


def test_codes_do_not_depend_on_the_number_of_samples():
    data = two_cluster_data(n=400)
    params = start_network(data.features, 5)
    whole = update_codes(params, data.features, 256)
    for k in (1, 7, 50):
        assert np.array_equal(update_codes(params, data.features[:k], 256), whole[:, :k])


# (d, dr_dim, bits): 100 of 512 at 32 bits is a reduction that folding would
# still make cheaper, b.out·d < dr_dim·(d + b.out), but it bounds the rank of
# the first hidden pre-activation, so it stays a layer of its own.
@pytest.mark.parametrize("d, dr_dim, bits", [(16, 4, 8), (512, 100, 32)])
def test_narrowing_reduction_layer_is_not_folded(d, dr_dim, bits):
    data = two_cluster_data(n=200, d=d)
    pca = pca_fit(data.features, dr_dim)
    params = _network_on(pca, bits, np.random.default_rng(1))
    head = init_head_layers(dr_dim, bits, np.random.default_rng(1))
    assert [l.activation for l in params.layers] == [
        "identity", "sigmoid", "sigmoid", "scaled_sigmoid"
    ]
    assert params.layers[0].weights.tobytes() == pca.dr_layer().weights.tobytes()
    for got, want in zip(params.layers[1:], head):
        assert got.weights.tobytes() == want.weights.tobytes()
    sched = TrainSchedule(outer=1, inner=1, batch=32, seed=2)
    state = train(data, bits, Hyperparams(), sched, SgdConfig(), dr_dim=dr_dim)
    h1, h2 = _head_widths(bits)
    assert [l.weights.shape for l in state.params.layers] == [
        (dr_dim, d), (h1, dr_dim), (h2, h1), (bits, h2)
    ]
    assert state.params.layers[0].activation == "identity"


def test_train_on_512_dims_saves_three_layers_and_no_identity_layer():
    rng = np.random.default_rng(4)
    centres = 2.0 * rng.standard_normal((4, 512))
    labels = np.arange(600) % 4
    feats = (centres[labels] + rng.standard_normal((600, 512))).astype(np.float32)
    sched = TrainSchedule(outer=2, inner=3, batch=64, seed=6)
    state = train(LabeledFeatures(feats, labels), 32, Hyperparams(), sched, SgdConfig())
    assert [l.activation for l in state.params.layers] == [
        "sigmoid", "sigmoid", "scaled_sigmoid"
    ]
    assert [l.weights.shape for l in state.params.layers] == [(120, 512), (50, 120), (32, 50)]


def test_labeled_features_validation():
    with pytest.raises(InvalidInput, match="^3 labels for 4 samples$"):
        LabeledFeatures(np.zeros((4, 2)), np.zeros(3, dtype=int))
    with pytest.raises(InvalidInput, match="labels must be a non-empty 1-d sequence"):
        LabeledFeatures(np.zeros((4, 2)), np.zeros((4, 1), dtype=int))
    with pytest.raises(InvalidInput):
        LabeledFeatures(np.full((4, 2), np.nan), np.zeros(4, dtype=int))
    with pytest.raises(InvalidInput, match=r"features must be 2-d, got shape \(4,\)"):
        LabeledFeatures(np.zeros(4), np.zeros(4, dtype=int))


def test_train_computes_in_float32_against_float64_master_weights(monkeypatch):
    seen = {"forward": [], "backward": [], "loss": [], "sgd": [], "refresh": [],
            "refresh_forward": [], "master": []}
    real = {name: getattr(trainer, name) for name in
            ("forward", "backward", "loss_terms_and_grad", "sgd_step", "update_codes")}
    refreshing, batch_x = [], []

    def forward32(net, x):
        out, tape = real["forward"](net, x)
        key = "refresh_forward" if refreshing else "forward"
        batch_x.append(x)
        seen[key] += [x.dtype, tape.inputs.dtype] + [a.dtype for a in tape.out]
        seen[key] += [a.dtype for l in net.layers for a in (l.weights, l.bias)]
        return out, tape

    def backward32(net, tape, grad):
        grads = real["backward"](net, tape, grad)
        seen["backward"] += [g.dtype for pair in grads for g in pair]
        return grads

    def loss32(outputs, codes, labels, hp):
        terms, grad = real["loss_terms_and_grad"](outputs, codes, labels, hp)
        seen["loss"] += [outputs.dtype, codes.dtype, grad.dtype]
        assert set(np.unique(codes)) <= {-1, 1}
        # the labels of the batch's samples, one per column
        assert labels.tolist() == [label_of[col.tobytes()] for col in batch_x[-1].T]
        return terms, grad

    def sgd64(params, grads, cfg, velocity):
        seen["sgd"] += [l.weights.dtype for l in params.layers]
        seen["sgd"] += [v.dtype for pair in velocity for v in pair]
        return real["sgd_step"](params, grads, cfg, velocity)

    def refresh32(net, features, *block):
        seen["refresh"].append(features.dtype)
        seen["master"] += [a.dtype for l in net.layers for a in (l.weights, l.bias)]
        refreshing.append(True)
        try:
            return real["update_codes"](net, features, *block)
        finally:
            refreshing.pop()

    for name, fake in (("forward", forward32), ("backward", backward32),
                       ("loss_terms_and_grad", loss32), ("sgd_step", sgd64),
                       ("update_codes", refresh32)):
        monkeypatch.setattr(trainer, name, fake)
    data = two_cluster_data(n=128)
    label_of = dict(zip((x.tobytes() for x in data.features.astype(np.float32)), data.labels))
    assert len(label_of) == data.n
    state = train(data, 8, Hyperparams(alpha=np.float64(0.3)),
                  TrainSchedule(outer=2, inner=3, batch=32, seed=4), SgdConfig())
    for key in ("forward", "backward", "loss", "refresh", "refresh_forward"):
        assert seen[key] and set(seen[key]) == {np.dtype(np.float32)}, key
    for key in ("sgd", "master"):
        assert seen[key] and set(seen[key]) == {np.dtype(np.float64)}, key
    assert all(l.weights.dtype == l.bias.dtype == np.float64 for l in state.params.layers)
    assert state.codes.dtype == np.float64 and np.all(np.abs(state.codes) == 1.0)
    assert all(type(r.total) is float for r in state.history)


def test_train_fits_one_pca_for_the_network_and_itq(monkeypatch):
    fits, starts = [], []
    real_pretrain, real_itq = trainer._pretrain, trainer.itq

    def counting_pretrain(features, p, bits):
        fits.append(p)
        return real_pretrain(features, p, bits)

    def recording_itq(projected, iters, seed):
        starts.append((seed, real_itq(projected, iters=iters, seed=seed)))
        return starts[-1][1]

    monkeypatch.setattr(trainer, "_pretrain", counting_pretrain)
    monkeypatch.setattr(trainer, "itq", recording_itq)
    data = two_cluster_data(n=64)
    for dr_dim, fit in ((6, 6), (12, 12), (800, 16)):  # fit min(dr_dim, d)
        fits.clear()
        sched = TrainSchedule(outer=1, inner=1, batch=32, seed=9)
        state = train(data, 8, Hyperparams(), sched, SgdConfig(learning_rate=0.0), dr_dim=dr_dim)
        assert fits == [fit]
        reduction = pca_fit(data.features, min(dr_dim, 16)).dr_layer()
        if dr_dim == 800:  # a full-rank rotation, folded into the first head layer
            first = init_head_layers(16, 8, np.random.default_rng(9))[0]
            reduction = Layer(
                first.weights @ reduction.weights,
                first.weights @ reduction.bias + first.bias,
                first.activation,
            )
        assert state.params.layers[0].activation == reduction.activation
        assert state.params.layers[0].weights.tobytes() == reduction.weights.tobytes()
        assert state.params.layers[0].bias.tobytes() == reduction.bias.tobytes()
        seed, start = starts[-1]
        want = init_binary_codes(data.features, 8, seed)
        assert start.codes.tobytes() == want.codes.tobytes()
        assert start.rotation.tobytes() == want.rotation.tobytes()
        assert start.objective_trace.tobytes() == want.objective_trace.tobytes()


@pytest.mark.parametrize("n, d, bits", [(2, 1, 1), (7, 3, 2), (33, 5, 4), (64, 16, 8)])
def test_train_on_float32_features_gives_the_bytes_of_their_float64_widening(n, d, bits):
    rng = np.random.default_rng(n + d)
    x32 = (rng.standard_normal((n, d)) + 2.0).astype(np.float32)
    labels = np.arange(n) % 2
    sched = TrainSchedule(outer=2, inner=3, batch=min(n, 16), seed=n)
    sgd = SgdConfig(learning_rate=0.5)
    got = train(LabeledFeatures(x32, labels), bits, Hyperparams(), sched, sgd)
    want = train(LabeledFeatures(x32.astype(np.float64), labels), bits, Hyperparams(), sched, sgd)
    for a, b in zip(got.params.layers, want.params.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.history == want.history


@pytest.mark.parametrize("labels", [[0, 1, -1, 1] * 8, [0.0, 1.0] * 16, ["a", "b"] * 16])
def test_train_rejects_labels_that_are_not_non_negative_integers(labels):
    # LabeledFeatures is the one check of training labels, before train
    with pytest.raises(InvalidInput, match="labels must be non-negative integers"):
        LabeledFeatures(np.random.default_rng(3).standard_normal((32, 4)), np.array(labels))
