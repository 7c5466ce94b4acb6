import numpy as np
import pytest

from hashnet.errors import DivergenceError, InvalidInput
from hashnet.hashloss import Hyperparams
from hashnet.index import binarize
from hashnet.network import SgdConfig, forward
from hashnet.trainer import (
    LabeledFeatures,
    TrainSchedule,
    _batch_indices,
    default_schedule,
    init_network,
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


def test_batch_stream_exhausts_every_sample_each_pass():
    rng = np.random.default_rng(0)
    n, m = 103, 10
    order = rng.permutation(n)
    pos = 0
    per_pass = -(-n // m)
    for _ in range(3):  # three consecutive passes
        seen = []
        for _ in range(per_pass):
            order, pos, idx = _batch_indices(order, pos, m, rng)
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(n))


def test_batch_stream_short_final_chunk():
    rng = np.random.default_rng(1)
    order = rng.permutation(25)
    pos = 0
    sizes = []
    for _ in range(3):
        order, pos, idx = _batch_indices(order, pos, 10, rng)
        sizes.append(idx.size)
    assert sizes == [10, 10, 5]


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
    expected = init_network(data.features, 8, 800, np.random.default_rng(9))
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
    assert np.array_equal(a.codes, b.codes)
    assert [r.total for r in a.history] == [r.total for r in b.history]
    for la, lb in zip(a.params.layers, b.params.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


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
        with np.errstate(over="ignore", invalid="ignore"):
            train(data, 8, Hyperparams(), sched, crazy)
    assert exc.value.outer >= 1
    assert exc.value.inner >= 1


def test_update_codes_zero_network_all_positive():
    from hashnet.network import Layer, NetworkParams

    params = NetworkParams([Layer(np.zeros((4, 6)), np.zeros(4), "scaled_sigmoid")])
    codes = update_codes(params, np.random.default_rng(0).standard_normal((10, 6)), 3)
    assert np.all(codes == 1.0)


def test_update_codes_blocking_invisible():
    data = two_cluster_data(n=50)
    params = init_network(data.features, 8, 16, np.random.default_rng(4))
    whole = update_codes(params, data.features, 50)
    blocked = update_codes(params, data.features, 7)
    assert np.array_equal(whole, blocked)


def test_update_codes_matches_per_sample_oracle():
    data = two_cluster_data(n=60)
    params = init_network(data.features, 8, 16, np.random.default_rng(5))
    codes = update_codes(params, data.features, 16)
    rng = np.random.default_rng(6)
    for i in rng.integers(0, 60, size=50):
        out, _ = forward(params, data.features[[i]].T)
        assert np.array_equal(codes[:, [i]], binarize(out))


def test_update_codes_rejects_dim_mismatch():
    data = two_cluster_data(n=50)
    params = init_network(data.features, 8, 16, np.random.default_rng(7))
    with pytest.raises(InvalidInput):
        update_codes(params, np.zeros((5, 3)), 4)


def test_quantization_gap_rejects_zero_block_size():
    data = two_cluster_data(n=50)
    params = init_network(data.features, 8, 16, np.random.default_rng(7))
    codes = update_codes(params, data.features, 16)
    with pytest.raises(InvalidInput):
        quantization_gap(params, data.features, codes, batch=0)


def test_labeled_features_validation():
    with pytest.raises(InvalidInput):
        LabeledFeatures(np.zeros((4, 2)), np.zeros(3, dtype=int))
    with pytest.raises(InvalidInput):
        LabeledFeatures(np.full((4, 2), np.nan), np.zeros(4, dtype=int))
