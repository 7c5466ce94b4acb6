import numpy as np
import pytest

import hashnet.cli
import hashnet.index
import hashnet.pretrain
from hashnet.cli import main
from hashnet.errors import UndefinedMetric
from hashnet.formats import (
    load_model,
    read_codes,
    save_model,
    write_codes,
    write_features,
    write_labels,
)
from hashnet.index import mean_average_precision, pack, search, unpack
from hashnet.hashloss import Hyperparams
from hashnet.network import SgdConfig, forward
from hashnet.trainer import LabeledFeatures, TrainSchedule, train


def two_class_files(tmp_path, seed=0, n=300, d=8):
    rng = np.random.default_rng(seed)
    half = n // 2
    center = np.zeros(d)
    center[0] = 3.0
    feats = np.vstack(
        [
            center + rng.standard_normal((half, d)),
            -center + rng.standard_normal((n - half, d)),
        ]
    ).astype(np.float32).astype(np.float64)
    labels = np.array([0] * half + [1] * (n - half))
    fpath, lpath = tmp_path / "x.hsf", tmp_path / "y.hsl"
    write_features(fpath, feats)
    write_labels(lpath, labels)
    return fpath, lpath, feats, labels


def test_missing_feature_file_exits_2(tmp_path, capsys):
    code = main(["itq", str(tmp_path / "absent.hsf"), "-o", str(tmp_path / "o.hsb"), "--bits", "4"])
    assert code == 2
    assert "absent.hsf" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(3, 8), (20, 3)], ids=["few_samples", "few_dims"])
def test_itq_too_small_for_bits_exits_2(tmp_path, capsys, shape):
    fpath = tmp_path / "x.hsf"
    write_features(fpath, np.random.default_rng(0).standard_normal(shape))
    assert main(["itq", str(fpath), "-o", str(tmp_path / "o.hsb"), "--bits", "4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "itq"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    fpath, lpath, _, _ = two_class_files(tmp_path, n=40)
    inputs = {"train": [str(fpath), str(lpath), "--batch", "16"], "itq": [str(fpath)]}[command]
    out = tmp_path / "out"
    assert main([command, *inputs, "-o", str(out), "--bits", "4", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_itq_zero_bits_exits_2_with_a_code_length_message(tmp_path, capsys):
    fpath, _, _, _ = two_class_files(tmp_path, n=40)
    out = tmp_path / "o.hsb"
    assert main(["itq", str(fpath), "-o", str(out), "--bits", "0"]) == 2
    assert "code length must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--iters", "0")])
def test_itq_rejects_seed_and_iters_before_fitting_pca(tmp_path, monkeypatch, flag, value):
    fpath, _, _, _ = two_class_files(tmp_path, n=40)
    fits = []
    monkeypatch.setattr(hashnet.pretrain, "_pretrain", lambda *a: fits.append(a))
    assert main(["itq", str(fpath), "-o", str(tmp_path / "o.hsb"), "--bits", "4",
                 flag, value]) == 2
    assert fits == []


def test_write_into_missing_directory_names_the_target(tmp_path, capsys):
    fpath = tmp_path / "x.hsf"
    write_features(fpath, np.random.default_rng(0).standard_normal((40, 8)))
    assert main(["itq", str(fpath), "-o", str(tmp_path / "missing" / "o.hsb"), "--bits", "4"]) == 2
    err = capsys.readouterr().err
    assert "missing/o.hsb" in err and ".tmp" not in err


def test_train_is_byte_deterministic(tmp_path):
    fpath, lpath, _, _ = two_class_files(tmp_path)
    outs = []
    for name in ("m1.json", "m2.json"):
        model = tmp_path / name
        log = tmp_path / (name + ".log")
        code = main(
            [
                "train", str(fpath), str(lpath), "-o", str(model),
                "--bits", "8", "--batch", "64", "--outer", "2",
                "--seed", "7", "--log", str(log),
            ]
        )
        assert code == 0
        outs.append((model.read_bytes(), log.read_bytes()))
    assert outs[0] == outs[1]


def test_train_log_loss_decreases(tmp_path):
    fpath, lpath, _, _ = two_class_files(tmp_path)
    log = tmp_path / "train.log"
    code = main(
        [
            "train", str(fpath), str(lpath), "-o", str(tmp_path / "m.json"),
            "--bits", "8", "--batch", "64", "--seed", "1", "--log", str(log),
        ]
    )
    assert code == 0
    rows = [line.split() for line in log.read_text().splitlines()]
    assert all(len(r) == 7 for r in rows)
    outer = np.array([int(r[0]) for r in rows])
    total = np.array([float(r[2]) for r in rows])
    assert total[outer == outer.max()].mean() < total[outer == 1].mean()


@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
def test_non_finite_sgd_rate_exits_2(tmp_path, capsys, flag):
    fpath, lpath, _, _ = two_class_files(tmp_path, n=40)
    out = tmp_path / "m.json"
    assert main(["train", str(fpath), str(lpath), "-o", str(out), "--batch", "16", flag, "inf"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_exits_3_and_writes_nothing(tmp_path, capsys):
    fpath, lpath, _, _ = two_class_files(tmp_path, n=64, d=8)
    out, log = tmp_path / "m.json", tmp_path / "train.log"
    argv = ["train", str(fpath), str(lpath), "-o", str(out), "--log", str(log),
            "--bits", "8", "--batch", "32", "--lr", "1e8", "--weight-decay", "0.9"]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: loss diverged at outer ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.hsf", "y.hsl"]


def test_train_rejects_mismatched_labels(tmp_path, capsys):
    fpath, lpath, _, _ = two_class_files(tmp_path, n=40)
    write_labels(lpath, np.zeros(7, dtype=int))
    code = main(["train", str(fpath), str(lpath), "-o", str(tmp_path / "m.json"), "--batch", "8"])
    assert code == 2


def test_encode_matches_forward_and_is_deterministic(tmp_path):
    fpath, lpath, feats, _ = two_class_files(tmp_path, n=60)
    model = tmp_path / "m.json"
    assert main(
        ["train", str(fpath), str(lpath), "-o", str(model),
         "--bits", "8", "--batch", "16", "--outer", "1", "--seed", "3"]
    ) == 0
    out1, out2 = tmp_path / "c1.hsb", tmp_path / "c2.hsb"
    assert main(["encode", str(model), str(fpath), "-o", str(out1)]) == 0
    assert main(["encode", str(model), str(fpath), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    params, _ = load_model(model)
    outputs, _ = forward(params, feats.T)
    expected = np.where(outputs >= 0, 1.0, -1.0)
    assert np.array_equal(unpack(read_codes(out1)), expected)


def test_encode_of_the_training_features_gives_trains_final_codes(tmp_path):
    assert_encode_gives_trains_final_codes(tmp_path, d=24, bits=16)


def test_encode_of_512_dim_training_features_gives_trains_final_codes(tmp_path):
    # a full-rank reduction: the model holds the folded network
    assert_encode_gives_trains_final_codes(tmp_path, d=512, bits=32)


def assert_encode_gives_trains_final_codes(tmp_path, d, bits):
    fpath, _, feats, labels = two_class_files(tmp_path, seed=5, n=200, d=d)
    state = train(
        LabeledFeatures(feats, labels), bits, Hyperparams(),
        TrainSchedule(outer=2, inner=20, batch=32, seed=7), SgdConfig(learning_rate=0.5),
    )
    assert "identity" not in [layer.activation for layer in state.params.layers]
    model, out, want = tmp_path / "m.json", tmp_path / "c.hsb", tmp_path / "want.hsb"
    save_model(model, state.params, {})
    assert main(["encode", str(model), str(fpath), "-o", str(out)]) == 0
    write_codes(want, pack(state.codes))
    assert out.read_bytes() == want.read_bytes()


def test_encode_empty_features(tmp_path):
    fpath, lpath, _, _ = two_class_files(tmp_path, n=60)
    model = tmp_path / "m.json"
    assert main(
        ["train", str(fpath), str(lpath), "-o", str(model),
         "--bits", "8", "--batch", "16", "--outer", "1"]
    ) == 0
    empty = tmp_path / "empty.hsf"
    write_features(empty, np.zeros((0, 8)))
    out = tmp_path / "empty.hsb"
    assert main(["encode", str(model), str(empty), "-o", str(out)]) == 0
    got = read_codes(out)
    assert got.n == 0
    assert got.bits == 8


def test_encode_rejects_dim_mismatch(tmp_path):
    fpath, lpath, _, _ = two_class_files(tmp_path, n=60)
    model = tmp_path / "m.json"
    assert main(
        ["train", str(fpath), str(lpath), "-o", str(model),
         "--bits", "8", "--batch", "16", "--outer", "1"]
    ) == 0
    wrong = tmp_path / "wrong.hsf"
    write_features(wrong, np.zeros((4, 5)))
    assert main(["encode", str(model), str(wrong), "-o", str(tmp_path / "o.hsb")]) == 2


def distinct_codes(bits, n, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    cols = []
    while len(cols) < n:
        col = tuple(rng.choice([-1.0, 1.0], size=bits))
        if col not in seen:
            seen.add(col)
            cols.append(col)
    return np.array(cols).T


def test_search_self_retrieval(tmp_path, capsys):
    codes = distinct_codes(8, 10)
    db = tmp_path / "db.hsb"
    write_codes(db, pack(codes))
    assert main(["search", str(db), str(db), "-k", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{i} {i}:0" for i in range(10)]


def test_search_k_clamps_to_db_size(tmp_path, capsys):
    codes = distinct_codes(8, 4, seed=1)
    db = tmp_path / "db.hsb"
    write_codes(db, pack(codes))
    assert main(["search", str(db), str(db), "-k", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(len(line.split()) == 1 + 4 for line in lines)


def test_search_rejects_mixed_code_lengths(tmp_path, capsys):
    a, b = tmp_path / "a.hsb", tmp_path / "b.hsb"
    write_codes(a, pack(distinct_codes(8, 4)))
    write_codes(b, pack(distinct_codes(16, 4)))
    assert main(["search", str(a), str(b), "-k", "1"]) == 2


@pytest.mark.parametrize("queries", [0, 3])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_search_rejects_k_below_one_whatever_the_query_count(tmp_path, capsys, queries, k):
    db, q, out = tmp_path / "db.hsb", tmp_path / "q.hsb", tmp_path / "results.txt"
    write_codes(db, pack(distinct_codes(8, 4)))
    write_codes(q, pack(distinct_codes(8, 4)[:, :queries]))
    assert main(["search", str(db), str(q), "-k", k, "-o", str(out)]) == 2
    assert "k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_search_distances_match_recomputation(tmp_path):
    rng = np.random.default_rng(5)
    dbc = np.where(rng.standard_normal((16, 40)) >= 0, 1.0, -1.0)
    qc = np.where(rng.standard_normal((16, 6)) >= 0, 1.0, -1.0)
    db, queries = tmp_path / "db.hsb", tmp_path / "q.hsb"
    write_codes(db, pack(dbc))
    write_codes(queries, pack(qc))
    results = tmp_path / "results.txt"
    assert main(["search", str(db), str(queries), "-k", "40", "-o", str(results)]) == 0
    out = results.read_text().strip().splitlines()
    for qi, line in enumerate(out):
        head, *pairs = line.split()
        assert int(head) == qi
        for pair in pairs:
            j, dist = map(int, pair.split(":"))
            assert dist == int(np.sum(dbc[:, j] != qc[:, qi]))


def test_interrupted_search_keeps_the_old_output(tmp_path, monkeypatch):
    db, results = tmp_path / "db.hsb", tmp_path / "results.txt"
    write_codes(db, pack(distinct_codes(8, 5)))
    results.write_text("earlier results\n")
    calls = []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return search(*args)

    monkeypatch.setattr(hashnet.cli, "search", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["search", str(db), str(db), "-k", "2", "-o", str(results)])
    assert len(calls) == 2
    assert results.read_text() == "earlier results\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.hsb", "results.txt"]


def test_encode_exits_2_on_a_model_that_is_not_utf8(tmp_path, capsys):
    fpath, _, _, _ = two_class_files(tmp_path, n=20)
    model = tmp_path / "m.json"
    model.write_bytes(b"\xff\xfe{}")
    assert main(["encode", str(model), str(fpath), "-o", str(tmp_path / "o.hsb")]) == 2
    assert "m.json" in capsys.readouterr().err
    assert not (tmp_path / "o.hsb").exists()


def test_eval_perfect_codes_leave_one_out(tmp_path, capsys):
    codes = np.ones((8, 20))
    codes[:, 10:] = -1.0
    labels = np.array([0] * 10 + [1] * 10)
    db, lab = tmp_path / "db.hsb", tmp_path / "db.hsl"
    write_codes(db, pack(codes))
    write_labels(lab, labels)
    assert main(["eval", str(db), str(lab), str(db), str(lab), "--leave-one-out"]) == 0
    out = capsys.readouterr().out
    assert "mAP 1.000000" in out
    assert "bits 8" in out


def test_eval_known_average_precision(tmp_path, capsys):
    # One query, relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 0.833333.
    query = np.ones((8, 1))
    db_codes = np.ones((8, 5))
    for i in range(1, 5):
        db_codes[:i, i] = -1.0  # distance i from the query
    db, dlab = tmp_path / "db.hsb", tmp_path / "db.hsl"
    q, qlab = tmp_path / "q.hsb", tmp_path / "q.hsl"
    write_codes(db, pack(db_codes))
    write_labels(dlab, np.array([1, 0, 1, 0, 0]))
    write_codes(q, pack(query))
    write_labels(qlab, np.array([1]))
    assert main(["eval", str(db), str(dlab), str(q), str(qlab)]) == 0
    assert "mAP 0.833333" in capsys.readouterr().out


def test_eval_matches_independent_oracle(tmp_path, capsys):
    rng = np.random.default_rng(8)
    dbc = np.where(rng.standard_normal((16, 50)) >= 0, 1.0, -1.0)
    qc = np.where(rng.standard_normal((16, 10)) >= 0, 1.0, -1.0)
    db_labels = rng.integers(0, 3, size=50)
    q_labels = rng.integers(0, 3, size=10)
    db, dlab = tmp_path / "db.hsb", tmp_path / "db.hsl"
    q, qlab = tmp_path / "q.hsb", tmp_path / "q.hsl"
    write_codes(db, pack(dbc))
    write_labels(dlab, db_labels)
    write_codes(q, pack(qc))
    write_labels(qlab, q_labels)
    assert main(["eval", str(db), str(dlab), str(q), str(qlab)]) == 0
    printed = float(capsys.readouterr().out.splitlines()[0].split()[1])

    aps = []
    for i in range(10):
        dists = np.sum(dbc != qc[:, [i]], axis=0)
        order = sorted(range(50), key=lambda j: (dists[j], j))
        rel = [db_labels[j] == q_labels[i] for j in order]
        total = sum(rel)
        if total == 0:
            continue
        hits = 0
        ap = 0.0
        for rank, r in enumerate(rel, start=1):
            if r:
                hits += 1
                ap += hits / rank
        aps.append(ap / total)
    assert printed == pytest.approx(float(np.mean(aps)), abs=1e-6)


def test_eval_undefined_metric_exits_4(tmp_path, capsys):
    db, dlab = tmp_path / "db.hsb", tmp_path / "db.hsl"
    q, qlab = tmp_path / "q.hsb", tmp_path / "q.hsl"
    write_codes(db, pack(np.ones((4, 3))))
    write_labels(dlab, np.array([0, 0, 0]))
    write_codes(q, pack(np.ones((4, 2))))
    write_labels(qlab, np.array([5, 6]))
    assert main(["eval", str(db), str(dlab), str(q), str(qlab)]) == 4


@pytest.mark.parametrize(
    "n_db, n_db_labels, n_q, n_q_labels, q_bits, flags, message",
    [
        (3, 2, 2, 2, 4, [], "2 database labels for 3 database codes"),
        (3, 3, 2, 1, 4, [], "1 query labels for 2 query codes"),
        (3, 3, 2, 2, 5, [], "database codes have 4 bits, query codes have 5"),
        (3, 3, 2, 2, 4, ["--leave-one-out"], "got 2 queries for 3 database codes"),
        (0, 0, 2, 2, 4, [], "cannot search an empty database"),
    ],
    ids=["database_labels", "query_labels", "code_length", "leave_one_out", "empty_database"],
)
def test_eval_rejects_inputs_that_do_not_fit_exits_2(
    tmp_path, capsys, n_db, n_db_labels, n_q, n_q_labels, q_bits, flags, message
):
    db, dlab = tmp_path / "db.hsb", tmp_path / "db.hsl"
    q, qlab = tmp_path / "q.hsb", tmp_path / "q.hsl"
    write_codes(db, pack(np.ones((4, n_db))))
    write_labels(dlab, np.zeros(n_db_labels, dtype=int))
    write_codes(q, pack(np.ones((q_bits, n_q))))
    write_labels(qlab, np.zeros(n_q_labels, dtype=int))
    assert main(["eval", str(db), str(dlab), str(q), str(qlab), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("case", ["queries", "leave_one_out", "no_relevant"])
def test_eval_tiles_match_map_of_search_rankings(tmp_path, capsys, monkeypatch, case):
    rng = np.random.default_rng(12)
    n = 60
    pool = np.where(rng.standard_normal((12, 3)) >= 0, 1.0, -1.0)
    dbc = pool[:, rng.integers(0, 3, size=n)]
    dbc = np.where(rng.random(dbc.shape) < 0.1, -dbc, dbc)
    db_labels = rng.integers(0, 4, size=n)
    qc = np.where(rng.standard_normal((12, 25)) >= 0, 1.0, -1.0)
    if case == "leave_one_out":
        qc, q_labels = dbc, db_labels
    elif case == "queries":
        q_labels = rng.integers(0, 6, size=25)  # labels 4 and 5 have no relevant item
    else:
        q_labels = np.full(25, 4)
    db, dlab = tmp_path / "db.hsb", tmp_path / "db.hsl"
    q, qlab = tmp_path / "q.hsb", tmp_path / "q.hsl"
    write_codes(db, pack(dbc))
    write_labels(dlab, db_labels)
    write_codes(q, pack(qc))
    write_labels(qlab, q_labels)

    packed = pack(dbc)
    rankings = []
    for i in range(qc.shape[1]):
        ranked = search(packed, pack(qc[:, [i]]).payload, n)
        if case == "leave_one_out":
            ranked = [(j, d) for j, d in ranked if j != i]
        rankings.append(ranked)

    # Seven query rows per tile, so every query set spans several tiles.
    monkeypatch.setattr(hashnet.index, "_RANK_TILE_PAIRS", 7 * n)
    computed = []
    blocked = hashnet.index._mean_ap

    def spy(aps):
        computed.append(blocked(aps))
        return computed[-1]

    monkeypatch.setattr(hashnet.index, "_mean_ap", spy)
    argv = ["eval", str(db), str(dlab), str(q), str(qlab)]
    if case == "leave_one_out":
        argv.append("--leave-one-out")
    if case == "no_relevant":
        with pytest.raises(UndefinedMetric):
            mean_average_precision(rankings, q_labels, db_labels)
        assert main(argv) == 4
        return
    want = mean_average_precision(rankings, q_labels, db_labels)
    assert main(argv) == 0
    assert abs(computed[0] - want) <= 1e-12
    assert capsys.readouterr().out.splitlines()[0] == f"mAP {want:.6f}"


def test_itq_objectives_non_increasing_and_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((40, 6)).astype(np.float32).astype(np.float64)
    fpath = tmp_path / "x.hsf"
    write_features(fpath, feats)
    o1, o2 = tmp_path / "c1.hsb", tmp_path / "c2.hsb"
    assert main(["itq", str(fpath), "-o", str(o1), "--bits", "4", "--seed", "3"]) == 0
    first = capsys.readouterr().out.strip().splitlines()
    assert main(["itq", str(fpath), "-o", str(o2), "--bits", "4", "--seed", "3"]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    values = [float(line.split()[2]) for line in first if line.startswith("iter")]
    assert len(values) == 50
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert first[-1].startswith("final ")


def test_itq_zero_objective_on_corner_data(tmp_path, capsys):
    base = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    feats = np.tile(base, (5, 1))
    fpath = tmp_path / "x.hsf"
    write_features(fpath, feats)
    assert main(["itq", str(fpath), "-o", str(tmp_path / "c.hsb"), "--bits", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "final 0.000000"
