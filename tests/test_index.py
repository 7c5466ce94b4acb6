import struct
import tracemalloc

import numpy as np
import pytest

import hashnet.index
from hashnet.errors import FormatError, InvalidInput, UndefinedMetric
from hashnet.formats import read_codes, write_codes
from hashnet.index import (
    PackedCodes,
    binarize,
    mean_average_precision,
    pack,
    search,
    unpack,
)


def random_codes(rng, bits, n):
    return np.where(rng.standard_normal((bits, n)) >= 0, 1.0, -1.0)


def hamming_bit_loop(col_a, col_b):
    # Per-bit counting oracle on +-1 columns.
    return int(sum(1 for x, y in zip(col_a, col_b) if x != y))


def average_precision_oracle(ranked_ids, query_label, db_labels):
    # Independent AP: walk the ranking, accumulate precision at every hit.
    hits = 0
    total = 0.0
    relevant = sum(1 for i in ranked_ids if db_labels[i] == query_label)
    if relevant == 0:
        return None
    for rank, i in enumerate(ranked_ids, start=1):
        if db_labels[i] == query_label:
            hits += 1
            total += hits / rank
    return total / relevant


def test_binarize_signs():
    assert np.array_equal(binarize(np.array([[0.3, -0.7]])), [[1.0, -1.0]])


def test_binarize_zero_ties_positive():
    assert np.all(binarize(np.zeros((3, 4))) == 1.0)


def test_binarize_matches_element_loop():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((5, 7))
    f[0, 0] = 0.0
    got = binarize(f)
    for i in range(5):
        for j in range(7):
            assert got[i, j] == (1.0 if f[i, j] >= 0 else -1.0)


def test_pack_known_byte():
    # Bits (j = 0..7): + - + + - - + -  ->  positions 0,2,3,6 set -> 0x4D.
    code = np.array([[1.0], [-1.0], [1.0], [1.0], [-1.0], [-1.0], [1.0], [-1.0]])
    assert pack(code).payload == bytes([0x4D])


def test_pack_single_bit_codes():
    codes = np.array([[1.0, -1.0]])
    assert pack(codes).payload == bytes([0x01, 0x00])


# Lanes: 1, 3, 7, 8 and 24 bits are uint8; 9, 12, 16 and 48 uint16; 32
# uint32; 64, 65 and 128 uint64.
@pytest.mark.parametrize("bits", [1, 3, 7, 8, 9, 12, 16, 24, 32, 48, 64, 65, 128])
def test_pack_round_trip(bits):
    rng = np.random.default_rng(bits)
    b = random_codes(rng, bits, 23)
    assert np.array_equal(unpack(pack(b)), b)


def test_pack_round_trip_all_widths():
    rng = np.random.default_rng(1)
    for bits in range(1, 65):
        b = random_codes(rng, bits, 3)
        packed = pack(b)
        assert len(packed.payload) == 3 * ((bits + 7) // 8)
        assert np.array_equal(unpack(packed), b)


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_pack_matches_threshold_packing(n):
    # Oracle: threshold at zero, then pack a uint8 copy.
    rng = np.random.default_rng(n)
    for bits in range(1, 131):
        codes = random_codes(rng, bits, n)
        old = np.packbits((codes.T > 0).astype(np.uint8), axis=1, bitorder="little")
        for given in (codes, np.asfortranarray(codes), codes.astype(np.float32)):
            packed = pack(given)
            assert (packed.n, packed.bits) == (n, bits)
            assert packed.payload == old.tobytes()


def test_pack_rejects_non_binary():
    with pytest.raises(InvalidInput):
        pack(np.array([[0.5, 1.0]]))
    near_one = np.nextafter(1.0, 2.0), np.nextafter(-1.0, 0.0)
    for bad in (0.5, 0.0, -0.0, np.nan, np.inf, -np.inf, 2.0, -2.0, *near_one):
        for at in ((0, 0), (4, 2), (8, 4)):
            codes = random_codes(np.random.default_rng(0), 9, 5)
            codes[at] = bad
            with pytest.raises(InvalidInput, match=r"only \+1 and -1"):
                pack(codes)


def test_packed_codes_rejects_bad_payload_length():
    with pytest.raises(FormatError):
        PackedCodes(n=2, bits=8, payload=b"\x00")


@pytest.mark.parametrize(
    "n, bits",
    [(1, 8.0), (1.0, 8), (True, 8), (1, True), (1, np.float64(8)), (1, "8"), (None, 8)],
    ids=["float bits", "float n", "bool n", "bool bits", "numpy float bits", "str bits", "None n"],
)
def test_packed_codes_rejects_counts_that_are_not_integers(n, bits):
    with pytest.raises(FormatError, match="invalid code counts"):
        PackedCodes(n=n, bits=bits, payload=b"\x00")


def test_packed_codes_counts_are_non_negative_integers(tmp_path):
    assert PackedCodes(n=np.int64(1), bits=np.uint32(8), payload=b"\x00").n == 1
    for n, bits in ((-1, 8), (0, 0), (2, 0)):
        with pytest.raises(FormatError, match="invalid code counts"):
            PackedCodes(n=n, bits=bits, payload=b"")
    path = tmp_path / "codes.hsb"
    path.write_bytes(b"HSB1" + struct.pack("<II", 2, 0))
    with pytest.raises(FormatError, match="codes.hsb: invalid code counts"):
        read_codes(path)


def test_packed_codes_rejects_nonzero_padding(tmp_path):
    with pytest.raises(FormatError):
        PackedCodes(n=1, bits=4, payload=bytes([0xF0]))
    path = tmp_path / "codes.hsb"
    # Every partial last byte, in codes of 1, 2, 3, 4 and 8 bytes.
    for bits in [8 * whole + rest for whole in (0, 1, 2, 3, 7) for rest in range(1, 8)]:
        cb = (bits + 7) // 8
        full = bytearray(b"\xff" * (3 * cb))
        for row in range(3):
            full[row * cb + cb - 1] = (1 << (bits % 8)) - 1
        assert PackedCodes(n=3, bits=bits, payload=bytes(full)).n == 3
        for pad in range(bits % 8, 8):
            payload = bytearray(full)
            payload[(pad % 3) * cb + cb - 1] |= 1 << pad
            with pytest.raises(FormatError):
                PackedCodes(n=3, bits=bits, payload=bytes(payload))
            path.write_bytes(b"HSB1" + struct.pack("<II", 3, bits) + payload)
            with pytest.raises(FormatError, match="codes.hsb: padding bits"):
                read_codes(path)


def test_search_self_match():
    rng = np.random.default_rng(3)
    b = random_codes(rng, 16, 20)
    db = pack(b)
    query = pack(b[:, [7]]).payload
    assert search(db, query, 1) == [(7, 0)]


def test_search_tie_breaks_by_id():
    b = np.array([[1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    db = pack(b)
    query = pack(np.array([[1.0], [1.0]])).payload
    assert search(db, query, 3) == [(0, 0), (1, 1), (2, 1)]


def test_search_k_larger_than_db_returns_all():
    rng = np.random.default_rng(4)
    db = pack(random_codes(rng, 8, 5))
    out = search(db, db.payload[:1], 50)
    assert len(out) == 5


def test_search_rejects_bad_k_and_empty_db():
    rng = np.random.default_rng(5)
    db = pack(random_codes(rng, 8, 5))
    with pytest.raises(InvalidInput):
        search(db, db.payload[:1], 0)
    for bad in (2.5, "3", True, np.float64(2.0), np.bool_(True), None):
        with pytest.raises(InvalidInput):
            search(db, db.payload[:1], bad)
    with pytest.raises(InvalidInput):
        search(pack(random_codes(rng, 4, 5)), bytes([0xF0]), 1)
    want = search(db, db.payload[:1], 3)
    assert search(db, db.payload[:1], np.int64(3)) == want
    assert search(db, db.payload[:1], np.uint8(3)) == want
    empty = PackedCodes(n=0, bits=8, payload=b"")
    with pytest.raises(InvalidInput):
        search(empty, b"\x00", 1)


def test_search_rejects_every_set_query_pad_bit():
    # Every pad bit of every partial last byte, for 1 to 23 bits.
    for bits in [8 * whole + rest for whole in (0, 1, 2) for rest in range(1, 8)]:
        zero = bytes((bits + 7) // 8)
        db = PackedCodes(n=1, bits=bits, payload=zero)
        assert search(db, zero, 1) == [(0, 0)]
        for pad in range(bits % 8, 8):
            with pytest.raises(InvalidInput, match="query padding bits"):
                search(db, zero[:-1] + bytes([1 << pad]), 1)


def test_search_matches_naive_scan():
    rng = np.random.default_rng(6)
    b = random_codes(rng, 32, 2000)
    db = pack(b)
    cb = 4
    for qi in rng.integers(0, 2000, size=5):
        query = bytes(db.payload[qi * cb : (qi + 1) * cb])
        got = search(db, query, 50)
        naive = sorted(
            (hamming_bit_loop(b[:, j], b[:, qi]), j) for j in range(2000)
        )[:50]
        assert [(j, d) for d, j in naive] == got
        dists = [d for _, d in got]
        assert dists == sorted(dists)


def tied_codes(rng, bits, n):
    # Noisy copies of four random codes: many equal distances to any query.
    pool = random_codes(rng, bits, 4)
    codes = pool[:, rng.integers(0, 4, size=n)]
    return np.where(rng.random((bits, n)) < 1.5 / bits, -codes, codes)


@pytest.mark.parametrize("bits", [1, 3, 8, 12, 24, 32, 48, 64, 65, 128])
def test_search_matches_bit_loop_with_ties(bits):
    rng = np.random.default_rng(bits)
    n = 40
    b = tied_codes(rng, bits, n)
    db = pack(b)
    for query in (b[:, 0], tied_codes(rng, bits, 1)[:, 0]):
        payload = pack(query[:, np.newaxis]).payload
        naive = sorted((hamming_bit_loop(b[:, j], query), j) for j in range(n))
        dists = [d for d, _ in naive]
        tie = next(i for i in range(1, n) if dists[i - 1] == dists[i])
        for k in (1, 2, tie, n - 1, n, n + 5):
            assert search(db, payload, k) == [(j, d) for d, j in naive[:k]]


@pytest.mark.parametrize("bits", [1, 12, 64, 100])
def test_search_in_blocks_matches_bit_loop(monkeypatch, bits):
    monkeypatch.setattr(hashnet.index, "_SCAN_ROWS", 7)  # 40 codes: 6 blocks, the last partial
    test_search_matches_bit_loop_with_ties(bits)


def test_read_and_search_allocate_little_beyond_the_payload(tmp_path):
    # tracemalloc sees numpy's data buffers, so these are allocation counts.
    n = 200_000
    payload = np.random.default_rng(9).bytes(n * 8)
    path = tmp_path / "db.hsb"
    write_codes(path, PackedCodes(n=n, bits=64, payload=payload))
    query = payload[8:16]
    tracemalloc.start()
    try:
        db = read_codes(path)
        _, read_peak = tracemalloc.get_traced_memory()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = search(db, query, 10)
        _, search_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got[0] == (1, 0)
    assert read_peak <= 1.25 * len(payload)
    assert search_peak - held <= 0.5 * len(payload)


def test_map_two_hits_at_ranks_one_and_three():
    # Relevant items at ranks 1 and 3 of 5, two relevant total:
    # AP = (1/2) (1/1 + 2/3) = 0.8333...
    rankings = [[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]]
    db_labels = [7, 1, 7, 2, 3]
    got = mean_average_precision(rankings, [7], db_labels)
    assert got == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_map_perfect_ranking():
    rankings = [[(2, 0), (0, 1), (1, 2), (3, 5)]]
    db_labels = [1, 1, 1, 0]
    assert mean_average_precision(rankings, [1], db_labels) == pytest.approx(1.0)


def test_map_matches_independent_oracle():
    rng = np.random.default_rng(7)
    db_labels = rng.integers(0, 5, size=100)
    query_labels = rng.integers(0, 5, size=20)
    rankings = []
    for _ in range(20):
        order = rng.permutation(100)
        rankings.append([(int(i), 0) for i in order])
    got = mean_average_precision(rankings, query_labels, db_labels)
    aps = [
        average_precision_oracle([i for i, _ in r], q, db_labels)
        for r, q in zip(rankings, query_labels)
    ]
    aps = [a for a in aps if a is not None]
    assert got == pytest.approx(sum(aps) / len(aps), abs=1e-12)


def test_map_invariant_under_query_permutation():
    rng = np.random.default_rng(8)
    db_labels = rng.integers(0, 3, size=40)
    query_labels = list(rng.integers(0, 3, size=10))
    rankings = [[(int(i), 0) for i in rng.permutation(40)] for _ in range(10)]
    base = mean_average_precision(rankings, query_labels, db_labels)
    perm = list(rng.permutation(10))
    shuffled = mean_average_precision(
        [rankings[i] for i in perm], [query_labels[i] for i in perm], db_labels
    )
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_map_never_improves_when_relevant_pushed_later():
    db_labels = [1, 1, 0, 0, 0]
    ranking = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]
    best = mean_average_precision([ranking], [1], db_labels)
    for swap_to in range(2, 5):
        worse = list(ranking)
        worse[1], worse[swap_to] = worse[swap_to], worse[1]
        got = mean_average_precision([worse], [1], db_labels)
        assert got <= best + 1e-12


def test_map_excludes_queries_without_relevant_items():
    rankings = [[(0, 0), (1, 1)], [(0, 0), (1, 1)]]
    db_labels = [3, 3]
    got = mean_average_precision(rankings, [3, 9], db_labels)
    assert got == pytest.approx(1.0)


@pytest.mark.parametrize("bad_id", [-1, 2])
def test_map_rejects_ranking_ids_outside_db_labels(bad_id):
    with pytest.raises(InvalidInput, match="ranking ids"):
        mean_average_precision([[(0, 0), (bad_id, 1)]], [3], [3, 4])


@pytest.mark.parametrize("bad_id", [1.5, 1.0, np.float64(1.0), True, False, "1", None, 2**70])
def test_map_rejects_ranking_ids_that_are_not_integers(bad_id):
    with pytest.raises(InvalidInput, match="ranking ids"):
        mean_average_precision([[(bad_id, 0)]], [1], [0, 1])


def test_map_accepts_numpy_integer_ids_and_empty_rankings():
    assert mean_average_precision([[(np.int64(1), 0)]], [1], [0, 1]) == 1.0
    assert mean_average_precision([[], [(1, 0)]], [1, 1], [0, 1]) == 1.0


def test_map_undefined_when_nothing_relevant():
    with pytest.raises(UndefinedMetric):
        mean_average_precision([[(0, 0)]], [5], [1])


def test_binarize_matches_where_oracle():
    tiny = np.finfo(np.float64).smallest_subnormal
    tiny32 = np.finfo(np.float32).smallest_subnormal
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310]
    rng = np.random.default_rng(4)
    cases = [
        np.array(special),
        np.array(special, dtype=np.float32),
        np.array([tiny32, -tiny32, 0.0, -0.0], dtype=np.float32),
        rng.standard_normal((37, 11)),
        rng.standard_normal((8, 300)).astype(np.float32),
        np.array([[3, -2, 0]]),
        [[0.5, -0.5], [0.0, -0.0]],
    ]
    for values in cases:
        got = binarize(values)
        want = np.where(np.asarray(values, dtype=np.float64) >= 0, 1.0, -1.0)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# Inputs `_ranked_map` rejects, one per check: database codes, database
# labels, query codes, query labels, query code length, leave-one-out.
RANKED_MAP_MISFITS = {
    "database labels": ((3, 2, 2, 2, 4, False), "2 database labels for 3 database codes"),
    "query labels": ((3, 3, 2, 1, 4, False), "1 query labels for 2 query codes"),
    "code length": ((3, 3, 2, 2, 5, False), "database codes have 4 bits, query codes have 5"),
    "leave-one-out": ((3, 3, 2, 2, 4, True), "got 2 queries for 3 database codes"),
    "empty database": ((0, 0, 2, 2, 4, False), "cannot search an empty database"),
}


@pytest.mark.parametrize("case", RANKED_MAP_MISFITS)
def test_ranked_map_rejects_inputs_that_do_not_fit(case):
    (n_db, n_db_labels, n_q, n_q_labels, q_bits, leave_one_out), message = RANKED_MAP_MISFITS[case]
    db, queries = pack(np.ones((4, n_db))), pack(np.ones((q_bits, n_q)))
    labels = np.zeros(max(n_db_labels, n_q_labels), dtype=np.int64)
    with pytest.raises(InvalidInput, match=message):
        hashnet.index._ranked_map(
            db, labels[:n_db_labels], queries, labels[:n_q_labels], leave_one_out
        )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: search(pack(np.ones((8, 3))), b"\x00\x00", 1),
         "query holds 2 bytes, database codes hold 1"),
        (lambda: mean_average_precision([[(0, 0)]], [0, 1], [0, 0]),
         "1 rankings for 2 query labels"),
        (lambda: pack(np.ones(8)), r"bits x n matrix, got shape \(8,\)"),
    ],
    ids=["search_query_length", "map_more_labels_than_rankings", "pack_1d"],
)
def test_index_rejects_malformed_arguments(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()
