import base64
import json
import os
import stat
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import hashnet.formats
from hashnet.errors import FormatError, InvalidInput
from hashnet.formats import (
    load_model,
    read_codes,
    read_features,
    read_labels,
    save_model,
    write_codes,
    write_features,
    write_labels,
)
from hashnet.index import pack, unpack
from hashnet.network import Layer, NetworkParams, forward


def f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def test_features_round_trip(tmp_path):
    path = tmp_path / "x.hsf"
    rng = np.random.default_rng(0)
    x = f32(rng.standard_normal((7, 3)))
    write_features(path, x)
    assert np.array_equal(read_features(path), x)


def test_features_header_layout(tmp_path):
    path = tmp_path / "x.hsf"
    write_features(path, f32([[1.5, -2.0]]))
    blob = path.read_bytes()
    assert blob[:4] == b"HSF1"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 2
    assert np.frombuffer(blob[12:], dtype="<f4").tolist() == [1.5, -2.0]


def test_features_empty_file_round_trip(tmp_path):
    path = tmp_path / "x.hsf"
    write_features(path, np.zeros((0, 5)))
    got = read_features(path)
    assert got.shape == (0, 5)


def test_features_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.hsf"
    write_features(path, f32([[1.0]]))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="offset 0"):
        read_features(path)


def test_features_rejects_truncation(tmp_path):
    path = tmp_path / "x.hsf"
    write_features(path, f32([[1.0, 2.0], [3.0, 4.0]]))
    blob = path.read_bytes()
    path.write_bytes(blob[:17])
    with pytest.raises(FormatError, match="x.hsf"):
        read_features(path)


def test_features_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "x.hsf"
    write_features(path, f32([[1.0]]))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_features(path)


def test_features_rejects_non_finite_with_offset(tmp_path):
    path = tmp_path / "x.hsf"
    write_features(path, f32([[1.0, 2.0], [3.0, 4.0]]))
    blob = bytearray(path.read_bytes())
    # poison the third float (index 2): offset 12 + 4 * 2 = 20
    blob[20:24] = np.array([np.inf], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="offset 20"):
        read_features(path)


def test_write_features_rejects_non_finite():
    with pytest.raises(InvalidInput):
        write_features("/tmp/never-written.hsf", np.array([[np.nan]]))


def test_labels_round_trip(tmp_path):
    path = tmp_path / "y.hsl"
    write_labels(path, [3, 0, 7, 7])
    assert read_labels(path).tolist() == [3, 0, 7, 7]
    assert path.read_bytes()[:4] == b"HSL1"


def test_labels_reject_negative():
    with pytest.raises(InvalidInput):
        write_labels("/tmp/never-written.hsl", [-1])


@pytest.mark.parametrize(
    "write, value, message",
    [
        (write_features, np.zeros(4), r"features must be 2-d, got shape \(4,\)"),
        (write_labels, np.zeros((2, 2), dtype=int), r"labels must be 1-d, got shape \(2, 2\)"),
        (write_labels, np.array([0.0, 1.0]), "labels must be integers"),
    ],
    ids=["features_1d", "labels_2d", "labels_float"],
)
def test_writers_reject_malformed_arrays_and_write_nothing(tmp_path, write, value, message):
    path = tmp_path / "out"
    with pytest.raises(InvalidInput, match=message):
        write(path, value)
    assert not path.exists()


def test_labels_rejects_truncation(tmp_path):
    path = tmp_path / "y.hsl"
    write_labels(path, [1, 2, 3])
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(FormatError, match="offset"):
        read_labels(path)


def test_codes_round_trip(tmp_path):
    path = tmp_path / "b.hsb"
    rng = np.random.default_rng(1)
    codes = np.where(rng.standard_normal((12, 9)) >= 0, 1.0, -1.0)
    write_codes(path, pack(codes))
    got = read_codes(path)
    assert got.n == 9
    assert got.bits == 12
    assert np.array_equal(unpack(got), codes)
    assert path.read_bytes()[:4] == b"HSB1"


def test_codes_rejects_nonzero_padding(tmp_path):
    path = tmp_path / "b.hsb"
    codes = np.ones((4, 1))
    write_codes(path, pack(codes))
    blob = bytearray(path.read_bytes())
    blob[-1] = 0xFF  # sets bits past the 4-bit code
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_codes(path)


def test_codes_rejects_wrong_payload_length(tmp_path):
    path = tmp_path / "b.hsb"
    write_codes(path, pack(np.ones((8, 2))))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(FormatError):
        read_codes(path)


def test_missing_file_raises_format_error(tmp_path):
    with pytest.raises(FormatError, match="no-such"):
        read_features(tmp_path / "no-such.hsf")


def model_fixture():
    rng = np.random.default_rng(2)
    layers = [
        Layer(rng.standard_normal((5, 3)), rng.standard_normal(5), "identity"),
        Layer(rng.standard_normal((2, 5)), rng.standard_normal(2), "scaled_sigmoid"),
    ]
    return NetworkParams(layers)


def test_model_round_trip_preserves_forward_bitwise(tmp_path):
    path = tmp_path / "model.json"
    params = model_fixture()
    meta = {"bits": 2, "seed": 42}
    save_model(path, params, meta)
    loaded, got_meta = load_model(path)
    assert got_meta == meta
    x = np.random.default_rng(3).standard_normal((3, 11))
    a, _ = forward(params, x)
    b, _ = forward(loaded, x)
    assert np.array_equal(a, b)


def test_model_bytes_deterministic(tmp_path):
    params = model_fixture()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, params, {"seed": 1})
    save_model(p2, params, {"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_model_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all{")
    with pytest.raises(FormatError):
        load_model(path)
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_rejects_corrupt_payload(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, model_fixture(), {})
    doc = json.loads(path.read_text())
    doc["layers"][0]["weights"] = base64.b64encode(b"\x00" * 8).decode()
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("case", ["not_utf8", "dims_overflow_int64", "infinite_dim"])
def test_model_rejects_what_used_to_raise_stray_exceptions(tmp_path, case):
    path = tmp_path / "model.json"
    save_model(path, model_fixture(), {})
    doc = json.loads(path.read_text())
    if case == "not_utf8":
        path.write_bytes(b"\xff\xfe" + json.dumps(doc).encode())
    elif case == "dims_overflow_int64":
        # np.prod((4, 2**62)) wraps to 0 and would accept an empty payload
        doc["layers"][0].update(in_dim=2**62, out_dim=4, weights="", bias="")
        path.write_text(json.dumps(doc))
    else:
        doc["layers"][0]["in_dim"] = float("inf")
        path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="model.json"):
        load_model(path)


# A layer dimension or the declared code length that is not a JSON integer
# (a float, even a whole one, a string or a bool), or is below 1.
@pytest.mark.parametrize(
    "field, value",
    [("in_dim", 3.7), ("in_dim", 3.0), ("in_dim", "3"), ("in_dim", True), ("in_dim", None),
     ("in_dim", 0), ("out_dim", 2.9), ("out_dim", "5"), ("out_dim", True), ("out_dim", -5),
     ("bits", 2.0), ("bits", True), ("bits", "2"), ("bits", None), ("bits", 0)],
)
def test_model_dims_and_bits_must_be_json_integers(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_model(path, model_fixture(), {})
    doc = json.loads(path.read_text())
    layer = 1 if field == "out_dim" else 0
    if field == "bits":
        doc["bits"] = value
        where = "model.json: declared bits"
    else:
        doc["layers"][layer][field] = value
        where = f"model.json: malformed layer {layer}: {field}"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=where):
        load_model(path)


def test_features_io_holds_one_payload_copy(tmp_path):
    n, d = 50_000, 16
    path = tmp_path / "x.hsf"
    x = np.asfortranarray(np.random.default_rng(4).standard_normal((n, d)))
    tracemalloc.start()
    try:
        write_features(path, x)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = read_features(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, x.astype(np.float32))
    # the float32 payload and its finiteness mask: on reading, the payload
    # is the returned matrix
    assert write_peak <= 1.5 * (4 * n * d)
    assert read_peak <= 1.5 * (4 * n * d)
    # the payload is checked slice by slice, so no payload-sized mask
    assert read_peak <= 1.05 * (4 * n * d)


def test_read_features_returns_writable_float32(tmp_path):
    path = tmp_path / "x.hsf"
    x = np.random.default_rng(5).standard_normal((9, 4)).astype(np.float32)
    write_features(path, x)
    got = read_features(path)
    assert got.dtype == np.float32 and got.shape == (9, 4)
    assert got.flags.writeable and got.flags.c_contiguous
    assert got.tobytes() == x.tobytes()
    got[0, 0] = 7.0  # the caller owns the buffer; the file is untouched
    assert read_features(path).tobytes() == x.tobytes()


SLICE_FLOATS = hashnet.formats._SLICE_BYTES // 4


def write_hsf1(path, bits):
    """An HSF1 file holding the float32 bit patterns `bits` (n x d uint32)."""
    n, d = bits.shape
    path.write_bytes(b"HSF1" + struct.pack("<2I", n, d) + bits.astype("<u4").tobytes())


def finite_patterns(rng, shape):
    # any finite float32 bit pattern: subnormals, -0.0 and the extremes too
    bits = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
    exponent_all_ones = (bits & 0x7F800000) == 0x7F800000
    bits[exponent_all_ones] ^= 0x00800000
    return bits


@pytest.mark.parametrize("shape", [
    (0, 5), (1, 1), (3, 7), (50_000, 16),
    (1, SLICE_FLOATS - 1), (1, SLICE_FLOATS), (1, SLICE_FLOATS + 1),
    (3, SLICE_FLOATS // 2 + 3),
])
def test_read_features_matches_frombuffer(tmp_path, shape):
    path = tmp_path / "x.hsf"
    write_hsf1(path, finite_patterns(np.random.default_rng(shape[1]), shape))
    blob = path.read_bytes()
    oracle = np.frombuffer(blob[12:], "<f4").reshape(shape)
    first, second = read_features(path), read_features(path)
    for got in (first, second):
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == oracle.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
        root = got
        while root.base is not None:
            root = root.base
        assert isinstance(root, np.ndarray) and root.flags.owndata
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("bad", [0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F800001])
@pytest.mark.parametrize("index", [0, SLICE_FLOATS - 1, SLICE_FLOATS, -1])
def test_read_features_names_first_non_finite_offset(tmp_path, bad, index):
    # +inf, -inf, quiet NaN, negative NaN with payload, signalling NaN; at
    # the first float, either side of a slice boundary and the last float
    n, d = 3, SLICE_FLOATS // 2 + 3
    bits = finite_patterns(np.random.default_rng(9), (n, d)).ravel()
    bits[index] = bad
    bits[-1] = bad  # a later non-finite float is not the one named
    write_hsf1(tmp_path / "x.hsf", bits.reshape(n, d))
    offset = 12 + 4 * (index % (n * d))
    with pytest.raises(FormatError, match=rf"non-finite float at offset {offset}$"):
        read_features(tmp_path / "x.hsf")


def test_write_features_does_not_widen_float32(tmp_path):
    n, d = 50_000, 16
    x = np.random.default_rng(6).standard_normal((n, d)).astype(np.float32)
    tracemalloc.start()
    try:
        write_features(tmp_path / "x.hsf", x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the finiteness mask: no float64 widening and no float32 copy
    assert peak <= 0.5 * (4 * n * d)
    assert (tmp_path / "x.hsf").read_bytes()[12:] == x.astype("<f4").tobytes()


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "b.hsb"
    write_codes(path, pack(np.ones((8, 3))))
    before = path.read_bytes()
    broken = SimpleNamespace(n=1, bits=8, payload=object())  # fails after the header
    with pytest.raises(TypeError):
        write_codes(path, broken)
    assert path.read_bytes() == before
    assert listing(tmp_path) == ["b.hsb"]


def test_write_through_symlink_replaces_its_target(tmp_path):
    real, link = tmp_path / "real.hsb", tmp_path / "link.hsb"
    write_codes(real, pack(np.ones((8, 1))))
    link.symlink_to(real)
    codes = pack(-np.ones((8, 2)))
    write_codes(link, codes)
    assert link.is_symlink()
    assert read_codes(real).payload == codes.payload
    assert listing(tmp_path) == ["link.hsb", "real.hsb"]


def test_write_keeps_the_mode_open_gives(tmp_path):
    fresh, kept, reference = tmp_path / "fresh.hsl", tmp_path / "kept.hsl", tmp_path / "ref"
    reference.open("w").close()
    write_labels(fresh, [1, 2])
    write_labels(kept, [1, 2])
    os.chmod(kept, 0o604)
    write_labels(kept, [3])
    mode = lambda p: stat.S_IMODE(os.stat(p).st_mode)
    assert mode(fresh) == mode(reference)
    assert mode(kept) == 0o604
    assert read_labels(kept).tolist() == [3]


def test_fifo_is_written_in_place_and_read_whole(tmp_path):
    fifo, regular = tmp_path / "pipe.hsb", tmp_path / "regular.hsb"
    os.mkfifo(fifo)
    codes = pack(np.where(np.random.default_rng(5).standard_normal((12, 5)) >= 0, 1.0, -1.0))
    write_codes(regular, codes)
    got = {}

    def read_pipe():
        with open(fifo, "rb") as f:
            got["bytes"] = f.read()

    def write_pipe():
        with open(fifo, "wb") as f:
            f.write(regular.read_bytes())

    reader = threading.Thread(target=read_pipe, daemon=True)
    reader.start()
    write_codes(fifo, codes)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got["bytes"] == regular.read_bytes()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    writer = threading.Thread(target=write_pipe, daemon=True)
    writer.start()
    assert read_codes(fifo).payload == codes.payload
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert listing(tmp_path) == ["pipe.hsb", "regular.hsb"]
