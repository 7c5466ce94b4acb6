"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a seed and returns numpy arrays; the same seed gives
the same arrays, byte for byte.  The writers produce the HSF1/HSL1/HSB1
containers directly from the published layout (README "File formats"), so
the program under test receives only files and the benchmark does not rely
on the program's own writers.
"""

import struct

import numpy as np

# Rows generated per chunk when drawing bit noise, to bound peak memory.
_CHUNK = 1 << 17


def class_mixture(seed, n_db, n_query, dim, classes, separation=6.0):
    """Gaussian class mixture with unit noise.

    Class centres are rescaled so the closest pair sits `separation` noise
    units apart.  Returns (db_x, db_y, q_x, q_y) with float32 features, so
    the values survive the HSF1 round trip unchanged.
    """
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((classes, dim))
    gaps = np.linalg.norm(centres[:, None] - centres[None, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    centres *= separation / gaps.min()

    def draw(count):
        labels = rng.integers(0, classes, size=count)
        x = centres[labels] + rng.standard_normal((count, dim))
        return x.astype(np.float32), labels.astype(np.int64)

    db_x, db_y = draw(n_db)
    q_x, q_y = draw(n_query)
    return db_x, db_y, q_x, q_y


def noisy_codes(rng, centres, assign, flip_prob):
    """Packed codes: each row is centres[assign[i]] with every bit flipped
    independently with probability flip_prob.

    centres is (c, bits) of 0/1 uint8; the result is (n, ceil(bits/8))
    uint8 in the HSB1 bit order (LSB first), with zero pad bits.
    """
    bits = centres.shape[1]
    out = np.empty((assign.size, (bits + 7) // 8), dtype=np.uint8)
    for start in range(0, assign.size, _CHUNK):
        rows = assign[start : start + _CHUNK]
        flips = rng.random((rows.size, bits)) < flip_prob
        out[start : start + rows.size] = np.packbits(
            centres[rows] ^ flips, axis=1, bitorder="little"
        )
    return out


def clustered_codes(seed, n_db, n_query, bits, clusters, flip_prob):
    """k-NN inputs: database and query codes drawn around shared random
    cluster centres.  Returns (db, queries) as packed uint8 matrices."""
    rng = np.random.default_rng(seed)
    centres = rng.integers(0, 2, size=(clusters, bits), dtype=np.uint8)
    db = noisy_codes(rng, centres, rng.integers(0, clusters, size=n_db), flip_prob)
    queries = noisy_codes(rng, centres, rng.integers(0, clusters, size=n_query), flip_prob)
    return db, queries


def labelled_codes(seed, n_db, n_query, bits, classes, flip_prob):
    """Ranking inputs: one random centre code per class, members drawn by
    bit noise.  Returns (db, db_labels, queries, query_labels)."""
    rng = np.random.default_rng(seed)
    centres = rng.integers(0, 2, size=(classes, bits), dtype=np.uint8)
    db_y = rng.integers(0, classes, size=n_db)
    q_y = rng.integers(0, classes, size=n_query)
    db = noisy_codes(rng, centres, db_y, flip_prob)
    queries = noisy_codes(rng, centres, q_y, flip_prob)
    return db, db_y.astype(np.int64), queries, q_y.astype(np.int64)


def write_features(path, x):
    x = np.ascontiguousarray(x, dtype="<f4")
    with open(path, "wb") as f:
        f.write(b"HSF1" + struct.pack("<II", *x.shape))
        f.write(x.tobytes())


def write_labels(path, y):
    with open(path, "wb") as f:
        f.write(b"HSL1" + struct.pack("<I", y.size))
        f.write(np.asarray(y, dtype="<u4").tobytes())


def write_codes(path, packed, bits):
    with open(path, "wb") as f:
        f.write(b"HSB1" + struct.pack("<II", packed.shape[0], bits))
        f.write(np.ascontiguousarray(packed, dtype=np.uint8).tobytes())


def read_codes(path):
    """(packed uint8 matrix, bits) from an HSB1 file, for the oracles."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"HSB1":
        raise ValueError(f"{path}: not an HSB1 file")
    n, bits = struct.unpack("<II", raw[4:12])
    packed = np.frombuffer(raw, dtype=np.uint8, offset=12)
    return packed.reshape(n, (bits + 7) // 8), bits


def read_labels(path):
    """Class ids from an HSL1 file, for the oracles."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"HSL1":
        raise ValueError(f"{path}: not an HSL1 file")
    return np.frombuffer(raw, dtype="<u4", offset=8).astype(np.int64)
