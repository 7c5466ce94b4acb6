"""Binarization, bit-packed codes, popcount Hamming search, and mAP.

Packed layout: each code occupies ceil(bits / 8) bytes; bit j of a code
lives in byte j // 8 at position j % 8 (least-significant bit first), a set
bit means code value +1, and pad bits past the code length are zero.

A PackedCodes instance views its payload, without copying it, as an
(n x lanes) matrix of the widest unsigned integer (64, 32, 16 or 8 bits)
whose size divides the code length in bytes, so a 64-bit code is one
uint64 lane and a 48-bit code three uint16 lanes.  One kernel,
`_distances`, serves both `search` and full rankings for mAP: XOR of the
lanes, popcount, and a sum over lanes into the smallest unsigned dtype
that holds `bits`.  Distances are exact, from a full linear scan.

`search` scans blocks of `_SCAN_ROWS` codes and selects its top k by
counting: a histogram of the (at most bits + 1) distance values gives the
k-th smallest distance, and only the codes at or below it are sorted,
stably, so ties stay ordered by id.
Full rankings are stable sorts of the small-integer distances.
`_ranked_map`, the code-set ranking behind `hashnet eval`, lives here
beside `search`: it checks a database and a query set with their labels,
ranks tiles of `_RANK_TILE_PAIRS` query-database pairs against the whole
database, and returns the mAP.  A PackedCodes instance is immutable after
construction, so concurrent searches over a shared index are safe.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidInput, UndefinedMetric
from .numerics import as_float, check_int

# Lane dtypes, widest first; a code set uses the first that divides its byte length.
_LANES = tuple(np.dtype(t) for t in (np.uint64, np.uint32, np.uint16, np.uint8))
# Codes `search` scans at a time, so that no temporary is payload-sized.
_SCAN_ROWS = 2**15
# Query-database pairs `_ranked_map` ranks at once: about 8 MB of 64-bit ranks.
_RANK_TILE_PAIRS = 2**20


def binarize(values) -> np.ndarray:
    """Entry-wise sign with the tie convention sign(0) = +1, as float64
    +-1; NaN maps to -1."""
    out = np.greater_equal(as_float(values), 0).astype(np.float64)
    out *= 2.0
    out -= 1.0
    return out


@dataclass(frozen=True)
class PackedCodes:
    """n bit-packed codes of the same length."""

    n: int
    bits: int
    payload: bytes
    _words: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            check_int(self.n, "code count", 0)
            check_int(self.bits, "code length", 1)
        except InvalidInput as exc:
            raise FormatError(f"invalid code counts: {exc}") from None
        expect = self.n * self.code_bytes
        if len(self.payload) != expect:
            raise FormatError(
                f"payload holds {len(self.payload)} bytes, expected {expect} "
                f"for {self.n} codes of {self.bits} bits"
            )
        raw = np.frombuffer(self.payload, dtype=np.uint8).reshape(self.n, self.code_bytes)
        if self.bits % 8 and np.any(raw[:, -1] >> (self.bits % 8)):
            raise FormatError("padding bits past the code length must be zero")
        lane = next(t for t in _LANES if self.code_bytes % t.itemsize == 0)
        words = np.frombuffer(self.payload, dtype=lane)
        object.__setattr__(
            self, "_words", words.reshape(self.n, self.code_bytes // lane.itemsize)
        )

    @property
    def code_bytes(self) -> int:
        return (self.bits + 7) // 8

    def code(self, i: int) -> bytes:
        """The packed bytes of code i."""
        cb = self.code_bytes
        return self.payload[i * cb : (i + 1) * cb]


def pack(codes) -> PackedCodes:
    """Pack a (bits x n) matrix of +-1 values into bytes."""
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2:
        raise InvalidInput(f"codes must be a bits x n matrix, got shape {codes.shape}")
    positive = codes == 1.0
    if not np.all(positive | (codes == -1.0)):
        raise InvalidInput("codes must contain only +1 and -1")
    bits, n = codes.shape
    as_bits = np.ascontiguousarray(positive.T)
    payload = np.packbits(as_bits, axis=1, bitorder="little").tobytes()
    return PackedCodes(n=n, bits=bits, payload=payload)


def unpack(packed: PackedCodes) -> np.ndarray:
    """Inverse of pack: a (bits x n) matrix of +-1 values."""
    raw = np.frombuffer(packed.payload, dtype=np.uint8).reshape(packed.n, packed.code_bytes)
    as_bits = np.unpackbits(raw, axis=1, count=packed.bits, bitorder="little")
    return np.where(as_bits.T == 1, 1.0, -1.0)


def _check_padding(code: bytes, bits: int, what: str) -> None:
    """Reject a packed bits-bit code whose pad bits are not all zero."""
    if bits % 8 and code[-1] >> (bits % 8):
        raise InvalidInput(f"{what} padding bits past the code length must be zero")


def _distances(db: PackedCodes, qwords: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Hamming distances from query lanes to the database codes in `rows`.

    `qwords` holds queries in `db`'s lane dtype, shape (..., lanes); the
    result has shape (..., rows) and the smallest unsigned dtype holding
    `db.bits`.
    """
    counts = np.bitwise_count(db._words[rows] ^ qwords)
    if counts.shape[-1] == 1:
        return counts[..., 0]
    return counts.sum(axis=-1, dtype=np.min_scalar_type(db.bits))


def search(db: PackedCodes, query: bytes, k: int) -> list[tuple[int, int]]:
    """The k database codes nearest to the query in Hamming distance.

    Exact linear scan; ties break toward the lower database id.  Asking for
    more results than the database holds returns everything.  The query is
    one packed code, so its pad bits must be zero.
    """
    check_int(k, "k", 1)
    if db.n == 0:
        raise InvalidInput("cannot search an empty database")
    if len(query) != db.code_bytes:
        raise InvalidInput(
            f"query holds {len(query)} bytes, database codes hold {db.code_bytes}"
        )
    _check_padding(query, db.bits, "query")
    qwords = np.frombuffer(query, dtype=db._words.dtype)
    blocks = [_distances(db, qwords, slice(s, s + _SCAN_ROWS)) for s in range(0, db.n, _SCAN_ROWS)]
    dists = np.concatenate(blocks)
    k = min(int(k), db.n)
    hist = sum(np.bincount(b, minlength=db.bits + 1) for b in blocks)
    cut = np.searchsorted(np.cumsum(hist), k)
    cand = np.flatnonzero(dists <= cut)
    order = cand[np.argsort(dists[cand], kind="stable")[:k]]
    return list(zip(order.tolist(), dists[order].tolist()))


def _average_precisions(rel: np.ndarray) -> np.ndarray:
    """Average precision of each row of a boolean relevance matrix whose
    columns are in rank order; rows with no relevant item are left out."""
    rel = rel[rel.any(axis=1)]
    hits = np.cumsum(rel, axis=1)
    precision = np.divide(
        hits, np.arange(1, rel.shape[1] + 1), out=np.zeros(rel.shape), where=rel
    )
    return precision.sum(axis=1) / np.count_nonzero(rel, axis=1)


def _mean_ap(aps: list[np.ndarray]) -> float:
    """Mean of the per-query average precisions gathered from
    `_average_precisions`; undefined when no query had a relevant item."""
    if not any(a.size for a in aps):
        raise UndefinedMetric("no query has a relevant database item")
    return float(np.mean(np.concatenate(aps)))


def mean_average_precision(rankings, query_labels, db_labels) -> float:
    """Mean over queries of average precision across the given rankings.

    Each ranking is an ordered sequence of (database id, distance) pairs
    produced by search; relevance means sharing the query's class label.
    Queries with no relevant item in their ranking are excluded; if that
    leaves no query at all the metric is undefined.  Every id must be an
    integer indexing `db_labels`.  A ranking's ids are checked as one numpy
    array, not one by one: an id numpy does not read as an integer (a
    float, a bool, a string, None) raises, but a bool among integer ids
    counts as 0 or 1.
    """
    if len(rankings) != len(query_labels):
        raise InvalidInput(
            f"{len(rankings)} rankings for {len(query_labels)} query labels"
        )
    db_labels = np.asarray(db_labels)
    n_db = len(db_labels)
    aps = []
    for ranking, qlabel in zip(rankings, query_labels):
        ids = np.array([i for i, _ in ranking])
        if not ids.size:  # numpy reads no ids as float; an empty ranking adds no AP
            continue
        if ids.dtype.kind not in "iu" or not 0 <= ids.min() <= ids.max() < n_db:
            raise InvalidInput(f"ranking ids must be integers indexing the {n_db} database labels")
        aps.append(_average_precisions((db_labels[ids] == qlabel)[np.newaxis]))
    return _mean_ap(aps)


def _ranked_map(db: PackedCodes, db_labels, queries: PackedCodes, query_labels,
                leave_one_out: bool) -> float:
    """mAP of every query over its full Hamming ranking of the database.

    Ties rank by database id.  With `leave_one_out`, the queries are the
    database searched against itself and each query's own id is dropped
    from its ranking.
    """
    if db_labels.shape[0] != db.n:
        raise InvalidInput(f"{db_labels.shape[0]} database labels for {db.n} database codes")
    if query_labels.shape[0] != queries.n:
        raise InvalidInput(f"{query_labels.shape[0]} query labels for {queries.n} query codes")
    if db.bits != queries.bits:
        raise InvalidInput(
            f"code length mismatch: database codes have {db.bits} bits, "
            f"query codes have {queries.bits}"
        )
    if leave_one_out and queries.n != db.n:
        raise InvalidInput(
            "leave-one-out assumes the queries are the database searched "
            f"against itself, got {queries.n} queries for {db.n} database codes"
        )
    if db.n == 0 and queries.n:
        raise InvalidInput("cannot search an empty database")
    # Rank tiles of query rows against the whole database; a tile holds at
    # most _RANK_TILE_PAIRS distances (one row when the database is larger).
    rows = max(1, _RANK_TILE_PAIRS // max(db.n, 1))
    aps = []
    for start in range(0, queries.n, rows):
        ids = np.arange(start, min(start + rows, queries.n))
        dists = _distances(db, queries._words[ids, np.newaxis])
        order = np.argsort(dists, axis=1, kind="stable")
        if leave_one_out:
            order = order[order != ids[:, np.newaxis]].reshape(ids.size, db.n - 1)
        aps.append(_average_precisions(db_labels[order] == query_labels[ids, np.newaxis]))
    return _mean_ap(aps)
