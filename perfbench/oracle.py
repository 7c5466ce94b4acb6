"""Brute-force reference results the benchmark checks the program against.

Both oracles work on unpacked bits and share no code with the program:
distances are counts of differing bits, rankings sort by (distance, id),
and average precision is computed from the ranks of the relevant items.
"""

import numpy as np


def unpack_bits(packed, bits):
    """(n, ceil(bits/8)) packed uint8 codes -> (n, bits) 0/1 uint8."""
    return np.unpackbits(packed, axis=1, count=bits, bitorder="little")


def distances(db_bits, query_bits):
    """Hamming distance from one unpacked query to every database code."""
    return np.count_nonzero(db_bits != query_bits, axis=1)


def ranking(db_bits, query_bits, k=None):
    """(ids, distances) of the k nearest codes, ordered by (distance, id)."""
    dist = distances(db_bits, query_bits)
    ids = np.lexsort((np.arange(dist.size), dist))
    if k is not None:
        ids = ids[:k]
    return ids, dist[ids]


def average_precision(ranked_labels, label):
    """AP of one ranking: the mean over relevant items of (relevant items
    up to and including it) / (its 1-based rank).  None if nothing in the
    ranking is relevant."""
    positions = np.flatnonzero(np.asarray(ranked_labels) == label) + 1
    if positions.size == 0:
        return None
    return float(np.mean(np.arange(1, positions.size + 1) / positions))


def mean_average_precision(db_bits, db_labels, query_bits, query_labels):
    """mAP over full rankings; queries with no relevant item are skipped."""
    aps = []
    for qb, ql in zip(query_bits, query_labels):
        ids, _ = ranking(db_bits, qb)
        ap = average_precision(db_labels[ids], ql)
        if ap is not None:
            aps.append(ap)
    return float(np.mean(aps))
