"""Brute-force references the benchmark checks esh's outputs against.

Written without esh's ranking or metric code: distances come from
unpacking the XOR of the words into bits, the order from a stable argsort
(equal distances keep ascending database id), and average precision from
a plain loop over ranks. Checks compare with exact equality.
"""

import numpy as np


def reference_ranking(query_words, db_words):
    """(ids, distances) of every database code, nearest first."""
    x = np.bitwise_xor(np.asarray(db_words, dtype=np.uint64),
                       np.asarray(query_words, dtype=np.uint64)[None, :])
    dist = np.unpackbits(x.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)
    order = np.argsort(dist, kind="stable")
    return order, dist[order]


def reference_ap(order, relevant):
    """Average precision of a ranking: mean precision at each relevant hit."""
    rel = np.asarray(relevant, dtype=bool)
    n_pos = int(rel.sum())
    if n_pos == 0:
        return 0.0
    hits = 0
    total = 0.0
    for rank, is_hit in enumerate(rel[order].tolist()):
        if is_hit:
            hits += 1
            total += hits / (rank + 1)
    return total / n_pos


def topk_matches(ids, distances, ref_ids, ref_distances):
    """True when a top-k list equals the reference's first k, exactly."""
    ids = np.asarray(ids)
    k = ids.size
    return (np.array_equal(ids, np.asarray(ref_ids)[:k])
            and np.array_equal(np.asarray(distances), np.asarray(ref_distances)[:k]))


def ap_matches(ap, ref_ap):
    return float(ap) == float(ref_ap)
