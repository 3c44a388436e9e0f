"""Retrieval metrics over packed Hamming codes.

Everything rests on one ranking primitive: XOR + popcount distances, then
a stable sort so equal distances break toward the lower database id. The
distances are sorted as uint8 (one code word) or uint16 (up to 65535 bits),
for which numpy's stable sort is a radix sort, linear in the database size;
wider codes fall back to int64. `rank_database` serves `esh query` and the
API; its first t ids (`--top t`) come from one partition of packed
(distance, id) keys instead. `evaluate` orders the database once per query
and reads every metric from the ranks of the query's positives: AP,
precision at depths and within a Hamming ball, and the PR curve.
`GroundTruth` names the positives: the database items whose label ids
share one with the query's, single- and multi-label sets alike.
"""

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import LabelSet
from .encoder import PackedCodes

PR_GRID_POINTS = 101


def hamming_distances(query_words, db: PackedCodes):
    """Distances from one packed code (1-D word array) to every db code.

    In the narrowest type that holds k, for sorting: the uint8 popcount
    itself for one word, a uint16 sum up to 65535 bits; wider codes get
    int64, since uint16 would wrap. Cast before subtracting: unsigned wraps.
    """
    query_words = np.asarray(query_words, dtype=np.uint64)
    if query_words.shape != (db.n_words,):
        raise ValueError("query word count does not match database")
    if db.n_words == 1:
        dist = np.bitwise_count(np.bitwise_xor(db.words[:, 0], query_words[0]))
    else:
        x = np.bitwise_count(np.bitwise_xor(query_words[None, :], db.words))
        dist = x.sum(axis=1, dtype=np.uint16 if db.k <= 0xFFFF else np.int64)
    return dist


@dataclass(frozen=True, eq=False)
class Ranking:
    """Database ids sorted by ascending distance, ties by ascending id.

    A ranking cut at `top` holds the first `top` of them. == is identity;
    compare the fields with np.array_equal.
    """

    ids: np.ndarray
    distances: np.ndarray


@lru_cache(maxsize=4)
def _key_ids(n):
    """0..n-1 as uint32, built once per database size and shared read-only."""
    ids = np.arange(n, dtype=np.uint32)
    ids.flags.writeable = False
    return ids


def _nearest(dist, k, top=None):
    """Ids in ranking order (ascending distance, then id): all, or the first `top`.

    With `top` below n, each id is packed with its distance into one uint32
    key, distance << b | id. The keys are distinct and order exactly as the
    ranking does, so one partition and a sort of `top` keys give the
    ranking's prefix, ties included. Keys that need more than 32 bits, and
    full rankings, take the stable sort: on uint8/uint16 distances it is
    numpy's radix sort, which beat a sort of packed keys.
    """
    n = dist.size
    b = (n - 1).bit_length()
    if top is not None and top < n and k.bit_length() + b <= 32:
        key = dist.astype(np.uint32)
        key <<= b
        key |= _key_ids(n)
        key.partition(top - 1)
        head = key[:top]
        head.sort()
        return (head & ((1 << b) - 1)).astype(np.intp)
    return np.argsort(dist, kind="stable")[:top]


def _check_min(name, value, low):
    if value is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def rank_database(query_words, db: PackedCodes, top=None):
    """Rank the database codes by Hamming distance to one query.

    The full ranking is a stable radix sort of the distances. `top` keeps
    only its first `top` entries, as `esh query --top` does; they come from
    one partition of packed (distance, id) keys, without sorting the rest.
    """
    _check_min("top", top, 1)
    dist = hamming_distances(query_words, db)
    order = _nearest(dist, db.k, top)
    return Ranking(ids=order, distances=dist[order].astype(np.int64))


class GroundTruth:
    """Which database items count as relevant for each query.

    An item is relevant iff its label ids and the query's share one id, so
    single-label sets compare labels for equality. The database's classes
    are kept sorted, each with the ids of its members, and a query's
    positives are the union of the members of its classes.
    """

    def __init__(self, query_labels: LabelSet, db_labels: LabelSet):
        self.query_labels = query_labels
        self.db_labels = db_labels
        ids = db_labels.ids
        order = np.argsort(ids, kind="stable")
        classes, first = np.unique(ids[order], return_index=True)
        rows = np.repeat(np.arange(len(db_labels)), np.diff(db_labels.starts))[order]
        # class id -> the database rows that carry it, classes in ascending order
        self.members = dict(zip(classes.tolist(), np.split(rows, first[1:])))

    def positives_mask(self, query_index):
        """Boolean relevance over the database for one query."""
        mask = np.zeros(len(self.db_labels), dtype=bool)
        for c in self.query_labels.row(query_index).tolist():
            if c in self.members:
                mask[self.members[c]] = True
        return mask

    @property
    def n_queries(self):
        return len(self.query_labels)


def _hit_precision(hits):
    """Precision at the rank of each relevant item, from their 0-based ranks."""
    return np.arange(1, hits.size + 1) / (hits + 1.0)


def _average_precision(precision, n_pos):
    """AP from the precision at each retrieved hit, in rank order; 0 if none."""
    # add.accumulate sums strictly left to right, so AP equals a naive
    # per-rank loop term for term; np.sum adds pairwise and does not
    return float(np.add.accumulate(precision)[-1]) / n_pos if precision.size else 0.0


def _precision_at(hits, depth):
    """Fraction of the first `depth` ranks that hold a hit; 0 for depth 0,
    as for an empty ranking."""
    return float(np.searchsorted(hits, depth) / depth) if depth else 0.0


def _hits(ranking: Ranking, positives_mask):
    """0-based ranks of the relevant items in the ranking."""
    return np.flatnonzero(np.asarray(positives_mask)[ranking.ids])


def average_precision(ranking: Ranking, positives_mask):
    """Mean of precision-at-hit over all relevant items; no relevant items
    at all gives 0."""
    hits = _hits(ranking, positives_mask)
    return _average_precision(_hit_precision(hits), int(np.count_nonzero(positives_mask)))


def _grid_precision(precision, n_pos):
    """Precision at the first hit reaching each grid recall level.

    The j-th hit (1-based) is the first with recall j/P >= i/100, i.e.
    j = ceil(i*P/100). Integer arithmetic: float ceil picks the wrong j
    when i*P/100 lands an ulp away from an integer.
    """
    i = np.arange(PR_GRID_POINTS, dtype=np.int64)
    j = np.maximum(-(-(i * n_pos) // (PR_GRID_POINTS - 1)), 1)
    out = np.zeros(PR_GRID_POINTS)
    have = j <= precision.size
    out[have] = precision[j[have] - 1]
    return out


@dataclass(eq=False)
class EvalReport:
    """What evaluate measured; to_json writes report.json. == is identity;
    compare the fields with np.array_equal."""

    n_queries: int
    map: float
    macro_map: float
    precision_at: dict
    precision_at_radius: float
    radius: int
    pr_recall: np.ndarray
    pr_precision: np.ndarray
    per_class_ap: dict

    def to_json(self, path):
        doc = {
            "n_queries": self.n_queries,
            "map": self.map,
            "macro_map": self.macro_map,
            "precision_at": {str(n): v for n, v in self.precision_at.items()},
            "precision_at_radius": self.precision_at_radius,
            "radius": self.radius,
            "per_class_ap": {str(c): v for c, v in self.per_class_ap.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")

    def pr_to_csv(self, path):
        with open(path, "w") as f:
            f.write("recall,precision\n")
            for r, p in zip(self.pr_recall, self.pr_precision):
                f.write(f"{r:.2f},{float(p)!r}\n")


def _eval_one(qi, q_words, db, gt, depths, radius, exclude, cutoff):
    """One query's metrics, all read from the ranks of its positives."""
    mask = gt.positives_mask(qi)
    dist = hamming_distances(q_words, db)
    order = _nearest(dist, db.k)
    within = int(np.count_nonzero(dist <= radius))
    if exclude:
        # the query's own row leaves both the ranking and the positive set
        mask = mask.copy()
        mask[qi] = False
        order = order[order != qi]
        within -= int(dist[qi] <= radius)
    hits = np.flatnonzero(mask[order])
    n_pos = hits.size  # the ranking holds every positive
    precision = _hit_precision(hits)
    retrieved = precision if cutoff is None else precision[:np.searchsorted(hits, cutoff)]
    ap = _average_precision(retrieved, n_pos)
    pn = [_precision_at(hits, min(n, order.size)) for n in depths]
    pr = _precision_at(hits, within)
    grid_prec = _grid_precision(precision, n_pos) if n_pos else None
    return ap, pn, pr, grid_prec, n_pos


def evaluate(query_codes: PackedCodes, db_codes: PackedCodes, gt: GroundTruth,
             depths=(300,), radius=2, exclude_self=False, cutoff=None,
             count_empty=True):
    """Run the full metric suite for a query set against a database.

    exclude_self drops database item i from query i's ranking; only
    meaningful when the query set is the database itself. cutoff scores AP
    on the first `cutoff` ranks over every relevant item, so a truncated
    list is penalized for what it failed to retrieve. Depths cap at the
    ranking's size; the radius is inclusive. Queries with no relevant
    database item score 0 and stay in the averages (conservative);
    count_empty=False drops them instead. Macro mAP averages per-class AP
    means; a multi-label query contributes its AP to every class it
    carries, and database classes with no queries are skipped with a
    warning.
    """
    if query_codes.k != db_codes.k:
        raise ValueError("query and database code lengths differ")
    if gt.n_queries != query_codes.n:
        raise ValueError("query label count does not match query codes")
    if len(gt.db_labels) != db_codes.n:
        raise ValueError("database label count does not match database codes")
    if exclude_self and query_codes.n != db_codes.n:
        raise ValueError("exclude_self requires query set == database")
    depths = tuple(int(n) for n in depths)
    _check_min("depth", min(depths, default=1), 1)
    _check_min("radius", radius, 0)
    _check_min("cutoff", cutoff, 1)
    results = [_eval_one(qi, query_codes.words[qi], db_codes, gt, depths, radius,
                         exclude_self, cutoff)
               for qi in range(query_codes.n)]

    keep = [i for i, r in enumerate(results) if count_empty or r[4] > 0]
    if not keep:
        raise ValueError("no query has a relevant database item")
    aps = np.array([results[i][0] for i in keep])
    pn_mat = np.array([results[i][1] for i in keep])  # (kept, len(depths))
    prs = np.array([results[i][2] for i in keep])
    curves = [r[3] for r in results if r[3] is not None]

    by_class = {}
    for qi in keep:
        for c in gt.query_labels.row(qi).tolist():
            by_class.setdefault(c, []).append(results[qi][0])
    silent = [c for c in gt.members if c not in by_class]
    if silent:
        warnings.warn(f"classes with no queries skipped in macro mAP: {silent}", stacklevel=2)
    per_class_ap = {c: float(np.mean(v)) for c, v in sorted(by_class.items())}

    grid = np.linspace(0.0, 1.0, PR_GRID_POINTS)
    mean_curve = np.mean(curves, axis=0) if curves else np.zeros(PR_GRID_POINTS)
    return EvalReport(
        n_queries=len(keep),
        map=float(aps.mean()),
        macro_map=float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0,
        precision_at={n: float(pn_mat[:, i].mean()) for i, n in enumerate(depths)},
        precision_at_radius=float(prs.mean()),
        radius=int(radius),
        pr_recall=grid,
        pr_precision=mean_curve,
        per_class_ap=per_class_ap,
    )
