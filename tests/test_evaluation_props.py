"""Property tests of the ranking and the metrics; they need hypothesis (the
test extra)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esh import evaluation
from esh.dataset import LabelSet
from esh.encoder import pack_codes
from esh.evaluation import GroundTruth, _nearest, evaluate, hamming_distances, rank_database
from oracles import eval_one, label_set


def random_bits(rng, n, k):
    return np.where(rng.standard_normal((n, k)) > 0, 1, -1).astype(np.int8)


def bit_loop_distance(a_bits, b_bits):
    return sum(1 for x, y in zip(a_bits, b_bits) if x != y)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 200),
    n=st.integers(1, 60),
    distinct=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rank_equals_lexsort_oracle_under_heavy_ties(k, n, distinct, seed, data):
    # db rows come from a pool of a few codes, so most distances tie
    rng = np.random.default_rng(seed)
    pool = random_bits(rng, distinct, k)
    B = pool[rng.integers(0, distinct, n)]
    q = pool[:1] if rng.random() < 0.5 else random_bits(rng, 1, k)
    top = data.draw(st.one_of(st.none(), st.integers(1, n + 2)), label="top")
    codes = pack_codes(B)
    r = rank_database(pack_codes(q).words[0], codes, top=top)
    dist = np.array([bit_loop_distance(q[0], B[i]) for i in range(n)], dtype=np.int64)
    ids = np.arange(n)
    want = np.lexsort((ids, dist))[:top]
    assert r.ids.size == (n if top is None else min(top, n))
    assert np.array_equal(r.ids, want)
    assert np.array_equal(r.distances, dist[want])
    assert r.distances.dtype == np.int64
    got = hamming_distances(pack_codes(q).words[0], codes)
    assert got.dtype == (np.uint8 if k <= 64 else np.uint16) and np.array_equal(got, dist)


@pytest.mark.parametrize("k", [255, 2**16 - 1])
def test_top_of_a_large_database_equals_stable_sort(k):
    # 70 000 ids take 17 bits. Distances up to 255 fit a 25-bit key, and a
    # partition this large leaves its head unsorted; distances up to 65 535
    # would need a 33-bit key, so the selection falls back to the sort
    rng = np.random.default_rng(7)
    dist = rng.integers(0, k + 1, 70_000).astype(np.uint8 if k < 256 else np.uint16)
    dist[rng.integers(0, dist.size, 500)] = 3  # ties at the top
    want = np.lexsort((np.arange(dist.size), dist))
    for top in (1, 10, 600, 69_999, 70_000):
        assert np.array_equal(_nearest(dist, k, top), want[:top])


def _report_or_error(*args, **kwargs):
    try:
        return evaluate(*args, **kwargs)
    except ValueError as e:  # no query with a positive, under count_empty=False
        return str(e)


@pytest.mark.filterwarnings("ignore:classes with no queries")
@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 7, 64, 65, 130]),  # uint8, one word; uint16, two and three words
    n=st.integers(1, 300),
    distinct=st.integers(1, 6),
    n_classes=st.integers(1, 5),
    multi=st.booleans(),
    exclude=st.booleans(),
    cutoff=st.sampled_from([None, 1, 3, 50]),
    count_empty=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_evaluate_equals_the_oracle_per_query(k, n, distinct, n_classes, multi, exclude, cutoff,
                                              count_empty, seed, data):
    rng = np.random.default_rng(seed)
    pool = random_bits(rng, distinct, k)  # a few codes, so most distances tie
    db = pack_codes(pool[rng.integers(0, distinct, n)])
    nq = n if exclude else int(rng.integers(1, 12))
    queries = db if exclude else pack_codes(pool[rng.integers(0, distinct, nq)])
    if multi:
        def labels(m):
            return label_set([rng.choice(n_classes, int(rng.integers(1, n_classes + 1)), replace=False)
                              for _ in range(m)])
    else:
        def labels(m):
            return LabelSet.from_array(rng.integers(0, n_classes, m))
    db_labels = labels(n)
    gt = GroundTruth(db_labels if exclude else labels(nq), db_labels)
    radius = data.draw(st.integers(0, k + 1), label="radius")
    depths = tuple(data.draw(st.lists(st.integers(1, n + 5), min_size=1, max_size=3), label="depths"))
    kw = dict(depths=depths, radius=radius, exclude_self=exclude, cutoff=cutoff,
              count_empty=count_empty)
    got = _report_or_error(queries, db, gt, **kw)
    with mock.patch.object(evaluation, "_eval_one", eval_one):
        want = _report_or_error(queries, db, gt, **kw)
    if isinstance(want, str):
        assert got == want
        return
    assert got.n_queries == want.n_queries
    assert got.map == want.map
    assert got.macro_map == want.macro_map
    assert got.precision_at == want.precision_at
    assert got.precision_at_radius == want.precision_at_radius
    assert got.radius == want.radius
    assert np.array_equal(got.pr_recall, want.pr_recall)
    assert np.array_equal(got.pr_precision, want.pr_precision)
    assert got.per_class_ap == want.per_class_ap


label_ids = st.one_of(st.integers(-3, 3), st.integers(2**63 - 3, 2**63 - 1),
                      st.integers(-(2**63), -(2**63) + 2))


@settings(max_examples=200, deadline=None)
@given(queries=st.lists(st.lists(label_ids, min_size=1, max_size=4), min_size=1, max_size=8),
       db=st.lists(st.lists(label_ids, min_size=1, max_size=4), min_size=1, max_size=30),
       single_queries=st.booleans(), single_db=st.booleans())
def test_multi_label_positives_equal_a_set_intersection_loop(queries, db, single_queries,
                                                             single_db):
    # ids from three narrow pools near 0 and the int64 limits: classes that
    # only queries or only the database hold turn up often. Single- and
    # multi-label sets take the same path
    if single_queries:
        queries = [row[:1] for row in queries]
    if single_db:
        db = [row[:1] for row in db]
    gt = GroundTruth(label_set(queries), label_set(db))
    for qi, q in enumerate(queries):
        want = [bool(set(q) & set(row)) for row in db]
        assert gt.positives_mask(qi).tolist() == want
