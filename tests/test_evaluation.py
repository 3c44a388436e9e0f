import dataclasses
import json

import numpy as np
import pytest

from esh.dataset import LabelSet
from esh.encoder import pack_codes, unpack_codes
from esh.evaluation import (
    GroundTruth,
    Ranking,
    average_precision,
    evaluate,
    hamming_distances,
    pr_curve,
    precision_at,
    precision_within_radius,
    rank_database,
)
from oracles import hamming_distance


def random_bits(rng, n, k):
    return np.where(rng.standard_normal((n, k)) > 0, 1, -1).astype(np.int8)


def bit_loop_distance(a_bits, b_bits):
    return sum(1 for x, y in zip(a_bits, b_bits) if x != y)


def make_ranking(dist_list):
    """Ranking from raw per-id distances, applying the stable tie rule."""
    dist = np.asarray(dist_list)
    order = np.argsort(dist, kind="stable")
    return Ranking(ids=order, distances=dist[order])


def test_hamming_identical_and_complement():
    rng = np.random.default_rng(0)
    B = random_bits(rng, 1, 19)
    a = pack_codes(B).words[0]
    b = pack_codes(-B).words[0]
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == 19


def test_hamming_matches_bit_loop():
    rng = np.random.default_rng(1)
    for k in (5, 64, 70):
        A = random_bits(rng, 10, k)
        B = random_bits(rng, 10, k)
        pa, pb = pack_codes(A), pack_codes(B)
        for i in range(10):
            want = bit_loop_distance(A[i], B[i])
            assert hamming_distance(pa.words[i], pb.words[i]) == want


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(np.zeros(1, dtype=np.uint64), np.zeros(2, dtype=np.uint64))


def test_rank_all_equal_codes_id_order():
    codes = pack_codes(np.ones((7, 4)))
    r = rank_database(codes.words[0], codes)
    assert np.array_equal(r.ids, np.arange(7))
    assert np.all(r.distances == 0)


def test_rank_exact_match_first():
    rng = np.random.default_rng(2)
    B = random_bits(rng, 30, 12)
    codes = pack_codes(B)
    r = rank_database(codes.words[17], codes)
    assert r.ids[0] == np.flatnonzero((B == B[17]).all(axis=1))[0]
    assert r.distances[0] == 0


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(3)
    B = random_bits(rng, 50, 6)  # few bits, many ties
    codes = pack_codes(B)
    q = random_bits(rng, 1, 6)
    qw = pack_codes(q).words[0]
    r = rank_database(qw, codes)
    dist = np.array([bit_loop_distance(q[0], B[i]) for i in range(50)])
    want = np.lexsort((np.arange(50), dist))
    assert np.array_equal(r.ids, want)
    assert np.array_equal(r.distances, dist[want])
    assert np.all(np.diff(r.distances) >= 0)


def test_rank_distances_above_uint16_do_not_wrap():
    # k = 70000: distances up to 70000 do not fit the uint16 used below 65536 bits
    k = 70000
    q = np.ones((1, k), dtype=np.int8)
    B = np.ones((5, k), dtype=np.int8)
    B[0] = -1  # distance 70000, would wrap to 4464 in uint16
    B[1, :65536] = -1  # 65536, would wrap to 0
    B[2, :100] = -1  # 100
    B[4, :65535] = -1  # 65535, the largest uint16
    codes = pack_codes(B)
    qw = pack_codes(q).words[0]
    dist = np.array([70000, 65536, 100, 0, 65535])
    assert np.array_equal(hamming_distances(qw, codes), dist)
    r = rank_database(qw, codes)
    assert np.array_equal(r.ids, [3, 2, 4, 1, 0])
    assert np.array_equal(r.distances, [0, 100, 65535, 65536, 70000])
    assert hamming_distances(qw, codes, narrow=True).dtype == np.int64


def test_narrow_distances_are_the_smallest_unsigned_type():
    rng = np.random.default_rng(5)
    for k, dtype in ((1, np.uint8), (64, np.uint8), (65, np.uint16), (200, np.uint16)):
        B = random_bits(rng, 9, k)
        codes = pack_codes(B)
        narrow = hamming_distances(codes.words[0], codes, narrow=True)
        assert narrow.dtype == dtype
        assert np.array_equal(narrow, hamming_distances(codes.words[0], codes))


def test_rank_exclude_id():
    codes = pack_codes(np.ones((5, 3)))
    r = rank_database(codes.words[0], codes, exclude_id=2)
    assert 2 not in r.ids
    assert len(r.ids) == 4


def test_rank_rejects_top_below_one():
    codes = pack_codes(np.ones((5, 3)))
    for top in (0, -1):
        with pytest.raises(ValueError, match="top"):
            rank_database(codes.words[0], codes, top=top)


def test_ap_perfect_and_simple_cases():
    mask = np.array([True, True, False, False])
    assert average_precision(make_ranking([0, 1, 2, 3]), mask) == 1.0
    # single positive at rank 2 of 4
    mask = np.array([False, True, False, False])
    assert average_precision(make_ranking([0, 1, 2, 3]), mask) == 0.5


def test_ap_sums_left_to_right_like_a_rank_loop():
    # thousands of hits: a pairwise sum would differ from the loop in the last bits
    rng = np.random.default_rng(12)
    for n, p in ((6000, 0.8), (3000, 0.3)):
        mask = rng.random(n) < p
        r = make_ranking(rng.integers(0, 40, size=n))
        hits, total = 0, 0.0
        for rank, db_id in enumerate(r.ids, start=1):
            if mask[db_id]:
                hits += 1
                total += hits / rank
        assert average_precision(r, mask) == total / mask.sum()
        cut, hits, total = n // 3, 0, 0.0
        for rank, db_id in enumerate(r.ids[:cut], start=1):
            if mask[db_id]:
                hits += 1
                total += hits / rank
        assert average_precision(r, mask, cutoff=cut) == total / mask.sum()


def test_ap_cutoff_zero_when_nothing_retrieved():
    mask = np.array([False, False, False, True])
    r = make_ranking([0, 1, 2, 3])
    assert average_precision(r, mask, cutoff=2) == 0.0
    assert average_precision(r, mask) == 0.25


def test_ap_rejects_cutoff_below_one():
    r = make_ranking([0, 1, 2, 3])
    for mask in (np.array([True, False, True, False]), np.zeros(4, dtype=bool)):
        for cutoff in (0, -2):
            with pytest.raises(ValueError, match="cutoff"):
                average_precision(r, mask, cutoff=cutoff)
    gt = GroundTruth(LabelSet.from_array([0, 1]), LabelSet.from_array([0, 1, 0, 1]))
    q, db = pack_codes(np.eye(4)[:2] * 2 - 1), pack_codes(np.eye(4) * 2 - 1)
    with pytest.raises(ValueError, match="cutoff"):
        evaluate(q, db, gt, depths=(1,), cutoff=0)


def test_negative_radius_rejected():
    mask = np.array([True, False, True, False])
    with pytest.raises(ValueError, match="radius"):
        precision_within_radius(make_ranking([0, 1, 2, 3]), mask, radius=-1)
    gt = GroundTruth(LabelSet.from_array([0, 1]), LabelSet.from_array([0, 1, 0, 1]))
    q, db = pack_codes(np.eye(4)[:2] * 2 - 1), pack_codes(np.eye(4) * 2 - 1)
    with pytest.raises(ValueError, match="radius"):
        evaluate(q, db, gt, depths=(1,), radius=-1)


def test_evaluate_checks_its_arguments_before_ranking(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a query was ranked before the arguments were checked")

    monkeypatch.setattr("esh.evaluation.hamming_distances", fail)
    monkeypatch.setattr(GroundTruth, "positives_mask", fail)
    gt = GroundTruth(LabelSet.from_array([0, 1]), LabelSet.from_array([0, 1, 0, 1]))
    q, db = pack_codes(np.eye(4)[:2] * 2 - 1), pack_codes(np.eye(4) * 2 - 1)
    for kw, match in ((dict(depths=(0,)), "depth must be >= 1, got 0"),
                      (dict(depths=(5, -3)), "depth must be >= 1, got -3"),
                      (dict(radius=-1), "radius must be >= 0, got -1"),
                      (dict(cutoff=0), "cutoff must be >= 1, got 0")):
        with pytest.raises(ValueError, match=match):
            evaluate(q, db, gt, **kw)


def test_ap_no_positives_is_zero():
    assert average_precision(make_ranking([0, 1]), np.array([False, False])) == 0.0


def test_precision_at_basic_and_cap():
    mask = np.array([True, True, True, False])
    r = make_ranking([0, 1, 2, 3])
    assert precision_at(r, mask, 3) == 1.0
    assert precision_at(r, mask, 100) == 0.75  # capped at database size
    assert precision_at(make_ranking([0, 1]), np.array([False, False]), 2) == 0.0
    with pytest.raises(ValueError):
        precision_at(r, mask, 0)


def test_radius_precision_cases():
    # nothing within radius 2 scores zero by definition
    mask = np.array([True, False])
    assert precision_within_radius(make_ranking([5, 7]), mask, radius=2) == 0.0
    # lone duplicate positive at distance 0
    mask = np.array([True, False])
    assert precision_within_radius(make_ranking([0, 9]), mask, radius=2) == 1.0


def test_radius_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dist = rng.integers(0, 6, size=30)
        mask = rng.random(30) < 0.4
        r = make_ranking(dist)
        within = dist <= 2
        want = (mask & within).sum() / within.sum() if within.any() else 0.0
        assert precision_within_radius(r, mask, radius=2) == want


def test_pr_curve_perfect_and_inverted():
    mask = np.array([True, True, False, False, False])
    rec, prec = pr_curve(make_ranking([0, 1, 2, 3, 4]), mask)
    assert np.array_equal(rec, [0.5, 1.0])
    assert np.array_equal(prec, [1.0, 1.0])
    # all positives dead last
    mask = np.array([True, True, False, False, False])
    rec, prec = pr_curve(make_ranking([9, 8, 0, 1, 2]), mask)
    assert rec[-1] == 1.0
    assert prec[-1] == 2 / 5
    assert np.all(np.diff(rec) > 0)


def test_pr_curve_matches_enumeration():
    rng = np.random.default_rng(5)
    dist = rng.integers(0, 8, size=40)
    mask = rng.random(40) < 0.3
    r = make_ranking(dist)
    rec, prec = pr_curve(r, mask)
    hits = 0
    want = []
    for rank, db_id in enumerate(r.ids, start=1):
        if mask[db_id]:
            hits += 1
            want.append((hits / mask.sum(), hits / rank))
    assert np.array_equal(rec, [w[0] for w in want])
    assert np.array_equal(prec, [w[1] for w in want])


def test_ground_truth_single_label():
    gt = GroundTruth(
        LabelSet.from_array([0, 1]), LabelSet.from_array([0, 1, 0, 2])
    )
    assert np.array_equal(gt.positives_mask(0), [True, False, True, False])
    assert np.array_equal(gt.positives_mask(1), [False, True, False, False])


def test_ground_truth_multi_label_shares_any():
    q = LabelSet("multi", ((1, 2),))
    db = LabelSet("multi", ((1,), (2, 5), (3,), (4, 1)))
    gt = GroundTruth(q, db)
    assert np.array_equal(gt.positives_mask(0), [True, True, False, True])


def full_eval_oracle(q_bits, db_bits, q_ids, db_ids, depths, radius):
    """Slow metric suite: per-bit distances, explicit sorts and loops."""
    nq = q_bits.shape[0]
    aps, pns, prs = [], [], []
    for qi in range(nq):
        dist = np.array([bit_loop_distance(q_bits[qi], db_bits[j]) for j in range(db_bits.shape[0])])
        order = np.lexsort((np.arange(dist.size), dist))
        rel = np.array([db_ids[j] == q_ids[qi] for j in order])
        npos = rel.sum()
        hits, ap = 0, 0.0
        for rank, flag in enumerate(rel, start=1):
            if flag:
                hits += 1
                ap += hits / rank
        aps.append(ap / npos if npos else 0.0)
        row = []
        for N in depths:
            N = min(N, dist.size)
            row.append(rel[:N].sum() / N)
        pns.append(row)
        within = dist[order] <= radius
        prs.append(rel[within].sum() / within.sum() if within.any() else 0.0)
    return np.array(aps), np.array(pns), np.array(prs)


@pytest.mark.filterwarnings("ignore:classes with no queries")
def test_evaluate_matches_full_oracle():
    rng = np.random.default_rng(6)
    for trial in range(10):
        k = int(rng.integers(4, 17))
        nq, ndb = int(rng.integers(3, 15)), int(rng.integers(10, 100))
        q_bits = random_bits(rng, nq, k)
        db_bits = random_bits(rng, ndb, k)
        q_ids = rng.integers(0, 4, size=nq)
        db_ids = rng.integers(0, 4, size=ndb)
        depths = (3, 10, 1000)
        gt = GroundTruth(LabelSet.from_array(q_ids), LabelSet.from_array(db_ids))
        rep = evaluate(pack_codes(q_bits), pack_codes(db_bits), gt,
                       depths=depths, radius=2)
        aps, pns, prs = full_eval_oracle(q_bits, db_bits, q_ids, db_ids, depths, 2)
        assert rep.map == aps.mean()
        assert rep.precision_at_radius == prs.mean()
        for i, N in enumerate(depths):
            assert rep.precision_at[N] == pns[:, i].mean()
        by_class = {}
        for qi, c in enumerate(q_ids):
            by_class.setdefault(int(c), []).append(aps[qi])
        macro = np.mean([np.mean(v) for c, v in sorted(by_class.items())])
        assert rep.macro_map == macro


def test_evaluate_exclude_self_perfect_on_distinct_labels():
    rng = np.random.default_rng(7)
    B = random_bits(rng, 12, 10)
    ids = np.arange(12) % 3
    gt = GroundTruth(LabelSet.from_array(ids), LabelSet.from_array(ids))
    codes = pack_codes(B)
    rep = evaluate(codes, codes, gt, depths=(1,), exclude_self=True)
    # each query's own row is gone from both the ranking and the positives
    for qi in range(12):
        mask = ids == ids[qi]
        mask[qi] = False
        r = rank_database(codes.words[qi], codes, exclude_id=qi)
        assert average_precision(r, mask) <= 1.0
    assert rep.n_queries == 12


def test_evaluate_self_retrieval_unique_labels_map_one():
    # every item its own sole positive, self-exclusion off
    B = unpack_codes(pack_codes(np.eye(8) * 2 - 1))
    codes = pack_codes(B)
    ids = np.arange(8)
    gt = GroundTruth(LabelSet.from_array(ids), LabelSet.from_array(ids))
    rep = evaluate(codes, codes, gt, depths=(1,))
    assert rep.map == 1.0
    assert rep.precision_at[1] == 1.0


def test_evaluate_empty_positive_handling():
    B = np.ones((3, 4))
    codes = pack_codes(B)
    gt = GroundTruth(LabelSet.from_array([0, 1, 1]), LabelSet.from_array([1, 1, 1]))
    rep_counted = evaluate(codes, codes, gt, depths=(1,))
    rep_skipped = evaluate(codes, codes, gt, depths=(1,), count_empty=False)
    assert rep_counted.n_queries == 3
    assert rep_skipped.n_queries == 2
    assert rep_counted.map < rep_skipped.map


def test_evaluate_warns_on_silent_class():
    B = np.ones((2, 4))
    codes = pack_codes(B)
    gt = GroundTruth(LabelSet.from_array([0, 0]), LabelSet.from_array([0, 5]))
    with pytest.warns(UserWarning, match="no queries"):
        evaluate(codes, codes, gt, depths=(1,))


@pytest.mark.filterwarnings("ignore:classes with no queries")
def test_evaluate_query_order_invariance():
    rng = np.random.default_rng(8)
    B = random_bits(rng, 20, 8)
    q = random_bits(rng, 6, 8)
    q_ids = rng.integers(0, 3, size=6)
    db_ids = rng.integers(0, 3, size=20)
    gt1 = GroundTruth(LabelSet.from_array(q_ids), LabelSet.from_array(db_ids))
    rep1 = evaluate(pack_codes(q), pack_codes(B), gt1, depths=(5,))
    perm = rng.permutation(6)
    gt2 = GroundTruth(LabelSet.from_array(q_ids[perm]), LabelSet.from_array(db_ids))
    rep2 = evaluate(pack_codes(q[perm]), pack_codes(B), gt2, depths=(5,))
    assert np.isclose(rep1.map, rep2.map, rtol=1e-15)
    assert np.isclose(rep1.macro_map, rep2.macro_map, rtol=1e-15)


def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(10)
    for _ in range(20):
        dist = rng.integers(0, 9, size=25)
        mask = rng.random(25) < rng.uniform(0.1, 0.9)
        r = make_ranking(dist)
        assert 0.0 <= average_precision(r, mask) <= 1.0
        assert 0.0 <= precision_at(r, mask, int(rng.integers(1, 30))) <= 1.0
        assert 0.0 <= precision_within_radius(r, mask) <= 1.0


def test_report_json_and_pr_csv(tmp_path):
    rng = np.random.default_rng(11)
    B = random_bits(rng, 15, 8)
    ids = rng.integers(0, 3, size=15)
    gt = GroundTruth(LabelSet.from_array(ids), LabelSet.from_array(ids))
    codes = pack_codes(B)
    rep = evaluate(codes, codes, gt, depths=(5,), exclude_self=True)
    jp = tmp_path / "report.json"
    rep.to_json(jp)
    doc = json.loads(jp.read_text())
    assert doc["map"] == rep.map
    assert doc["precision_at"]["5"] == rep.precision_at[5]
    cp = tmp_path / "pr.csv"
    rep.pr_to_csv(cp)
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "recall,precision"
    assert len(lines) == 102
    rec = [float(l.split(",")[0]) for l in lines[1:]]
    assert rec == [round(0.01 * i, 2) for i in range(101)]


def test_precision_of_an_empty_ranking_is_zero():
    r = make_ranking(np.array([], dtype=np.int64))
    assert precision_at(r, np.zeros(0, dtype=bool), 5) == 0.0
    assert precision_within_radius(r, np.zeros(0, dtype=bool)) == 0.0


def test_report_json_refuses_values_json_cannot_hold(tmp_path):
    codes = pack_codes(random_bits(np.random.default_rng(12), 4, 8))
    labels = LabelSet.from_array([0, 1, 0, 1])
    rep = evaluate(codes, codes, GroundTruth(labels, labels), depths=(2,))
    with pytest.raises(ValueError, match="JSON compliant"):
        dataclasses.replace(rep, map=float("nan")).to_json(tmp_path / "report.json")
