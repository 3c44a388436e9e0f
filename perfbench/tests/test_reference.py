import numpy as np

from esh.encoder import pack_codes
from esh.evaluation import average_precision, rank_database
from reference import ap_matches, reference_ap, reference_ranking, topk_matches


def _codes(n, k, seed):
    rng = np.random.default_rng(seed)
    return pack_codes(rng.choice([-1, 1], size=(n, k)))


def test_reference_agrees_with_esh_exactly():
    db = _codes(2000, 70, 0)
    queries = _codes(5, 70, 1)
    labels = np.random.default_rng(2).integers(0, 7, size=db.n)
    for qi in range(queries.n):
        ranking = rank_database(queries.words[qi], db)
        ids, dist = reference_ranking(queries.words[qi], db.words)
        assert topk_matches(ranking.ids[:10], ranking.distances[:10], ids, dist)
        relevant = labels == qi
        assert ap_matches(average_precision(ranking, relevant), reference_ap(ids, relevant))


def test_reference_ties_keep_ascending_id():
    db = pack_codes(np.array([[1, 1], [-1, 1], [1, 1], [1, -1]]))
    ids, dist = reference_ranking(db.words[0], db.words)
    assert ids.tolist() == [0, 2, 1, 3]
    assert dist.tolist() == [0, 0, 1, 1]


def test_checker_rejects_misordered_ranking():
    db = _codes(500, 32, 3)
    ids, dist = reference_ranking(db.words[7], db.words)
    top_ids, top_dist = ids[:10].copy(), dist[:10].copy()
    assert topk_matches(top_ids, top_dist, ids, dist)
    # swap two neighbours with different distances, keeping each distance
    # with its id: the order is wrong even though every pair is right
    j = int(np.flatnonzero(np.diff(top_dist) > 0)[0])
    top_ids[[j, j + 1]] = top_ids[[j + 1, j]]
    top_dist[[j, j + 1]] = top_dist[[j + 1, j]]
    assert not topk_matches(top_ids, top_dist, ids, dist)
    # equal distances but ids out of ascending order break the tie rule
    tie_ids = ids[:10].copy()
    k = int(np.flatnonzero(np.diff(dist[:10]) == 0)[0])
    tie_ids[[k, k + 1]] = tie_ids[[k + 1, k]]
    assert not topk_matches(tie_ids, dist[:10], ids, dist)


def test_checker_rejects_perturbed_ap():
    db = _codes(1000, 16, 4)
    relevant = np.random.default_rng(5).random(db.n) < 0.2
    ranking = rank_database(db.words[0], db)
    ap = average_precision(ranking, relevant)
    ids, _ = reference_ranking(db.words[0], db.words)
    ref = reference_ap(ids, relevant)
    assert ap_matches(ap, ref)
    assert not ap_matches(np.nextafter(ap, 1.0), ref)
    assert not ap_matches(ap, np.nextafter(ref, 0.0))


def test_reference_ap_without_positives_is_zero():
    assert reference_ap(np.arange(4), np.zeros(4, dtype=bool)) == 0.0
