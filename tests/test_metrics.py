import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pietsp.metrics import (BOUND_GROUP, MetricError, MetricReport, _bound_candidates, hit_metrics, ndcg_at_k, phr,
                            recall_at_k, top_k, top_k_rows)
from reference_metrics import ref_hit, ref_ndcg, ref_rank_all, ref_recall


def rank(scores, k):
    return top_k(np.asarray(scores, dtype=np.float64), k)


# --- top-k selection kernel -------------------------------------------------

def test_top_k_basic_order():
    assert list(rank([0.1, 0.9, 0.5], 2)) == [1, 2]


def test_top_k_tie_break_ascending_id():
    assert list(rank([1.0, 2.0, 2.0, 1.0, 2.0], 2)) == [1, 2]
    assert list(rank([1.0, 2.0, 2.0, 1.0, 2.0], 4)) == [1, 2, 4, 0]


def test_top_k_k_larger_than_vector():
    assert list(rank([3.0, 1.0, 2.0], 10)) == [0, 2, 1]


def test_top_k_rejects_bad_k():
    with pytest.raises(MetricError):
        rank([1.0], 0)


# a wide row of 20,013 = 32 * 625 + 13 scores is ranked by the bound pick: id 4,100 lies in a group's body,
# id 20,005 among the 13 leftover ids folded into the first groups
@pytest.mark.parametrize("k", [1, 2, 6, 9])
@pytest.mark.parametrize("where", [0, 3, 5, 4_100, 20_005])
def test_both_rankers_reject_nan_scores_for_every_k(where, k):
    n = 6 if where < 6 else 20_013
    scores = np.arange(float(n))
    scores[where] = np.nan
    with pytest.raises(MetricError, match="NaN"):
        top_k(scores, k)
    block = np.stack([np.arange(float(n)), scores, -np.arange(float(n))])
    with pytest.raises(MetricError, match="NaN"):
        top_k_rows(block, k)


# few distinct values (both zeros among them) force ties across the pick boundary
TIED_VALUES = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
KINDS = ("normal", "rounded", "tied", "equal", "neginf", "signed-zero", "group-tie")
# narrow vectors take argpartition; wide ones (n >= BOUND_GROUP * 4 max(k, BOUND_GROUP)) the bound pick
WIDTHS = st.one_of(st.integers(1, 200), st.integers(4_000, 20_000))


def draw_scores(rng, kind, n, k):
    """One score vector of ``kind``; the last three put ties or -inf at a wide vector's group-maximum bound."""
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "rounded":
        return np.round(rng.normal(size=n), 1)
    if kind == "tied":
        return rng.choice(TIED_VALUES, size=n)
    if kind == "equal":
        return np.full(n, 0.5)
    if kind == "neginf":  # mostly -inf, with fewer or more than k finite scores
        scores = np.full(n, -np.inf)
        finite = rng.choice(n, min(n, int(rng.integers(0, 2 * k + 1))), replace=False)
        scores[finite] = rng.normal(size=finite.size)
        return scores
    # a few scores above the k-th place and a tie at it: -0.0 and 0.0, or one value reached by more groups'
    # maxima than the pick needs, so the k lowest tied ids may lie in any of those groups
    scores = -1.0 - np.abs(rng.normal(size=n))
    picked = rng.choice(n, min(n, k + int(rng.integers(1, k + 2))), replace=False)
    tie = rng.choice([-0.0, 0.0], size=picked.size) if kind == "signed-zero" else 1.0
    scores[picked] = tie
    scores[picked[: int(rng.integers(0, k))]] = 2.0
    return scores


@given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 60), st.sampled_from(KINDS + ("nan",)))
@example(seed=0, n=50, k=1, kind="tied")
@example(seed=1, n=12, k=12, kind="tied")
@example(seed=2, n=7, k=30, kind="tied")
@example(seed=3, n=1, k=1, kind="nan")
@example(seed=4, n=9, k=20, kind="nan")
@example(seed=5, n=128 * 40 - 1, k=40, kind="rounded")
@example(seed=6, n=128 * 40, k=40, kind="rounded")
@example(seed=7, n=128 * 40, k=40, kind="group-tie")
@example(seed=8, n=4 * BOUND_GROUP**2 - 1, k=10, kind="signed-zero")
@example(seed=9, n=4 * BOUND_GROUP**2, k=10, kind="signed-zero")
@example(seed=10, n=20_000, k=60, kind="nan")
def test_top_k_matches_full_sort_reference(seed, n, k, kind):
    """Quantized scores force plenty of exact ties, the tied ones across the k-th place and between -0.0 and
    0.0; a NaN anywhere raises, whether or not k covers every id.  Wide vectors rank from the group-maximum
    bound, with -inf, -0.0 and 0.0, or one value many groups reach, at that bound."""
    rng = np.random.default_rng(seed)
    if kind == "nan":
        scores = rng.normal(size=n)
        scores[rng.integers(n)] = np.nan
        with pytest.raises(MetricError, match="NaN"):
            top_k(scores, k)
    else:
        scores = draw_scores(rng, kind, n, k)
        assert list(top_k(scores, k)) == ref_rank_all(scores)[: min(k, n)]


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), WIDTHS, st.integers(1, 50), st.sampled_from(KINDS + ("mixed",)))
@example(seed=0, users=3, n=1, k=1, kind="tied")
@example(seed=1, users=4, n=12, k=1, kind="tied")
@example(seed=2, users=2, n=12, k=12, kind="tied")
@example(seed=3, users=5, n=9, k=30, kind="normal")
@example(seed=4, users=4, n=128 * 40 - 1, k=40, kind="group-tie")
@example(seed=5, users=4, n=128 * 40, k=40, kind="group-tie")
@example(seed=6, users=3, n=128 * 40, k=40, kind="signed-zero")
@example(seed=7, users=5, n=20_000, k=50, kind="mixed")
def test_top_k_rows_equals_top_k_row_by_row(seed, users, n, k, kind):
    """"mixed" draws each row's kind, so one tie-heavy row can send a wide block to argpartition."""
    rng = np.random.default_rng(seed)
    block = np.stack([draw_scores(rng, rng.choice(KINDS) if kind == "mixed" else kind, n, k) for _ in range(users)])
    ranked = top_k_rows(block, k)
    assert ranked.shape == (users, min(k, n))
    for row, ids in zip(block, ranked):
        want = ref_rank_all(row)[:k]
        assert list(ids) == want
        assert list(top_k(row, k)) == want


@pytest.mark.parametrize("users", [1, 5])
def test_the_bound_pick_takes_wide_blocks_and_declines_ties_at_the_bound(users):
    """A normal wide block is ranked from few candidates; a block with too few groups per row, or one where
    every score ties at its row's bound, goes to argpartition before a candidate is extracted.  The bound is
    the k-th largest group maximum itself: over ascending scores it admits exactly the k highest."""
    rng = np.random.default_rng(users)
    k = 40
    ascending = np.tile(np.arange(128.0 * k), (users, 1))
    assert list(_bound_candidates(ascending, k) % (128 * k)) == list(range(127 * k, 128 * k)) * users
    wide = rng.normal(size=(users, 128 * k))
    flat = _bound_candidates(wide, k)
    assert flat is not None and users * k <= flat.size <= 4 * users * k
    assert _bound_candidates(wide[:, :-1], k) is None
    equal = np.zeros((users, 20_000))
    assert _bound_candidates(equal, k) is None
    assert list(top_k_rows(equal, k)[-1]) == list(range(k))
    # k groups whose every member ties at the bound: only k groups a row reach it, but 32k scores do
    striped = -1.0 - np.abs(rng.normal(size=(users, 128 * k)))
    striped.reshape(users, BOUND_GROUP, 4 * k)[:, :, :k] = 1.0
    assert _bound_candidates(striped, k) is None
    assert [list(ids) for ids in top_k_rows(striped, k)] == [ref_rank_all(row)[:k] for row in striped]
    # integers beyond 2**53 keep their order: the candidates are sorted in the block's own dtype
    counts = 2**60 + rng.integers(0, 5_000, size=(users, 128 * k))
    assert _bound_candidates(counts, k) is not None
    assert [list(ids) for ids in top_k_rows(counts, k)] == [ref_rank_all(row)[:k] for row in counts]


def test_top_k_refuses_a_2d_block():
    with pytest.raises(MetricError, match=r"^top_k expects a 1-D score vector, got shape \(2, 4\)$"):
        top_k(np.zeros((2, 4)), 2)


def test_top_k_rows_rejects_bad_input():
    with pytest.raises(MetricError):
        top_k_rows(np.zeros(4), 2)
    with pytest.raises(MetricError):
        top_k_rows(np.zeros((2, 4)), 0)


# --- spot values from closed forms -----------------------------------------

def test_recall_examples():
    assert recall_at_k([0, 2], {0, 1}) == 0.5
    assert recall_at_k([0, 1, 5], {0, 1}) == 1.0


def test_recall_empty_truth_rejected():
    with pytest.raises(MetricError):
        recall_at_k([0], set())


def test_ndcg_rank1_is_one():
    assert ndcg_at_k([3, 0, 1], {3}, 1) == 1.0
    assert ndcg_at_k([3, 0, 1], {3}, 3) == 1.0


def test_ndcg_rank2_single_truth_closed_form():
    value = ndcg_at_k([9, 3, 1], {3}, 2)
    assert abs(value - 1.0 / math.log2(3.0)) < 1e-15
    assert round(value, 5) == 0.63093


def test_ndcg_rejects_k_below_one_and_an_empty_ranking():
    with pytest.raises(MetricError, match="k >= 1"):
        ndcg_at_k([3], {3}, 0)
    with pytest.raises(MetricError, match="k >= 1"):
        ndcg_at_k([3, 1], {3}, -3)
    with pytest.raises(MetricError, match="empty"):
        ndcg_at_k([], {3}, 5)


def test_hit_metrics_rejects_bad_k_and_empty_truth():
    hits = np.array([[True, False], [False, True]])
    for k in (0, -3):
        with pytest.raises(MetricError, match="k >= 1"):
            hit_metrics(hits, np.array([1, 2]), k)
    with pytest.raises(MetricError, match="empty ground-truth"):
        hit_metrics(hits, np.array([1, 0]), 2)


def test_phr_examples():
    assert phr([True, True]) == 1.0
    assert phr([True, False, False, False]) == 0.25


def test_phr_no_users_rejected():
    with pytest.raises(MetricError):
        phr([])


# --- oracle agreement -------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
def test_metrics_match_bruteforce_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    scores = np.round(rng.normal(size=n), 2)
    truth = set(int(t) for t in rng.choice(n, int(rng.integers(1, min(6, n) + 1)), replace=False))
    k = int(rng.integers(1, n + 1))
    ranked = top_k(scores, k)
    assert abs(recall_at_k(ranked, truth) - ref_recall(scores, truth, k)) < 1e-12
    assert abs(ndcg_at_k(ranked, truth, k) - ref_ndcg(scores, truth, k)) < 1e-12
    hit = any(int(i) in truth for i in ranked)
    assert hit == ref_hit(scores, truth, k)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 60))
def test_hit_metrics_rows_match_bruteforce_reference(seed, users, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    block = np.round(rng.normal(size=(users, n)), 1)
    truths = [set(int(t) for t in rng.choice(n, int(rng.integers(1, min(6, n) + 1)), replace=False))
              for _ in range(users)]
    ranked = top_k_rows(block, k)
    hits = np.array([[int(i) in truth for i in ids] for ids, truth in zip(ranked, truths)])
    recall, ndcg, hit = hit_metrics(hits, np.array([len(t) for t in truths]), k)
    for b, (row, truth) in enumerate(zip(block, truths)):
        assert abs(recall[b] - ref_recall(row, truth, k)) < 1e-12
        assert abs(ndcg[b] - ref_ndcg(row, truth, k)) < 1e-12
        assert hit[b] == ref_hit(row, truth, k)


# --- invariants -------------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
def test_monotone_in_k_and_bounds(seed):
    rng = np.random.default_rng(seed)
    n = 50
    scores = rng.normal(size=n)
    truth = set(int(t) for t in rng.choice(n, 4, replace=False))
    ranked = top_k(scores, n)
    prev_recall, prev_dcg, prev_hit = 0.0, 0.0, False
    for k in (1, 3, 5, 10, 20, 50):
        r = recall_at_k(ranked[:k], truth)
        nd = ndcg_at_k(ranked, truth, k)
        dcg = sum(1.0 / math.log2(p + 2) for p in range(k) if int(ranked[p]) in truth)
        hit = any(int(i) in truth for i in ranked[:k])
        assert 0.0 <= r <= 1.0 and 0.0 <= nd <= 1.0
        assert r >= prev_recall and dcg >= prev_dcg - 1e-12
        assert hit >= prev_hit
        prev_recall, prev_dcg, prev_hit = r, dcg, hit


@given(st.integers(0, 2**32 - 1))
def test_invariant_to_monotone_score_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=40)
    transformed = 3.0 * scores + 11.0  # strictly increasing
    assert list(top_k(scores, 10)) == list(top_k(transformed, 10))


def test_recall_positive_implies_hit():
    ranked = [5, 7, 2]
    truth = {2, 99}
    assert recall_at_k(ranked, truth) > 0
    assert any(i in truth for i in ranked)


def test_monte_carlo_recall_of_random_scores():
    # vocab 100, |truth| = 3, k = 10: expected recall 0.1
    rng = np.random.default_rng(42)
    total = 0.0
    trials = 2000
    for _ in range(trials):
        scores = rng.normal(size=100)
        truth = set(int(t) for t in rng.choice(100, 3, replace=False))
        total += recall_at_k(top_k(scores, 10), truth)
    assert abs(total / trials - 0.1) < 0.012


def test_report_table_and_json():
    rep = MetricReport(
        k_list=(10, 20),
        recall={10: 0.5, 20: 0.75},
        ndcg={10: 0.4, 20: 0.45},
        phr={10: 1.0, 20: 1.0},
        users_evaluated=8,
    )
    table = rep.format_table()
    assert "@10" in table and "Recall" in table and "0.7500" in table
    assert '"users_evaluated": 8' in rep.to_json()
