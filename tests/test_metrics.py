import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pietsp.metrics import (BOUND_GROUP, MetricError, MetricReport, _candidates, _group_size, hit_metrics, ndcg_at_k,
                            phr, recall_at_k, top_k, top_k_rows)
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
    for k in (0, -3):
        with pytest.raises(MetricError, match=rf"^top_k needs k >= 1, got {k}$"):
            rank([1.0], k)


# a wide row of 20,013 = 32 * 625 + 13 scores is cut into groups of 32: id 4,100 lies in a group's body,
# id 20,005 among the 13 leftover ids folded into the first groups
@pytest.mark.parametrize("k", [1, 2, 6, 9])
@pytest.mark.parametrize("where", [0, 3, 5, 4_100, 20_005])
def test_both_rankers_reject_nan_scores_for_every_k(where, k):
    n = 6 if where < 6 else 20_013
    scores = np.arange(float(n))
    scores[where] = np.nan
    with pytest.raises(MetricError, match=r"^top_k: the scores hold NaN$"):
        top_k(scores, k)
    block = np.stack([np.arange(float(n)), scores, -np.arange(float(n))])
    with pytest.raises(MetricError, match=r"^top_k_rows: the scores hold NaN$"):
        top_k_rows(block, k)


# few distinct values (both zeros among them) force ties across the pick boundary
TIED_VALUES = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
KINDS = ("normal", "rounded", "tied", "equal", "neginf", "signed-zero", "group-tie")
# every width: the group size g steps up with n from 1 (the row itself) to BOUND_GROUP
WIDTHS = st.integers(1, 20_000)


def at_group_steps(k, **fields):
    """An @example at each width n where ``_group_size(n, k)`` steps up to g, at n - 1, and at g m + g - 1,
    the width with the most leftover ids; the seeds count up and the kinds cycle through KINDS."""
    widths = []
    for n in range(2, 20_001):
        g = _group_size(n, k)
        if g > _group_size(n - 1, k):
            widths += [n - 1, n, n + g - 1]

    def apply(test):
        for seed, n in enumerate(widths):
            test = example(seed=seed, n=n, k=k, kind=KINDS[seed % len(KINDS)], **fields)(test)
        return test
    return apply


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
@example(seed=10, n=20_000, k=60, kind="nan")
@at_group_steps(10)
@at_group_steps(100)
def test_top_k_matches_full_sort_reference(seed, n, k, kind):
    """Quantized scores force plenty of exact ties, the tied ones across the k-th place and between -0.0 and
    0.0; a NaN anywhere raises, whether or not k covers every id.  Every vector ranks from its group-maximum
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
@example(seed=7, users=5, n=20_000, k=50, kind="mixed")
@at_group_steps(40, users=3)
def test_top_k_rows_equals_top_k_row_by_row(seed, users, n, k, kind):
    """"mixed" draws each row's kind, so one tie-heavy row can crowd its bound beside rows that do not."""
    rng = np.random.default_rng(seed)
    block = np.stack([draw_scores(rng, rng.choice(KINDS) if kind == "mixed" else kind, n, k) for _ in range(users)])
    ranked = top_k_rows(block, k)
    assert ranked.shape == (users, min(k, n))
    for row, ids in zip(block, ranked):
        want = ref_rank_all(row)[:k]
        assert list(ids) == want
        assert list(top_k(row, k)) == want


def test_the_group_size_keeps_4k_groups_and_room_for_the_leftover_ids():
    """g ids a group, m = n // g groups: a row cut into groups keeps at least 4k of them, and the fewer than
    g leftover ids fold one each into the first groups."""
    for k in (1, 10, 32, 33, 40, 100, 1_000):
        for n in range(1, 20_001):
            g = _group_size(n, k)
            m = n // g
            assert 1 <= g <= min(BOUND_GROUP, math.isqrt(n))
            assert g == 1 or m >= 4 * k
            assert n - g * m <= m


@pytest.mark.parametrize("users", [1, 5])
def test_the_candidates_hold_each_rows_top_k_and_at_most_k_ties_at_its_bound(users):
    """``_candidates`` keeps every score that can reach its row's top k.  Over ascending scores the bound,
    the k-th largest group maximum, admits exactly the k highest; a normal wide block gives k to 4k a row.
    A block whose rows crowd their bounds -- all zeros, k - 1 groups above the bound and 3k groups or one id
    at it, or frequency-like counts that are mostly 0 -- keeps each row's scores above its bound, at most
    (g + 1)(k - 1) of them, and only its k lowest ids at the bound; the rankings match the reference."""
    rng = np.random.default_rng(users)
    k = 24
    g, m = BOUND_GROUP, 256
    n = g * m + g - 1  # the most leftover ids: groups 0 ... g - 2 hold g + 1 ids
    assert _group_size(n, k) == g
    ascending = np.tile(np.arange(float(n)), (users, 1))
    flat, counts = _candidates(ascending, k, "top_k_rows")
    assert list(flat % n) == list(range(n - k, n)) * users
    assert (counts is None) == (users == 1)  # a block of at most 4k candidates is not counted
    assert k * users <= _candidates(rng.normal(size=(users, n)), k, "top_k_rows")[0].size <= 4 * k * users

    striped = -1.0 - np.abs(rng.normal(size=(users, n)))
    groups = striped[:, : g * m].reshape(users, g, m)
    groups[:, :, : k - 1] = 2.0
    striped[:, g * m : g * m + k - 1] = 2.0
    groups[:, :, k - 1 : 4 * k - 1] = 1.0
    lone = np.where(striped == 1.0, -1.0, striped)
    lone[:, k - 1] = 1.0  # one id at the bound: nothing to clamp
    crowded = {"zero": (np.zeros((users, n)), k),
               "striped": (striped, (g + 1) * (k - 1) + k),
               "lone tie": (lone, (g + 1) * (k - 1) + 1),
               "frequency": (rng.poisson(0.002, size=(users, n)) * rng.integers(1, 4, size=(users, 1)), None)}
    for block, exact in crowded.values():
        flat, counts = _candidates(block, k, "top_k_rows")
        assert (flat[1:] > flat[:-1]).all() and list(counts) == list(np.bincount(flat // n, minlength=users))
        assert counts.max() <= (g + 1) * (k - 1) + k
        if exact is not None:
            assert list(counts) == [exact] * users
        ranked = top_k_rows(block, k)
        for row, ids in zip(block, ranked):
            want = ref_rank_all(row)[:k]
            assert list(ids) == want
            assert list(top_k(row, k)) == want
    # integers beyond 2**53 keep their order: the candidates are sorted in the block's own dtype
    counts = 2**60 + rng.integers(0, 5_000, size=(users, n))
    assert [list(ids) for ids in top_k_rows(counts, k)] == [ref_rank_all(row)[:k] for row in counts]


def test_one_crowded_row_beside_normal_rows_keeps_at_most_k_ties():
    """A row is clamped by its own count of candidates, not the block's: 63 normal rows keep ~42 candidates
    each, under 4k a row, and one row with 7,000 ties at its bound would keep all of them."""
    rng = np.random.default_rng(5)
    users, n, k = 64, 12_000, 40
    g = _group_size(n, k)
    block = rng.normal(size=(users, n))
    block[0] = -1.0 - np.abs(block[0])
    block[0, rng.choice(n, 7_000, replace=False)] = 0.0
    flat, counts = _candidates(block, k, "top_k_rows")
    assert list(counts) == list(np.bincount(flat // n, minlength=users)) and counts[0] <= (g + 1) * (k - 1) + k
    assert [list(ids) for ids in top_k_rows(block, k)] == [ref_rank_all(row)[:k] for row in block]


def test_top_k_refuses_a_2d_block():
    with pytest.raises(MetricError, match=r"^top_k expects a 1-D score vector, got shape \(2, 4\)$"):
        top_k(np.zeros((2, 4)), 2)


def test_top_k_rows_rejects_bad_input():
    with pytest.raises(MetricError):
        top_k_rows(np.zeros(4), 2)
    for k in (0, -3):
        with pytest.raises(MetricError, match=rf"^top_k_rows needs k >= 1, got {k}$"):
            top_k_rows(np.zeros((2, 4)), k)


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
