"""Top-k ranking and its metrics (recall, normalized DCG, per-user hit ratio).

One ranking rule and one metric function.  ``top_k_rows`` ranks a (B, |E|)
score block, as ``evaluate`` and ``pietsp predict`` do once per engine call;
``top_k`` makes the same pick on one score vector (a single request:
``forward`` then ``top_k``) without the block's row indexing.  Both take,
from ``_candidates``, each row's scores at or above its k-th largest group
maximum, below which none of its k highest scores lies, and order them with
one stable sort by -score in ascending id order.
``hit_metrics`` scores a block of rankings from their hits in rank order:
``evaluate`` sums its rows, and ``recall_at_k`` and ``ndcg_at_k`` are its
one-row calls.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PietspError


class MetricError(PietspError):
    """A metric was asked to score an invalid instance (e.g. empty truth)."""


HOLDS_NAN = "{}: the scores hold NaN"

# The most ids in a group of the bound.  A row of n scores is cut into m = n // g groups of
# g = min(BOUND_GROUP, n // (4 max(k, BOUND_GROUP))) ids, g = 1 (the row itself) below n = 8 max(k, 32),
# so a row with g > 1 keeps m >= 4 max(k, 32) groups.  From m ~ 4k on, the bound admits ~k candidates a
# row; more groups only add sort time, and fewer let it admit many more than k.  Measured against
# fixed g on one core of a 2-core x86_64 VM (normal scores, best of 31 interleaved rounds):
# - one vector, k = 10: g = 1 wins up to n ~ 512 (7.9 us against 8.7 at g = 4), where a group pass
#   costs more than it saves; the rule's g is within noise of the best from n = 1,024 (9.1 us) and
#   gains from there (10.1 against 14.5 us at g = 1 for n = 2,048; 16.1 against 59.8 at 12,000).
# - 64 x n blocks, k = 40: the best g leaves 128 - 375 groups a row, and the rule's g is within 14 % of
#   it (164 us at n = 217, 272 against 248 at 512, 324 against 285 at 1,024, 430 against 385 at 2,048,
#   635 against 590 at 4,096, 1.00 ms at 12,000 with g = 32 best).
# m >= 128 > BOUND_GROUP also leaves the fewer than g leftover ids fewer than the groups they fold into.
BOUND_GROUP = 32


def _group_size(n: int, k: int) -> int:
    """Ids per group of a row of n scores ranked at k (see ``BOUND_GROUP``)."""
    return max(1, min(BOUND_GROUP, n // (4 * max(k, BOUND_GROUP))))


def _candidates(scores: np.ndarray, k: int, ranker: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Flat positions (row * n + id, ascending) of every score that can reach its row's k highest, and
    each row's count of them when it took one (None when the block holds at most 4k).

    Group j of a row holds ids j, j + m, ..., j + (g - 1) m, m = n // g, g = ``_group_size(n, k)``: the
    (B, g, m) view of the first g m columns, so the group maxima are one contiguous pass; the fewer than g
    leftover ids fold into the first groups (m >= 128 > g when g > 1).  g = 1 is the row itself.  The scores
    of k distinct ids reach a row's k-th largest group maximum, so each of the row's k highest scores lies
    at or above that bound; a row has fewer than k groups only when g = 1 and k > n, and then its bound is
    its least score.  NaN sorts last, so the maxima's last sorted value finds a NaN anywhere and raises
    ``MetricError`` in the words of ``ranker``, as does k < 1.  Each row with more than 4k candidates
    (counted from the candidates, so a block without one makes no further pass over its scores) keeps
    its scores above the bound (at most (g + 1)(k - 1): they lie in fewer than k groups) and its k lowest
    ids at the bound, which are the tied ids a ranking takes; it is then counted again.  A block of at
    most 4k candidates, such as ``top_k``'s one vector usually is, needs no count.
    """
    if k < 1:
        raise MetricError(f"{ranker} needs k >= 1, got {k}")
    rows_n, n = scores.shape
    g = _group_size(n, k)
    m = n // g
    body = g * m
    group_max = scores if g == 1 else scores[:, :body].reshape(rows_n, g, m).max(axis=1)
    if body < n:
        np.maximum(group_max[:, : n - body], scores[:, body:], out=group_max[:, : n - body])
    # a sort, not a partition: introselect slows on many tied maxima (0.33 against 0.05 ms, frequency-like 64 x 12,000)
    ordered = np.sort(group_max, axis=1)
    if np.count_nonzero(np.isnan(ordered[:, -1:])):
        raise MetricError(HOLDS_NAN.format(ranker))
    bound = ordered[:, -k:][:, :1]
    above = scores >= bound
    flat = above.ravel().nonzero()[0]
    per_row = None
    if flat.size > 4 * k:
        per_row = np.bincount(flat // n, minlength=rows_n)
        crowded = (per_row > 4 * k).nonzero()[0]
        for row in crowded:
            tied = (scores[row] == bound[row]).nonzero()[0]
            if tied.size > k:  # past its k-th tied id, a row keeps only the scores above its bound
                above[row, tied[k] :] = scores[row, tied[k] :] > bound[row]
        if crowded.size:
            flat = above.ravel().nonzero()[0]
            per_row = np.bincount(flat // n, minlength=rows_n)
    return flat, per_row


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest scores, descending; ties broken by ascending id.

    ``top_k_rows``'s pick on one score vector, without its block indexing:
    ``_candidates`` of the vector as a one-row block, in ascending id order,
    and one stable sort of them by -score.  A NaN raises ``MetricError``.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise MetricError(f"top_k expects a 1-D score vector, got shape {scores.shape}")
    ids = _candidates(scores[None], k, "top_k")[0]
    return ids[(-scores[ids]).argsort(kind="stable")[:k]]


def top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """(B, min(k, n)) ids of each row's k highest scores, descending; ties by ascending id.

    ``_candidates`` gives every score at or above its row's group-maximum
    bound (``BOUND_GROUP`` caps the ids a group), and one stable sort of
    each row's candidates, by -score in ascending id order, ranks them.  A
    NaN anywhere raises ``MetricError``.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise MetricError(f"top_k_rows expects a 2-D score block, got shape {scores.shape}")
    flat, per_row = _candidates(scores, k, "top_k_rows")
    n = scores.shape[1]
    k = min(k, n)
    # each row's candidates as -score, in ascending id order and padded after them with the largest
    # -score: a stable sort of each row keeps a tie's ids in order and the padding last
    rows, ids = np.divmod(flat, n)
    per_row = np.bincount(rows, minlength=scores.shape[0]) if per_row is None else per_row
    starts = np.cumsum(per_row) - per_row
    vals = -scores[rows, ids]
    neg = np.full((scores.shape[0], per_row.max(initial=k)), vals.max(initial=0), dtype=vals.dtype)
    neg[rows, np.arange(flat.size) - starts[rows]] = vals
    return ids[starts[:, None] + neg.argsort(axis=1, kind="stable")[:, :k]]


@functools.lru_cache(maxsize=256)
def position_weights(k: int) -> np.ndarray:
    """The DCG discount 1 / log2(pos + 2) of each rank pos < k (cached, read-only)."""
    weights = np.array([1.0 / math.log2(pos + 2) for pos in range(k)])
    weights.flags.writeable = False
    return weights


def hit_metrics(hits: np.ndarray, n_truth: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (recall, NDCG, hit) at k from the hits of a ranking.

    ``hits`` (B, m) bool marks which of each row's m ranked ids are in its
    ground truth, in rank order; ``n_truth`` (B,) is each truth set's size.
    The ranking is cut at min(k, m).  DCG and the ideal DCG are cumulative
    sums over ``position_weights``, added in rank order as a plain loop does.
    An empty ranking or truth set, or k < 1, raises ``MetricError``.
    """
    if hits.shape[1] == 0:
        raise MetricError("hit_metrics: the ranking is empty")
    if k < 1:
        raise MetricError(f"hit_metrics needs k >= 1, got {k}")
    if (n_truth < 1).any():
        raise MetricError("recall and ndcg are undefined for an empty ground-truth set")
    hits = hits[:, :k]
    weights = position_weights(hits.shape[1])
    found = hits.sum(1)
    dcg = np.cumsum(hits * weights, axis=1)[:, -1]
    ideal = np.cumsum(weights)[np.minimum(n_truth, hits.shape[1]) - 1]
    return found / n_truth, dcg / ideal, found > 0


def _one_row(ranked_ids, truth, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    truth = set(int(t) for t in truth)
    hits = np.array([[int(i) in truth for i in ranked_ids]], dtype=bool)
    return hit_metrics(hits, np.array([len(truth)]), k)


def recall_at_k(topk_ids, truth) -> float:
    """|topk ∩ truth| / |truth|: a one-row ``hit_metrics`` call."""
    return float(_one_row(topk_ids, truth, len(topk_ids))[0][0])


def ndcg_at_k(ranked_ids, truth, k: int) -> float:
    """Binary-relevance DCG@k of the ranked list divided by the ideal DCG: a one-row ``hit_metrics`` call."""
    return float(_one_row(ranked_ids, truth, k)[1][0])


@dataclass
class MetricReport:
    """Recall / NDCG / PHR at each requested k, averaged over users."""

    k_list: tuple[int, ...]
    recall: dict[int, float]
    ndcg: dict[int, float]
    phr: dict[int, float]
    users_evaluated: int
    users_skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "k_list": list(self.k_list),
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "phr": {str(k): v for k, v in self.phr.items()},
            "users_evaluated": self.users_evaluated,
            "users_skipped": self.users_skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def format_table(self) -> str:
        """Plain-text table grouped by metric with one @k column per entry."""
        header = "          " + "".join(f"{'@' + str(k):>9}" for k in self.k_list)
        rows = [header]
        for label, values in (("Recall", self.recall), ("NDCG", self.ndcg), ("PHR", self.phr)):
            rows.append(f"{label:<10}" + "".join(f"{values[k]:>9.4f}" for k in self.k_list))
        rows.append(f"users: {self.users_evaluated} evaluated, {self.users_skipped} skipped")
        return "\n".join(rows)
