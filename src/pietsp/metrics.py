"""Top-k ranking and its metrics (recall, normalized DCG, per-user hit ratio).

One ranking rule and one metric function.  ``top_k_rows`` ranks a (B, |E|)
score block, as ``evaluate`` and ``pietsp predict`` do once per engine call;
``top_k`` makes the same pick on one score vector (a single request:
``forward`` then ``top_k``) without the block's row indexing.  Both rank
a wide block (n >= 128 max(k, 32) columns) from a bound: each row's k-th
largest group maximum, below which none of its k highest scores lies, so
only the scores at or above it are sorted.  Narrower blocks, and blocks with
many ties at that bound, take one argpartition instead; the two paths give
the same ids.
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


HOLDS_NAN = "top_k_rows: the scores hold NaN"

# Ids per group of the bound pick.  A row of n scores is m = n // BOUND_GROUP groups, and a block takes the
# pick when m >= 4 max(k, BOUND_GROUP), i.e. n >= 128 max(k, 32).  Measured at k = 40 on one core of a
# 2-core x86_64 VM (normal scores, pick against argpartition): 0.66 against 1.62 ms at 37 x 12,000 and
# 1.45 against 3.41 ms at 64 x 12,000.  The BOUND_GROUP term is one vector's crossover: the pick's dozen
# numpy calls cost ~15 us, so one row gains only from n ~ 5,000 (1 us slower at 4,096; 22 against 33 us at
# 12,000, k = 10); it also keeps the leftover ids fewer than the groups.  The 4k term keeps blocks with few
# groups per pick on argpartition, where the bound loosens (~70 candidates a row at m = 64 on the `wide`
# workload's logits, ~45 at m = 375 on `large-vocab`'s); forced at 64 x 2,048 the pick still measured
# faster (0.52 against 0.61 ms; 0.79 against 1.01 ms on `wide` logits), so the term is conservative.
BOUND_GROUP = 32


def _bound_candidates(scores: np.ndarray, k: int) -> np.ndarray | None:
    """Flat positions (row * n + id, ascending) of the scores at or above each row's group-maximum bound.

    Group j of a row holds ids j, j + m, ..., j + (BOUND_GROUP - 1) m, the (B, BOUND_GROUP, m) view of
    the first BOUND_GROUP * m columns, so the group maxima are one contiguous pass; the fewer than
    BOUND_GROUP leftover ids fold into the first groups.  k distinct scores reach a row's k-th largest
    group maximum, so each of the row's k highest scores lies at or above that bound.  The maxima carry
    every score, so a NaN anywhere raises ``MetricError``.  None sends the block to argpartition: it
    has fewer than 4 max(k, BOUND_GROUP) groups per row, or more than 4Bk groups or scores reach their
    row's bound (ties at it), counted before any is extracted.
    """
    rows_n, n = scores.shape
    m = n // BOUND_GROUP
    if m < 4 * max(k, BOUND_GROUP):
        return None
    body = BOUND_GROUP * m
    group_max = scores[:, :body].reshape(rows_n, BOUND_GROUP, m).max(axis=1)
    np.maximum(group_max[:, : n - body], scores[:, body:], out=group_max[:, : n - body])
    if np.isnan(group_max).any():
        raise MetricError(HOLDS_NAN)
    # a sort, not a partition: introselect slows on many tied maxima (0.33 against 0.05 ms, frequency-like 64 x 12,000)
    bound = np.sort(group_max, axis=1)[:, m - k, None]
    # each group whose maximum reaches the bound holds a candidate, so its count is a cheap first check
    if np.count_nonzero(group_max >= bound) > 4 * rows_n * k:
        return None
    above = scores >= bound
    if np.count_nonzero(above) > 4 * rows_n * k:
        return None
    return np.flatnonzero(above)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest scores, descending; ties broken by ascending id.

    ``top_k_rows``'s pick on one score vector, without its block indexing.
    A wide vector is one row of the bound pick, with the same NaN check and
    tie guard: a stable sort by -score orders its candidates, which come in
    ascending id order.  Otherwise, or when the guard declines, one
    argpartition at n - k picks the k candidates and one lexsort orders
    them.  NaN sorts above every number, so a NaN score is picked, makes the
    lowest pick NaN and raises ``MetricError``.  When more than k scores lie
    at or above the lowest pick, a tie crosses the k-th place: those scores'
    ids are lexsorted instead and the first k kept.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise MetricError(f"top_k expects a 1-D score vector, got shape {scores.shape}")
    if k < 1:
        raise MetricError(f"top_k_rows needs k >= 1, got {k}")
    n = scores.size
    if k >= n:  # every id is ranked
        if np.isnan(scores).any():
            raise MetricError(HOLDS_NAN)
        idx = np.arange(n)
        return idx[np.lexsort((idx, -scores))]
    ids = _bound_candidates(scores[None], k)
    if ids is not None:  # ascending, so a stable sort keeps a tie's ids in order
        return ids[(-scores[ids]).argsort(kind="stable")[:k]]
    idx = scores.argpartition(n - k)[n - k :]
    vals = scores[idx]
    lowest = vals.min()
    if np.isnan(lowest):
        raise MetricError(HOLDS_NAN)
    above = scores >= lowest
    if np.count_nonzero(above) > k:
        idx = above.nonzero()[0]
        vals = scores[idx]
    return idx[np.lexsort((idx, -vals))[:k]]


def top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """(B, min(k, n)) ids of each row's k highest scores, descending; ties by ascending id.

    A block of n >= 128 max(k, 32) columns is ranked by the bound pick:
    each row's k-th largest group maximum (``BOUND_GROUP`` ids a group)
    bounds its k-th largest score from below, and one stable sort of each
    row's scores at or above it, by -score in ascending id order, ranks them
    (a NaN anywhere raises ``MetricError``).  Other blocks, and blocks where
    more than 4Bk scores reach their row's bound, take argpartition: one at
    n - k picks every row's k candidates (NaN sorts above every number, so a
    row's NaN is picked and raises ``MetricError``) and one lexsort orders
    them.  Where more than k scores lie at or above a row's lowest pick, a
    tie crosses the k-th place and argpartition may have kept the wrong tied
    ids: that row alone lexsorts those scores' ids by (-score, id) and keeps
    the first k.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise MetricError(f"top_k_rows expects a 2-D score block, got shape {scores.shape}")
    if k < 1:
        raise MetricError(f"top_k_rows needs k >= 1, got {k}")
    n = scores.shape[1]
    k = min(k, n)
    flat = _bound_candidates(scores, k)
    if flat is not None:
        # each row's candidates as -score, in ascending id order and padded after them with the largest
        # -score: a stable sort of each row keeps a tie's ids in order and the padding last
        rows, ids = np.divmod(flat, n)
        per_row = np.bincount(rows, minlength=scores.shape[0])
        starts = np.cumsum(per_row) - per_row
        vals = -scores[rows, ids]
        neg = np.full((scores.shape[0], per_row.max(initial=k)), vals.max(initial=0), dtype=vals.dtype)
        neg[rows, np.arange(flat.size) - starts[rows]] = vals
        return ids[starts[:, None] + neg.argsort(axis=1, kind="stable")[:, :k]]
    rows = np.arange(scores.shape[0])[:, None]
    if k == n:
        idx = np.broadcast_to(np.arange(n), scores.shape)
        vals = scores
    else:
        idx = scores.argpartition(n - k, axis=1)[:, n - k :]
        vals = scores[rows, idx]
    if np.isnan(vals).any():
        raise MetricError(HOLDS_NAN)
    ranked = idx[rows, np.lexsort((idx, -vals), axis=-1)]
    if k < n:
        bound = vals.min(axis=1, keepdims=True)
        for row in ((scores >= bound).sum(1) > k).nonzero()[0]:
            ids = (scores[row] >= bound[row]).nonzero()[0]
            ranked[row] = ids[np.lexsort((ids, -scores[row, ids]))[:k]]
    return ranked


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


def phr(hits) -> float:
    """Fraction of users with at least one relevant item in their top-k."""
    hits = list(hits)
    if not hits:
        raise MetricError("hit ratio over zero users")
    return sum(bool(h) for h in hits) / len(hits)


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
