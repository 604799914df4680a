"""Top-k ranking and its metrics (recall, normalized DCG, per-user hit ratio).

One ranking rule and one metric function.  ``top_k_rows`` ranks a (B, |E|)
score block, as ``evaluate`` and ``pietsp predict`` do once per engine call;
``top_k`` makes the same pick on one score vector (a single request:
``forward`` then ``top_k``) without the block's row indexing.
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


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest scores, descending; ties broken by ascending id.

    ``top_k_rows``'s pick on one score vector, without its block indexing:
    one argpartition at n - k picks the k candidates and one lexsort orders
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

    One argpartition at n - k picks every row's k candidates (NaN sorts
    above every number, so a row's NaN is picked and raises ``MetricError``)
    and one lexsort orders them.  Where more than k scores lie at or above a
    row's lowest pick, a tie crosses the k-th place and argpartition may have
    kept the wrong tied ids: that row alone lexsorts those scores' ids by
    (-score, id) and keeps the first k.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise MetricError(f"top_k_rows expects a 2-D score block, got shape {scores.shape}")
    if k < 1:
        raise MetricError(f"top_k_rows needs k >= 1, got {k}")
    n = scores.shape[1]
    k = min(k, n)
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
