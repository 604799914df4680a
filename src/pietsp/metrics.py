"""Top-k ranking metrics (recall, normalized DCG, per-user hit ratio)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PietspError


class MetricError(PietspError):
    """A metric was asked to score an invalid instance (e.g. empty truth)."""


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest scores, descending; ties broken by ascending id.

    Uses partial selection (argpartition + linear scans) so the full score
    vector is never sorted; only the k winners are.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise MetricError(f"top_k expects a 1-D score vector, got shape {scores.shape}")
    if k < 1:
        raise MetricError(f"top_k needs k >= 1, got {k}")
    n = scores.shape[0]
    k = min(k, n)
    if k == n:
        idx = np.arange(n)
    else:
        candidates = np.argpartition(-scores, k - 1)[:k]
        boundary = scores[candidates].min()
        above = np.flatnonzero(scores > boundary)
        tied = np.flatnonzero(scores == boundary)
        idx = np.concatenate([above, tied[: k - above.size]])
    order = np.lexsort((idx, -scores[idx]))
    return idx[order]


def recall_at_k(topk_ids, truth) -> float:
    """|topk ∩ truth| / |truth|."""
    truth = set(int(t) for t in truth)
    if not truth:
        raise MetricError("recall is undefined for an empty ground-truth set")
    hits = sum(1 for i in topk_ids if int(i) in truth)
    return hits / len(truth)


def ndcg_at_k(ranked_ids, truth, k: int) -> float:
    """Binary-relevance DCG@k over the ranked list, normalized by the ideal DCG."""
    truth = set(int(t) for t in truth)
    if not truth:
        raise MetricError("ndcg is undefined for an empty ground-truth set")
    k = min(k, len(ranked_ids))
    dcg = 0.0
    for pos in range(k):
        if int(ranked_ids[pos]) in truth:
            dcg += 1.0 / math.log2(pos + 2)
    ideal = sum(1.0 / math.log2(pos + 2) for pos in range(min(k, len(truth))))
    return dcg / ideal


def position_weights(k: int) -> np.ndarray:
    """The DCG discount 1 / log2(pos + 2) of each rank pos < k."""
    return np.array([1.0 / math.log2(pos + 2) for pos in range(k)])


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
