"""Plain-numpy reference forward pass, written from the model formulas in README.md.

It builds the universe and membership matrix from the raw user record
itself, so a check against it covers pietsp's sample preparation as well
as its forward pass:

    Z    = [C | M_U]
    Zt   = ELU(Z Wg + bg - mean_i(Z_i Wl))
    o_e  = w2 . relu(Zt W1 + b1) + b2
    zbar = V3' ELU(V2' ELU(V1' sum_i Zt_i + c1) + c2) + c3
    o_s  = M zbar
    y_j  = a_j o_s[j] + b_j o_e[i] if universe[i] == j, else a_j o_s[j]
"""

from __future__ import annotations

import numpy as np

LOGIT_ATOL = 1e-9  # float64 logits of order 1, differing only in summation order


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0)))


def reference_logits(user_sets, params, k_max: int) -> np.ndarray:
    history = list(user_sets[:-1])[-k_max:]
    universe = sorted(set().union(*history))
    c = np.array([[1.0 if e in s else 0.0 for s in history] for e in universe])
    c = np.hstack([np.zeros((len(universe), k_max - len(history))), c])
    z = np.hstack([c, params.emb[universe]])
    zt = _elu(z @ params.pe_w_global + params.pe_bias - (z @ params.pe_w_local).mean(axis=0))
    o_e = np.maximum(zt @ params.ee_w1 + params.ee_b1, 0.0) @ params.ee_w2 + params.ee_b2
    h1 = _elu(zt.sum(axis=0) @ params.pi_w1 + params.pi_b1)
    h2 = _elu(h1 @ params.pi_w2 + params.pi_b2)
    zbar = h2 @ params.pi_w3 + params.pi_b3
    y = params.fuse_global * (params.emb @ zbar)
    y[universe] += params.fuse_local[universe] * o_e
    return y


def reference_top(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest scores, highest first, ties by ascending id."""
    ids = np.arange(scores.size)
    return np.lexsort((ids, -scores))[:k]


def logits_match(got: np.ndarray, ref: np.ndarray) -> bool:
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= LOGIT_ATOL))


def ids_match(got_ids, ref_scores: np.ndarray, k: int) -> bool:
    """``got_ids`` is the reference top-k, except where reference scores tie within LOGIT_ATOL."""
    ref_ids = reference_top(ref_scores, k)
    got_ids = np.asarray(got_ids)
    if got_ids.shape != ref_ids.shape or np.unique(got_ids).size != got_ids.size:
        return False
    return bool(np.all(np.abs(ref_scores[got_ids] - ref_scores[ref_ids]) <= LOGIT_ATOL))
