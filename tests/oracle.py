"""Per-user reference forward, backward and evaluation, written out one user at a time.

The program runs every user through the ragged-batch engine; these loops
are what it must agree with.  ``oracle_forward``/``oracle_backward`` follow
the model formulas for a single universe with plain row reductions, and
``oracle_evaluate`` scores users one by one with the scalar metric
functions.
"""

import numpy as np

from pietsp.metrics import ndcg_at_k, recall_at_k, top_k


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0)))


def oracle_forward(sample, params, variant="full"):
    """One user's logits (|E|,) and the activations ``oracle_backward`` needs."""
    u = sample.universe
    z = np.hstack([sample.membership, params.emb[u]])
    pe_out = _elu(z @ params.pe_w_global + params.pe_bias - z.mean(axis=0, keepdims=True) @ params.pe_w_local)
    cache = {"z": z, "pe_out": pe_out}
    logits = np.zeros(params.vocab_size)
    if variant != "no-ge":
        pooled = pe_out.sum(axis=0, keepdims=True)
        h1 = _elu(pooled @ params.pi_w1 + params.pi_b1)
        h2 = _elu(h1 @ params.pi_w2 + params.pi_b2)
        set_repr = (h2 @ params.pi_w3 + params.pi_b3)[0]
        global_scores = params.emb @ set_repr
        cache.update(pooled=pooled, h1=h1, h2=h2, set_repr=set_repr, global_scores=global_scores)
        logits = params.fuse_global * global_scores
    if variant != "no-ee":
        hidden = np.maximum(pe_out @ params.ee_w1 + params.ee_b1, 0.0)
        elem_scores = hidden @ params.ee_w2 + params.ee_b2
        cache.update(hidden=hidden, elem_scores=elem_scores)
        logits[u] += params.fuse_local[u] * elem_scores
    return logits, cache


def oracle_backward(sample, params, d_logits, cache, variant="full"):
    """One user's gradients of (logits . d_logits), in a fresh ``ModelParams``."""
    grads = params.zeros_like()
    u = sample.universe
    pe_out, z = cache["pe_out"], cache["z"]
    d_pe = np.zeros_like(pe_out)
    if variant != "no-ge":
        grads.fuse_global += d_logits * cache["global_scores"]
        d_global = d_logits * params.fuse_global
        grads.emb += np.outer(d_global, cache["set_repr"])
        d_repr = (params.emb.T @ d_global)[None, :]
        grads.pi_w3 += cache["h2"].T @ d_repr
        grads.pi_b3 += d_repr.sum(0)
        d_h2 = (d_repr @ params.pi_w3.T) * np.where(cache["h2"] > 0, 1.0, cache["h2"] + 1)
        grads.pi_w2 += cache["h1"].T @ d_h2
        grads.pi_b2 += d_h2.sum(0)
        d_h1 = (d_h2 @ params.pi_w2.T) * np.where(cache["h1"] > 0, 1.0, cache["h1"] + 1)
        grads.pi_w1 += cache["pooled"].T @ d_h1
        grads.pi_b1 += d_h1.sum(0)
        d_pe += d_h1 @ params.pi_w1.T
    if variant != "no-ee":
        grads.fuse_local[u] += d_logits[u] * cache["elem_scores"]
        d_elem = d_logits[u] * params.fuse_local[u]
        grads.ee_w2 += cache["hidden"].T @ d_elem
        grads.ee_b2 += d_elem.sum(0)
        d_hidden = np.outer(d_elem, params.ee_w2) * (cache["hidden"] > 0)
        grads.ee_w1 += pe_out.T @ d_hidden
        grads.ee_b1 += d_hidden.sum(0)
        d_pe += d_hidden @ params.ee_w1.T
    d_pre = d_pe * np.where(pe_out > 0, 1.0, pe_out + 1)
    d_sum = d_pre.sum(0, keepdims=True)
    grads.pe_w_global += z.T @ d_pre
    grads.pe_bias += d_sum[0]
    grads.pe_w_local -= z.mean(axis=0, keepdims=True).T @ d_sum
    k = params.k_max
    grads.emb[u] += d_pre @ params.pe_w_global[k:].T - (d_sum @ params.pe_w_local[k:].T) / u.size
    return grads


def oracle_gradients(samples, params, d_logits, variant="full"):
    """Per-user oracle gradients of sum_b logits_b . d_logits[b], summed over the users."""
    total = params.zeros_like()
    for sample, d in zip(samples, d_logits):
        _, cache = oracle_forward(sample, params, variant)
        for (_, acc), (_, g) in zip(total.slots(), oracle_backward(sample, params, d, cache, variant).slots()):
            acc += g
    return total


def oracle_evaluate(samples, scores, k_list):
    """Mean recall, NDCG and PHR at each k over users with a non-empty target, one user at a time."""
    used = 0
    recall = dict.fromkeys(k_list, 0.0)
    ndcg = dict.fromkeys(k_list, 0.0)
    phr = dict.fromkeys(k_list, 0)
    for sample, row in zip(samples, scores):
        truth = set(int(t) for t in sample.target_ids)
        if not truth:
            continue
        used += 1
        ranked = top_k(row, max(k_list))
        for k in k_list:
            recall[k] += recall_at_k(ranked[:k], truth)
            ndcg[k] += ndcg_at_k(ranked, truth, k)
            phr[k] += int(any(int(i) in truth for i in ranked[:k]))
    return {name: {k: acc[k] / used for k in k_list} for name, acc in
            (("recall", recall), ("ndcg", ndcg), ("phr", phr))}, used
