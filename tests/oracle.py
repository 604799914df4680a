"""Per-user reference forward, backward and evaluation, written out one user at a time.

The program runs every user through the ragged-batch engine; these loops
are what it must agree with.  ``oracle_forward``/``oracle_backward`` follow
the model formulas for a single universe with plain row reductions, and
``oracle_evaluate`` ranks and scores users one by one with the brute-force
references of ``reference_metrics``.  ``oracle_checkpoint_bytes`` writes
checkpoint format 1, one ``json.dumps`` over the whole payload with each
array as a base64 string; the program only reads that format, and a file
written here must load to the same checkpoint as format 2.
``oracle_parse_corpus`` and ``oracle_prepare_sample`` load and
prepare a corpus one user, one set and one id at a time; the whole-corpus
passes of ``parse_corpus`` and ``prepare_all`` must give the same corpus,
report, errors and arrays.  ``oracle_convert_table`` and
``oracle_convert_json_dump`` convert raw dumps one row, one user and one
item at a time, each placed into sorted lists as it arrives.  ``softplus``
and ``logistic`` are the whole-array activations, each taking its own
exp(-|x|), that ``bce_loss``'s shared-exp pass must reproduce, and
``target_multihot`` is one user's targets as a 0/1 vector.
"""

import base64
import csv
import json
from bisect import bisect_right, insort
from dataclasses import replace
from pathlib import Path

import numpy as np

from pietsp.data import Corpus, DataError, LoadReport, PreparedSample, SampleError, UserRecord
from pietsp.linalg import exp_neg_abs, logistic_from, softplus_from
from pietsp.model import CONCAT_LAYOUT
from reference_metrics import ref_hit, ref_ndcg, ref_recall


def softplus(x):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), from an exp of its own."""
    x = np.asarray(x)
    return softplus_from(x, exp_neg_abs(x))


def logistic(x):
    """1 / (1 + exp(-x)), never overflowing, from an exp of its own."""
    x = np.asarray(x)
    return logistic_from(x, exp_neg_abs(x))


def target_multihot(sample):
    """One user's targets as a (|E|,) 0/1 vector."""
    y = np.zeros(sample.vocab_size)
    y[sample.target_ids] = 1
    return y


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
        for k in k_list:
            recall[k] += ref_recall(row, truth, k)
            ndcg[k] += ref_ndcg(row, truth, k)
            phr[k] += int(ref_hit(row, truth, k))
    return {name: {k: acc[k] / used for k in k_list} for name, acc in
            (("recall", recall), ("ndcg", ndcg), ("phr", phr))}, used


def _oracle_table(params):
    return {
        name: {"shape": list(arr.shape),
               "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")}
        for name, arr in params.slots()
    }


def oracle_checkpoint_bytes(params, seed=None, config=None, opt_state=None, train_state=None):
    """A format-1 checkpoint: one ``json.dumps`` of the full payload, arrays as base64."""
    payload = {
        "format_version": 1,
        "kind": "pietsp-checkpoint",
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "k_max": params.k_max,
        "concat_layout": CONCAT_LAYOUT,
        "seed": seed,
        "config": config,
        "params": _oracle_table(params),
        "optimizer": None
        if opt_state is None
        else {"step": opt_state.step, "m": _oracle_table(opt_state.m), "v": _oracle_table(opt_state.v)},
        "trainer": None
        if train_state is None
        else {
            **{k: v for k, v in train_state.items() if k != "best_params"},
            "best_params": None
            if train_state.get("best_params") is None
            else _oracle_table(train_state["best_params"]),
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def oracle_parse_corpus(obj):
    """``parse_corpus`` as a walk over users, sets and ids, validating and deduplicating as it goes."""
    if not isinstance(obj, dict):
        raise DataError("corpus root must be an object")
    vocab_size = obj.get("vocab_size")
    if not isinstance(vocab_size, int) or isinstance(vocab_size, bool) or not 1 <= vocab_size < 2**63:
        raise DataError(f"vocab_size must be a positive integer below 2**63, got {vocab_size!r}")
    raw_users = obj.get("users")
    if not isinstance(raw_users, list):
        raise DataError("'users' must be a list")

    users = []
    first_seen = {}
    dropped_users = 0
    empty_sets = 0
    duplicates = 0
    for u_idx, raw in enumerate(raw_users):
        if not isinstance(raw, dict) or "user_id" not in raw or "sets" not in raw:
            raise DataError(f"users[{u_idx}]: expected an object with 'user_id' and 'sets'")
        uid = str(raw["user_id"])
        if uid in first_seen:
            raise DataError(f"users[{u_idx}]: user_id '{uid}' repeats users[{first_seen[uid]}]")
        first_seen[uid] = u_idx
        if not isinstance(raw["sets"], list):
            raise DataError(f"user '{uid}': 'sets' is not a list")
        sets = []
        for s_idx, raw_set in enumerate(raw["sets"]):
            if not isinstance(raw_set, list):
                raise DataError(f"user '{uid}': sets[{s_idx}] is not a list")
            for e_idx, item in enumerate(raw_set):
                if not isinstance(item, int) or isinstance(item, bool):
                    raise DataError(f"user '{uid}': sets[{s_idx}][{e_idx}]: id {item!r} is not an integer")
                if item < 0 or item >= vocab_size:
                    raise DataError(
                        f"user '{uid}': sets[{s_idx}][{e_idx}]: id {item} outside [0, {vocab_size})"
                    )
            unique = sorted(set(raw_set))
            duplicates += len(raw_set) - len(unique)
            if not unique:
                empty_sets += 1
                continue
            sets.append(tuple(unique))
        if len(sets) < 2:
            dropped_users += 1
            continue
        users.append(UserRecord(user_id=uid, sets=tuple(sets)))

    report = LoadReport(
        users_kept=len(users),
        users_dropped=dropped_users,
        empty_sets_dropped=empty_sets,
        duplicate_ids_removed=duplicates,
    )
    return Corpus(vocab_size=vocab_size, users=tuple(users)), report


def oracle_prepare_sample(user, k_max, vocab_size):
    """``prepare_sample`` for one user: a set union for the universe, a dict for the rows, a loop for the ones."""
    if k_max < 1:
        raise SampleError(f"k_max must be >= 1, got {k_max}")
    history = user.sets[:-1]
    if not history:
        raise SampleError(f"user '{user.user_id}' has no history sets")
    if len(history) > k_max:
        history = history[-k_max:]
    universe = np.array(sorted(set().union(*history)), dtype=np.int64)
    row_of = {int(e): i for i, e in enumerate(universe)}
    membership = np.zeros((universe.size, k_max), dtype=bool)
    pad = k_max - len(history)
    for j, s in enumerate(history):
        for e in s:
            membership[row_of[e], pad + j] = True
    return PreparedSample(
        user_id=user.user_id,
        universe=universe,
        membership=membership,
        target_ids=np.array(user.sets[-1], dtype=np.int64),
        vocab_size=vocab_size,
    )


def _insert_sorted(ordered, value, key=lambda v: v):
    """Insert ``value`` after every element whose key is not greater than its own."""
    keys = [key(v) for v in ordered]
    ordered.insert(bisect_right(keys, key(value)), value)


def _oracle_set_order(keys):
    """Set keys in numeric order, equal numbers in order of first appearance, when every key is a
    number other than NaN; otherwise in string order."""
    numbered = []
    for key in keys:
        try:
            number = float(key)
        except ValueError:
            number = float("nan")
        if number != number:
            return sorted(keys)
        _insert_sorted(numbered, (number, key), key=lambda pair: pair[0])
    return [key for _, key in numbered]


def oracle_convert_table(path, user_col, set_col, item_col, delimiter):
    """``convert_table`` as a walk over ``csv.reader`` rows: a blank line is passed over, a row without
    one of the three cells or with one of them empty is skipped and counted, every other row adds its
    item to its user's set, and the vocabulary and the users are sorted lists built one insertion at
    a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh, delimiter=delimiter)
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        for col in (user_col, set_col, item_col):
            if col not in header:
                raise DataError(f"{path}: missing column '{col}' (found {header})")
        cells = [header.index(col) for col in (user_col, set_col, item_col)]
        grouped, skipped = {}, 0
        for row in rows:
            if not row:
                continue
            if max(cells) >= len(row) or "" in (row[i] for i in cells):
                skipped += 1
                continue
            user, key, item = (row[i] for i in cells)
            grouped.setdefault(user, {}).setdefault(key, []).append(item)
    if not grouped:
        raise DataError(f"{path}: no rows")
    items, user_ids = [], []
    for user, sets in grouped.items():
        insort(user_ids, user)
        for key in sets:
            for item in sets[key]:
                if item not in items:
                    insort(items, item)
    raw = {
        "vocab_size": len(items),
        "users": [
            {"user_id": user, "sets": [[items.index(i) for i in grouped[user][key]]
                                       for key in _oracle_set_order(list(grouped[user]))]}
            for user in user_ids
        ],
    }
    corpus, report = oracle_parse_corpus(raw)
    return corpus, replace(report, rows_skipped=skipped), {"items": items}


JSON_SPLITS = ("train", "validate", "valid", "validation", "test")


def oracle_convert_json_dump(path):
    """``convert_json_dump`` one split, one user and one item at a time: a user id an earlier split
    took is renamed "<split>:<id>", which must be free; an item that is not a string or an integer is
    an error naming its user (and split); items are compared as strings and ordered by length, then
    text."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict) or not obj:
        raise DataError(f"{path}: expected a non-empty JSON object")
    who = {}
    if all(key in JSON_SPLITS for key in obj):
        merged = {}
        for split, users in obj.items():
            if not isinstance(users, dict):
                raise DataError(f"{path}: split '{split}' is a {type(users).__name__}, not an object of users")
            for uid, seq in users.items():
                name = f"{split}:{uid}" if uid in merged else uid
                if name in merged:
                    raise DataError(
                        f"{path}: split '{split}' repeats user '{uid}', and its merged name '{name}' is another user's"
                    )
                merged[name] = seq
                who[name] = f"user '{uid}' in split '{split}'"
    else:
        merged = obj
    items, user_ids = [], []
    for uid, seq in merged.items():
        if not isinstance(seq, list):
            raise DataError(f"{path}: user '{uid}' is not a list of item lists")
        for basket in seq:
            if not isinstance(basket, list):
                raise DataError(f"{path}: user '{uid}' is not a list of item lists")
        _insert_sorted(user_ids, uid)
        for basket in seq:
            for item in basket:
                if isinstance(item, bool) or not isinstance(item, (str, int)):
                    owner = who.get(uid) or f"user '{uid}'"
                    raise DataError(f"{path}: {owner} has the item {json.dumps(item)},"
                                    " which is neither a string nor an integer")
                if str(item) not in items:
                    _insert_sorted(items, str(item), key=lambda text: (len(text), text))
    raw = {
        "vocab_size": len(items),
        "users": [{"user_id": uid, "sets": [[items.index(str(i)) for i in basket] for basket in merged[uid]]}
                  for uid in user_ids],
    }
    corpus, report = oracle_parse_corpus(raw)
    return corpus, report, {"items": items}
