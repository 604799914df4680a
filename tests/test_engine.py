"""The ragged-batch engine against finite differences and the per-user oracle."""

import numpy as np
import pytest

from gradcheck import analytic_gradient, check_all_slots, make_batch_instance
from oracle import oracle_backward, oracle_evaluate, oracle_forward, oracle_gradients
from pietsp.bench import synthetic_samples
from pietsp.data import PreparedSample
from pietsp.model import (
    MAX_BATCH_ROWS,
    MAX_BATCH_USERS,
    VARIANTS,
    MappingError,
    batch_slices,
    forward,
    forward_batch,
    init_params,
    make_batch,
)
from pietsp.optim import AdamState
from pietsp.train import TrainConfig, add_gradients, evaluate, train_epoch


def max_slot_delta(a, b):
    return max(float(np.abs(x - y).max()) for (_, x), (_, y) in zip(a.slots(), b.slots()))


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradcheck_through_the_engine(variant):
    one, params1, d1 = make_batch_instance(sizes=(4,), start_seed=10)
    check_all_slots(one, params1, d1, tol=1e-5, variant=variant)
    samples, params, d_logits = make_batch_instance(vocab=12, sizes=(3, 5, 8), start_seed=30)
    universes = [set(s.universe.tolist()) for s in samples]
    assert len({len(u) for u in universes}) == 3 and universes[1] & universes[2]
    results = check_all_slots(samples, params, d_logits, tol=1e-5, variant=variant)
    if variant == "full":
        assert all(fd_max > 1e-7 for _, fd_max in results.values())


def test_permuting_users_permutes_rows_and_keeps_summed_gradients():
    samples, params, d_logits = make_batch_instance(vocab=15, dim=4, sizes=(2, 6, 9, 4), start_seed=40)
    perm = np.array([2, 0, 3, 1])
    for variant in VARIANTS:
        logits = forward_batch(make_batch(samples, 15), params, variant).logits
        permuted = forward_batch(make_batch([samples[i] for i in perm], 15), params, variant).logits
        assert np.abs(permuted - logits[perm]).max() <= 1e-12
        grads = analytic_gradient(samples, params, d_logits, variant)
        permuted_grads = analytic_gradient([samples[i] for i in perm], params, d_logits[perm], variant)
        assert max_slot_delta(grads, permuted_grads) <= 1e-12, variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_matches_the_per_user_oracle(variant):
    samples, params, d_logits = make_batch_instance(vocab=20, dim=6, k_max=4, sizes=(1, 7, 12), start_seed=60)
    for sample, d in zip(samples, d_logits):
        logits, cache = oracle_forward(sample, params, variant)
        assert np.abs(forward(sample, params, variant).logits - logits).max() <= 1e-12
        single = analytic_gradient(sample, params, d, variant)
        assert max_slot_delta(single, oracle_backward(sample, params, d, cache, variant)) <= 1e-12
    rows = forward_batch(make_batch(samples, 20), params, variant).logits
    assert np.abs(rows - np.stack([oracle_forward(s, params, variant)[0] for s in samples])).max() <= 1e-12
    together = analytic_gradient(samples, params, d_logits, variant)
    assert max_slot_delta(together, oracle_gradients(samples, params, d_logits, variant)) <= 1e-12


def test_batch_slices_respect_both_caps_and_keep_order():
    sizes = [1] * (MAX_BATCH_USERS + 5) + [MAX_BATCH_ROWS // 2, MAX_BATCH_ROWS // 2 + 1, MAX_BATCH_ROWS + 3, 7]
    samples = [PreparedSample(f"u{i}", np.arange(n), np.zeros((n, 1)), np.zeros(0, np.int64), n)
               for i, n in enumerate(sizes)]
    parts = list(batch_slices(samples))
    assert [s.user_id for part in parts for s in part] == [s.user_id for s in samples]
    for part in parts:
        rows = sum(s.universe.size for s in part)
        assert len(part) <= MAX_BATCH_USERS
        assert rows <= MAX_BATCH_ROWS or len(part) == 1
    assert [len(p) for p in parts] == [MAX_BATCH_USERS, 6, 1, 1, 1]


def _oracle_bce(logits, sample):
    targets = sample.target_multihot()
    n = logits.size
    loss = float((np.logaddexp(0.0, logits) - targets * logits).sum() / n)
    return loss, (1.0 / (1.0 + np.exp(-logits)) - targets) / n


def test_row_capped_minibatch_matches_per_user_oracle():
    vocab = 3000
    params = init_params(vocab, 4, 2, seed=3)
    samples = [synthetic_samples(n, 2, vocab, 1, seed=10 + n)[0] for n in (1500, 2000, 2500, 40)]
    assert sum(s.universe.size for s in samples) > MAX_BATCH_ROWS
    assert len(list(batch_slices(samples))) > 1

    grads = params.zeros_like()
    losses = add_gradients(samples, params, "full", grads)

    want = params.zeros_like()
    want_losses = []
    for sample in samples:
        logits, cache = oracle_forward(sample, params)
        loss, d_logits = _oracle_bce(logits, sample)
        want_losses.append(loss)
        for (_, acc), (_, g) in zip(want.slots(), oracle_backward(sample, params, d_logits, cache).slots()):
            acc += g
    assert np.abs(np.array(losses) - want_losses).max() <= 1e-12
    assert abs(sum(losses) - sum(want_losses)) <= 1e-12
    assert max_slot_delta(grads, want) <= 1e-12


@pytest.mark.parametrize("bad_universe,message", [([2, 5, 2], "duplicate"), ([1, 40], "outside")])
def test_train_and_evaluate_name_the_user_with_a_bad_universe(bad_universe, message):
    params = init_params(40, 4, 3, seed=1)
    samples = synthetic_samples(5, 3, 40, 6, seed=2)
    u = np.array(bad_universe)
    samples[4] = PreparedSample("bad-user", u, np.ones((u.size, 3)), np.array([1]), 40)
    cfg = TrainConfig(batch_size=4, dim=4, max_epochs=2, patience=1)
    with pytest.raises(MappingError, match=f"user 'bad-user'.*{message}"):
        train_epoch(samples, params, AdamState.init(params), cfg, epoch=0)
    with pytest.raises(MappingError, match=f"user 'bad-user'.*{message}"):
        evaluate(samples, params, (5,))


def test_evaluate_matches_per_user_oracle_with_ties():
    vocab = 30
    rng = np.random.default_rng(5)
    samples = synthetic_samples(6, 3, vocab, 90, seed=4)
    for i in range(0, 90, 9):  # some users have no target and are skipped
        samples[i] = PreparedSample(samples[i].user_id, samples[i].universe, samples[i].membership,
                                    np.zeros(0, np.int64), vocab)
    for i in range(1, 90, 7):  # targets of every size, down to a single item
        samples[i] = PreparedSample(samples[i].user_id, samples[i].universe, samples[i].membership,
                                    np.sort(rng.choice(vocab, 1 + i % 6, replace=False)), vocab)
    coarse = {s.user_id: np.round(rng.normal(size=vocab), 1) for s in samples}  # frequent ties
    params = init_params(vocab, 4, 3, seed=6)
    k_list = (1, 5, 10, 40)  # 40 > |E|: the ranking is cut at |E|
    for score_fn in (lambda s: coarse[s.user_id], None):
        report = evaluate(samples, params, k_list, score_fn=score_fn)
        scores = [score_fn(s) if score_fn else forward(s, params).logits for s in samples]
        want, used = oracle_evaluate(samples, scores, k_list)
        assert (report.users_evaluated, report.users_skipped) == (used, len(samples) - used) and used < len(samples)
        for name in ("recall", "ndcg", "phr"):
            for k in k_list:
                assert abs(getattr(report, name)[k] - want[name][k]) <= 1e-12, (name, k)
