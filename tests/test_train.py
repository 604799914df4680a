import hashlib
import math

import numpy as np
import pytest

from pietsp.data import SyntheticSpec, gen_synthetic, prepare_all, split_users
from pietsp.errors import PietspError
from pietsp.model import init_params
from pietsp.optim import AdamState, cosine_lr
from pietsp.train import TrainConfig, bce_loss, evaluate, fit, l2_penalty, train_epoch
from pietsp.bench import synthetic_samples


def params_digest(params):
    h = hashlib.sha256()
    for name, arr in params.slots():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def periodic_corpus(users=30, vocab=60, seed=0, history_len=4):
    return gen_synthetic(
        SyntheticSpec(users=users, vocab_size=vocab, pattern="periodic", seed=seed,
                      history_len=history_len)
    )


# --- loss --------------------------------------------------------------------

def test_bce_single_logit_zero_is_ln2():
    loss, d = bce_loss(np.array([0.0]), np.array([0]))
    assert abs(loss - math.log(2.0)) < 1e-15
    assert abs(d[0] - (0.5 - 1.0)) < 1e-15


def test_bce_saturated_positive_is_tiny_and_stable():
    loss, _ = bce_loss(np.array([30.0]), np.array([0]))
    assert 0.0 <= loss < 1e-12


def test_bce_extreme_logits_do_not_overflow():
    loss, d = bce_loss(np.array([1000.0, -1000.0]), np.array([], dtype=np.int64))
    assert np.isfinite(loss) and np.all(np.isfinite(d))
    assert abs(loss - 500.0) < 1e-12  # softplus(1000)/2


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=40)
    targets = rng.random(40) < 0.2
    _, d = bce_loss(logits, targets)
    h = 1e-6
    for i in range(40):
        up = logits.copy()
        up[i] += h
        down = logits.copy()
        down[i] -= h
        fd = (bce_loss(up, targets)[0] - bce_loss(down, targets)[0]) / (2 * h)
        assert abs(fd - d[i]) / max(abs(fd) + abs(d[i]), 1e-8) < 1e-6


def test_bce_l2_term():
    params = init_params(8, 3, 2, seed=0)
    none = np.zeros(8, dtype=bool)
    plain, _ = bce_loss(np.zeros(8), none)
    with_l2, d = bce_loss(np.zeros(8), none, l2_coeff=0.5, params=params)
    assert abs(with_l2 - plain - 0.5 * l2_penalty(params)) < 1e-12
    assert np.allclose(d, bce_loss(np.zeros(8), none)[1])  # penalty does not touch d_logits


def test_bce_shape_mismatch():
    with pytest.raises(PietspError):
        bce_loss(np.zeros(3), np.zeros(4, dtype=bool))
    with pytest.raises(PietspError):
        bce_loss(np.zeros((2, 3)), (np.array([0]), np.array([3])))


# --- epoch mechanics -----------------------------------------------------------

def _samples_and_model(n_samples, vocab=40, dim=8, k_max=3, seed=0):
    samples = synthetic_samples(5, k_max, vocab, n_samples, seed=seed)
    params = init_params(vocab, dim, k_max, seed=seed)
    return samples, params


def test_128_samples_make_exactly_two_steps():
    samples, params = _samples_and_model(128)
    state = AdamState.init(params)
    cfg = TrainConfig(batch_size=64, dim=8, max_epochs=5, patience=5, seed=1)
    train_epoch(samples, params, state, cfg, epoch=0)
    assert state.step == 2


def test_130_samples_make_three_steps():
    samples, params = _samples_and_model(130)
    state = AdamState.init(params)
    cfg = TrainConfig(batch_size=64, dim=8, max_epochs=5, patience=5, seed=1)
    train_epoch(samples, params, state, cfg, epoch=0)
    assert state.step == 3


def test_train_epoch_deterministic():
    runs = []
    for _ in range(2):
        samples, params = _samples_and_model(50, seed=7)
        state = AdamState.init(params)
        cfg = TrainConfig(batch_size=16, dim=8, max_epochs=4, patience=4, seed=9)
        losses = [train_epoch(samples, params, state, cfg, epoch=e) for e in range(3)]
        runs.append((losses, params_digest(params)))
    assert runs[0] == runs[1]


def test_loss_decreases_on_periodic_corpus():
    corpus = periodic_corpus(users=25, vocab=50, seed=2)
    samples = prepare_all(corpus, 4)
    params = init_params(50, 16, 4, seed=3)
    state = AdamState.init(params)
    cfg = TrainConfig(batch_size=64, dim=16, max_epochs=100, patience=10, seed=4)
    losses = [train_epoch(samples, params, state, cfg, epoch=e) for e in range(3)]
    assert losses[0] > losses[1] > losses[2]


def test_memorization_sanity():
    # 20 users, D=32: training loss collapses below 1% of its starting value
    corpus = periodic_corpus(users=20, vocab=30, seed=5, history_len=3)
    samples = prepare_all(corpus, 3)
    params = init_params(30, 32, 3, seed=6)
    state = AdamState.init(params)
    cfg = TrainConfig(batch_size=64, dim=32, base_lr=0.01, max_epochs=200, patience=200, seed=7)
    initial = train_epoch(samples, params, state, cfg, epoch=0)
    final = initial
    for epoch in range(1, 200):
        final = train_epoch(samples, params, state, cfg, epoch=epoch)
        if final < 0.01 * initial:
            break
    assert final < 0.01 * initial


# --- evaluation ------------------------------------------------------------------

def test_perfect_scorer_gets_all_ones():
    samples, params = _samples_and_model(12)
    report = evaluate(samples, params, (10, 20), score_fn=lambda s: s.target_multihot())
    assert all(v == 1.0 for v in report.recall.values())
    assert all(v == 1.0 for v in report.ndcg.values())
    assert all(v == 1.0 for v in report.phr.values())


def test_random_scorer_recall_monte_carlo():
    # vocab 1000, |truth| = 5, k = 10: expected recall 0.01
    rng = np.random.default_rng(11)
    samples = synthetic_samples(6, 2, 1000, 3000, seed=12)
    params = init_params(1000, 4, 2, seed=13)
    report = evaluate(samples, params, (10,), score_fn=lambda s: rng.normal(size=1000))
    assert abs(report.recall[10] - 0.01) < 0.004


def test_evaluate_is_read_only_and_deterministic():
    samples, params = _samples_and_model(20)
    digest = params_digest(params)
    a = evaluate(samples, params, (10, 20))
    b = evaluate(samples, params, (10, 20))
    assert params_digest(params) == digest
    assert a == b


def test_evaluate_skips_empty_targets():
    samples, params = _samples_and_model(4)
    emptied = samples[0].__class__(
        user_id="empty",
        universe=samples[0].universe,
        membership=samples[0].membership,
        target_ids=np.array([], dtype=np.int64),
        vocab_size=samples[0].vocab_size,
    )
    report = evaluate([emptied] + samples[1:], params, (10,))
    assert report.users_skipped == 1
    assert report.users_evaluated == 3


# --- fit / early stopping ----------------------------------------------------------

def _split_periodic(users=30, vocab=60, seed=0):
    corpus = periodic_corpus(users=users, vocab=vocab, seed=seed)
    return split_users(corpus, (0.7, 0.1, 0.2), seed=1)


def test_fit_runs_all_epochs_when_metric_keeps_improving():
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=6, patience=2, seed=3)
    result = fit(train_c, val_c, cfg, eval_fn=lambda p, epoch: float(epoch))
    assert result.epochs_run == 6
    assert result.best_epoch == 5


def test_fit_flat_metric_stops_after_patience_returns_first_epoch():
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=50, patience=10, seed=3)
    seen = {}

    def flat_eval(params, epoch):
        seen[epoch] = params_digest(params)
        return 0.5

    result = fit(train_c, val_c, cfg, eval_fn=flat_eval)
    assert result.epochs_run == 11          # epoch 1 best, then 10 patience epochs
    assert result.best_epoch == 0
    assert params_digest(result.params) == seen[0]


def test_fit_returns_best_epoch_params_not_last():
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=8, patience=3, seed=3)
    seen = {}
    schedule = {0: 0.1, 1: 0.9, 2: 0.3, 3: 0.2, 4: 0.1}

    def eval_fn(params, epoch):
        seen[epoch] = params_digest(params)
        return schedule.get(epoch, 0.0)

    result = fit(train_c, val_c, cfg, eval_fn=eval_fn)
    assert result.best_epoch == 1
    assert result.epochs_run == 5
    assert params_digest(result.params) == seen[1]


def test_fit_deterministic_across_runs():
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=4, patience=4, seed=5)
    a = fit(train_c, val_c, cfg)
    b = fit(train_c, val_c, cfg)
    assert params_digest(a.params) == params_digest(b.params)
    assert a.history == b.history


def test_fit_converges_quickly_on_periodic_corpus():
    # smoke run with defaults: early stopping fires within 20 epochs
    corpus = periodic_corpus(users=400, vocab=100, seed=0)
    train_c, val_c, _ = split_users(corpus, (0.7, 0.1, 0.2), seed=1)
    result = fit(train_c, val_c, TrainConfig(seed=7))
    assert result.epochs_run <= 20


def test_fit_history_records_lr_and_loss():
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=3, patience=3, seed=5)
    result = fit(train_c, val_c, cfg)
    assert [h["epoch"] for h in result.history] == [0, 1, 2]
    assert result.history[0]["lr"] == cosine_lr(0, 3, cfg.base_lr)
    assert all("train_loss" in h and "val_ndcg@10" in h for h in result.history)


def test_resume_rejects_mismatched_config(tmp_path):
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=1, latest_path=latest)
    other = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11, base_lr=0.002)
    with pytest.raises(PietspError, match="different settings"):
        fit(train_c, val_c, other, resume_from=latest)


def test_resume_matches_uninterrupted_run(tmp_path):
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=8, patience=8, seed=11)

    straight = fit(train_c, val_c, cfg)

    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=3, latest_path=latest)
    resumed = fit(train_c, val_c, cfg, resume_from=latest)

    assert resumed.epochs_run == straight.epochs_run
    assert resumed.best_epoch == straight.best_epoch
    for (name, a), (_, b) in zip(straight.params.slots(), resumed.params.slots()):
        assert np.abs(a - b).max() < 1e-12, name
    assert params_digest(straight.params) == params_digest(resumed.params)  # in fact bit-exact
