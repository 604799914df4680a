import hashlib
import math
import re

import numpy as np
import pytest

from oracle import logistic, oracle_checkpoint_bytes, softplus, target_multihot
from pietsp import seeding, train
from pietsp.checkpoint import load_checkpoint, save_checkpoint
from pietsp.data import Corpus, PreparedSample, SyntheticSpec, gen_synthetic, prepare_all, split_users
from pietsp.errors import PietspError
from pietsp.linalg import NumericsError
from pietsp.metrics import MetricError
from pietsp.model import MappingError, init_params
from pietsp.optim import AdamState, cosine_lr
from pietsp.train import LOSS_RUN, RESUME_MAY_CHANGE, TrainConfig, bce_loss, evaluate, fit, reject_removed_settings, train_epoch
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


def _two_exp_bce(logits, targets):
    """bce_loss as two separate passes, softplus and logistic each taking its own exp."""
    n = logits.shape[-1]
    terms = softplus(logits)
    terms[targets] -= logits[targets]
    d_logits = logistic(logits)
    d_logits[targets] -= 1
    d_logits /= n
    return terms.sum(axis=-1) / n, d_logits


def test_bce_one_exp_is_bitwise_the_two_exp_form():
    grid = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 700.0, -700.0, 1e308, -1e308])
    logits = np.concatenate([grid, np.linspace(-40.0, 40.0, 588)]).reshape(6, 100)
    rng = np.random.default_rng(2)
    mask = rng.random(logits.shape) < 0.3
    cases = [(logits, mask)]
    # 64 x 12,000 spans chunks of LOSS_RUN // 12,000 = 5 whole rows: targets in the first and last cells of
    # chunks' first and last rows, rows without targets within a chunk, two chunks without any
    step = LOSS_RUN // 12000
    wide = rng.normal(scale=10.0, size=(64, 12000))
    wide_mask = rng.random(wide.shape) < 0.002
    wide_mask[step : 3 * step] = False
    wide_mask[[3 * step + 1, 3 * step + 3]] = False
    wide_mask[[0, step - 1, 3 * step, 4 * step - 1, 63], [0, 11999, 0, 11999, 11999]] = True
    cases += [(wide, wide_mask), (wide[0], wide_mask[0]), (wide[step - 1], wide_mask[step - 1])]
    longer = rng.normal(scale=10.0, size=(2, LOSS_RUN + 7))  # rows longer than a chunk: one row each
    cases.append((longer, rng.random(longer.shape) < 0.01))
    with np.errstate(over="ignore"):  # rows holding 1e308 sum to inf in both forms
        for block, block_mask in cases:
            before = block.copy()
            for targets in (block_mask, np.nonzero(block_mask)):
                loss, d_logits = bce_loss(block, targets)
                want_loss, want_d = _two_exp_bce(block, targets)
                assert np.array_equal(loss, want_loss) and np.array_equal(d_logits, want_d)
                assert np.shape(loss) == block.shape[:-1] and d_logits.shape == block.shape
                assert block.tobytes() == before.tobytes()  # bce_loss leaves its logits as they were


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


def test_train_epoch_reuses_one_gradient_buffer_zeroed_and_averaged_per_step(monkeypatch):
    samples, params = _samples_and_model(20)
    sent = []
    monkeypatch.setattr(train, "adam_step", lambda p, grads, *rest: sent.append((grads, grads.flat.copy())))
    train_epoch(samples, params, AdamState.init(params), TrainConfig(batch_size=8, dim=8, seed=1), epoch=0)
    assert len(sent) == 3 and all(grads is sent[0][0] for grads, _ in sent)
    order = seeding.rng(1, "shuffle", 0).permutation(20)
    for step, (_, got) in enumerate(sent):
        chunk = [samples[i] for i in order[8 * step : 8 * step + 8]]
        want = params.zeros_like()
        train.add_gradients(chunk, params, "full", want)
        want.flat *= 1.0 / len(chunk)
        assert np.array_equal(got, want.flat), step


def test_train_epoch_refuses_no_samples():
    _, params = _samples_and_model(1)
    with pytest.raises(PietspError, match="^train_epoch: no samples$"):
        train_epoch([], params, AdamState.init(params), TrainConfig(), epoch=0)


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
    report = evaluate(samples, params, (10, 20), score_fn=target_multihot)
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


@pytest.mark.parametrize("k_list", [(0, 10), (-3, 10), (0,)])
def test_evaluate_rejects_k_below_one(k_list):
    samples, params = _samples_and_model(6)
    with pytest.raises(MetricError, match="k >= 1"):
        evaluate(samples, params, k_list)


@pytest.mark.parametrize("field", [{"k_list": (0, 10)}, {"k_list": (10, -3)}, {"k_list": (20, 10, 0)}, {"k_list": ()}])
def test_config_rejects_k_below_one_or_no_k(field):
    with pytest.raises(PietspError, match="k_list must be non-empty"):
        TrainConfig(**field)


@pytest.mark.parametrize("k_list, named", [((10, 10), "10"), ((20, 10, 20, 10, 5), "10, 20"),
                                           (np.array([5, 5]), "5")])
def test_config_and_evaluate_refuse_a_repeated_k_naming_it(k_list, named):
    """A k given twice would have its recall, NDCG and PHR summed twice into the report (PHR 2.0)."""
    with pytest.raises(PietspError, match=re.escape(f"TrainConfig: k_list repeats k = {named}; give each k once")):
        TrainConfig(k_list=k_list)
    samples, params = _samples_and_model(6)
    with pytest.raises(PietspError, match=re.escape(f"evaluate: k_list repeats k = {named}; give each k once")):
        evaluate(samples, params, k_list)


@pytest.mark.parametrize("k", [10.7, 10.0, True, "10"])
def test_evaluate_refuses_a_k_that_is_not_an_integer_naming_it(k):
    """Coerced, 10.7, 10.0 and "10" would report as k = 10 and True as k = 1."""
    samples, params = _samples_and_model(6)
    with pytest.raises(PietspError, match=f"^evaluate: k = {re.escape(repr(k))} is not an integer$"):
        evaluate(samples, params, (5, k))


def test_from_dict_reads_a_recorded_k_list_with_each_k_once():
    """The recorded config of a checkpoint written before a repeated k was refused; the constructor still refuses."""
    assert TrainConfig.from_dict({"k_list": [20, 10, 20, 5, 10]}).k_list == (20, 10, 5)
    assert TrainConfig.from_dict({"k_list": np.array([5, 5, 10])}).k_list == (5, 10)
    with pytest.raises(PietspError, match="k_list must be non-empty and its entries integers"):
        TrainConfig.from_dict({"k_list": [[10], [10]]})
    with pytest.raises(PietspError, match="TrainConfig: k_list repeats k = 10"):
        TrainConfig(k_list=[10, 10])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -0.001, "0.01", None, True])
def test_config_rejects_a_bad_base_lr(value):
    with pytest.raises(PietspError, match="base_lr"):
        TrainConfig(base_lr=value)


@pytest.mark.parametrize("value", [-5.0, float("nan"), float("inf"), "0.01", None, False])
def test_config_rejects_a_bad_weight_decay(value):
    with pytest.raises(PietspError, match="weight_decay"):
        TrainConfig(weight_decay=value)


@pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan"), "0", None])
def test_config_rejects_a_bad_l2_coeff(value):
    # l2_coeff is no longer a setting: a saved config that gives it anything but 0 is refused by name
    with pytest.raises(PietspError, match="'l2_coeff'"):
        reject_removed_settings({"l2_coeff": value}, "saved.json")


def test_early_stop_k_is_a_removed_setting_that_accepts_only_ten():
    # early stopping always watched NDCG@10: a saved config at 10 is accepted, any other value refused
    reject_removed_settings({"early_stop_k": 10}, "saved.json")
    with pytest.raises(PietspError, match="'early_stop_k' = 5 was removed"):
        reject_removed_settings({"early_stop_k": 5}, "saved.json")
    assert "early_stop_k" not in TrainConfig().to_dict()


@pytest.mark.parametrize("value", [True, 0, -4, 8.0])
def test_config_rejects_a_bad_batch_size(value):
    with pytest.raises(PietspError, match="batch_size"):
        TrainConfig(batch_size=value)


# values TrainConfig refuses (most it once coerced or let through), and the error that names each field
BAD_SETTINGS = [("seed", 1.5), ("seed", "3"), ("seed", True),
                ("k_list", [10.7]), ("k_list", [10, True]), ("k_list", 10),
                ("split_ratios", "abc"), ("split_ratios", [0.5, 0.5]), ("split_ratios", [0.7, 0.1, "0.2"]),
                ("variant", "x")]
BAD_SETTING_ERRORS = {"seed": "seed must be an integer, got",
                      "k_list": "k_list must be non-empty and its entries integers of at least 1: got",
                      "split_ratios": "split_ratios must be three numbers, got",
                      "variant": "unknown variant"}


@pytest.mark.parametrize("field,value", BAD_SETTINGS, ids=[f"{f}={v!r}" for f, v in BAD_SETTINGS])
def test_config_rejects_a_setting_of_the_wrong_type(field, value):
    with pytest.raises(PietspError, match=f"^{re.escape(BAD_SETTING_ERRORS[field])} "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, np.int64(-7)], ids=["int", "numpy"])
def test_config_rejects_a_negative_seed_naming_it(seed):
    with pytest.raises(PietspError, match=f"^seed must be non-negative, got {int(seed)}$"):
        TrainConfig(seed=seed)
    assert TrainConfig(seed=0).seed == 0


def test_config_keeps_integral_numpy_settings_as_python_values():
    cfg = TrainConfig(seed=np.int64(3), k_list=np.array([5, 10]), split_ratios=(np.float32(0.5), 0.3, 0.2))
    assert cfg.k_list == (5, 10) and type(cfg.k_list[0]) is int
    assert all(type(r) is float for r in cfg.split_ratios)


def test_train_epoch_names_the_epoch_and_step_of_an_overflowing_parameter():
    samples = synthetic_samples(5, 3, 40, 12, seed=2)
    params = init_params(40, 4, 3, seed=1)
    cfg = TrainConfig(batch_size=4, dim=4, max_epochs=5, patience=1, base_lr=1e300)  # step 0 sends weights to ~1e300
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericsError, match=r"non-finite values produced by pe_forward \(epoch 2, step 1\)$"
    ):
        train_epoch(samples, params, AdamState.init(params), cfg, epoch=2)


def test_train_epoch_names_the_epoch_and_step_of_a_bad_universe():
    samples = synthetic_samples(5, 3, 40, 12, seed=2)
    params = init_params(40, 4, 3, seed=1)
    cfg = TrainConfig(batch_size=4, dim=4, max_epochs=5, patience=1)
    bad = seeding.rng(cfg.seed, "shuffle", 1).permutation(len(samples))[9]  # in the third minibatch
    u = np.array([2, 5, 2])
    samples[bad] = PreparedSample("bad-user", u, np.ones((u.size, 3)), np.array([1]), 40)
    with pytest.raises(MappingError, match=r"user 'bad-user': universe contains duplicate ids \(epoch 1, step 2\)$"):
        train_epoch(samples, params, AdamState.init(params), cfg, epoch=1)


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


@pytest.mark.parametrize("k_list, targets, error", [((), 1, "evaluate: empty k_list"),
                                                    ((10,), 0, "evaluate: no users with non-empty targets")],
                         ids=["no-k", "no-target"])
def test_evaluate_refuses_no_k_or_no_user_with_a_target(k_list, targets, error):
    samples, params = _samples_and_model(3)
    samples = [PreparedSample(s.user_id, s.universe, s.membership, s.target_ids[:targets], s.vocab_size)
               for s in samples]
    with pytest.raises(PietspError, match=f"^{error}$"):
        evaluate(samples, params, k_list)


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


@pytest.mark.parametrize("fault, error", [("no-train-users", "train and validation corpora must be non-empty"),
                                          ("no-val-users", "train and validation corpora must be non-empty"),
                                          ("other-vocab", "train/validation vocabularies disagree")])
def test_fit_refuses_an_empty_corpus_or_two_vocabularies(fault, error):
    train_c, val_c, _ = _split_periodic()
    if fault == "no-train-users":
        train_c = Corpus(train_c.vocab_size, ())
    elif fault == "no-val-users":
        val_c = Corpus(val_c.vocab_size, ())
    else:
        val_c = Corpus(val_c.vocab_size + 1, val_c.users)
    with pytest.raises(PietspError, match=f"^fit: {error}$"):
        fit(train_c, val_c, TrainConfig(dim=8, max_epochs=2, patience=1))


@pytest.mark.parametrize("state", ["neither", "optimizer-only"])
def test_resume_refuses_a_checkpoint_without_training_state(tmp_path, state):
    # a checkpoint that ``fit`` did not write as its latest (``save_checkpoint`` of bare parameters)
    params = init_params(60, 8, 4, seed=0)
    path = tmp_path / "bare.json"
    save_checkpoint(path, params, opt_state=AdamState.init(params) if state == "optimizer-only" else None)
    with pytest.raises(PietspError, match=f"^{re.escape(str(path))}: checkpoint has no training state to resume$"):
        train.resumable_checkpoint(path, TrainConfig(dim=8), 60)


def test_resume_refuses_a_corpus_with_another_vocabulary_naming_both_sizes(tmp_path):
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=0, latest_path=latest)
    wider = [Corpus(c.vocab_size + 15, c.users) for c in (train_c, val_c)]
    with pytest.raises(PietspError, match=f"^{re.escape(str(latest))}: checkpoint was trained on vocab_size 60,"
                                          f" but the corpus has vocab_size 75$"):
        fit(*wider, cfg, resume_from=latest)


def test_resume_refuses_a_checkpoint_that_records_no_config(tmp_path):
    """Without the config it was trained with, a resume could not tell a changed learning rate, batch size
    or epoch count from the run's own: the file is refused, not resumed under whatever it is given."""
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=3, patience=3, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=0, latest_path=latest)
    ck = load_checkpoint(latest)
    save_checkpoint(latest, ck.params, seed=ck.seed, config=None, opt_state=ck.opt_state, train_state=ck.train_state)
    other = TrainConfig(dim=8, max_epochs=50, patience=3, seed=11, base_lr=0.5, batch_size=2)
    with pytest.raises(PietspError, match=f"^{re.escape(str(latest))} records no training config, so its settings"
                                          f" cannot be checked$"):
        fit(train_c, val_c, other, resume_from=latest)


def test_resume_rejects_mismatched_config(tmp_path):
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=1, latest_path=latest)
    other = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11, base_lr=0.002)
    with pytest.raises(PietspError, match="different settings"):
        fit(train_c, val_c, other, resume_from=latest)


@pytest.mark.parametrize("removed", [{"l2_coeff": 0.5}, {"decay_fusion": True}], ids=lambda d: next(iter(d)))
def test_resume_refuses_a_checkpoint_that_set_a_removed_setting(tmp_path, removed):
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=4, patience=4, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=0, latest_path=latest)
    ck = load_checkpoint(latest)
    save_checkpoint(latest, ck.params, seed=ck.seed, config=ck.config | removed, opt_state=ck.opt_state,
                    train_state=ck.train_state)
    with pytest.raises(PietspError, match=f"setting '{next(iter(removed))}'"):
        fit(train_c, val_c, cfg, resume_from=latest)


def test_resume_accepts_the_removed_settings_at_the_values_runs_used(tmp_path):
    """Checkpoints written while l2_coeff and decay_fusion existed carry 0.0 and false: they still resume."""
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=5, patience=5, seed=11)
    straight = fit(train_c, val_c, cfg)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=1, latest_path=latest)
    ck = load_checkpoint(latest)
    save_checkpoint(latest, ck.params, seed=ck.seed, config=ck.config | {"l2_coeff": 0.0, "decay_fusion": False},
                    opt_state=ck.opt_state, train_state=ck.train_state)
    resumed = fit(train_c, val_c, cfg, resume_from=latest)
    assert resumed.history == straight.history
    assert params_digest(resumed.params) == params_digest(straight.params)


def test_fit_names_the_epoch_of_a_validation_error():
    train_c, val_c, _ = _split_periodic()
    assert len(train_c.users) < 64  # one optimizer step per epoch
    cfg = TrainConfig(dim=4, max_epochs=5, patience=5, base_lr=1e300)  # that step sends the weights to ~1e300
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericsError, match=r"non-finite values produced by pe_forward \(epoch 0, validation\)$"
    ):
        fit(train_c, val_c, cfg)


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


def test_resume_from_a_format_1_checkpoint_matches_uninterrupted_run(tmp_path):
    """A run directory written before format 2 still resumes, to the same parameters."""
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11)
    straight = fit(train_c, val_c, cfg)

    latest = tmp_path / "checkpoint-latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=2, latest_path=latest)
    ck = load_checkpoint(latest)
    latest.write_bytes(oracle_checkpoint_bytes(ck.params, seed=ck.seed, config=ck.config,
                                               opt_state=ck.opt_state, train_state=ck.train_state))
    resumed = fit(train_c, val_c, cfg, resume_from=latest)
    assert resumed.history == straight.history
    assert params_digest(straight.params) == params_digest(resumed.params)


# a changed value for every setting a resume must keep
CHANGED_SETTINGS = {"seed": 12, "dim": 4, "batch_size": 32, "base_lr": 0.002, "weight_decay": 0.0, "max_epochs": 7,
                    "variant": "no-ge", "split_ratios": (0.5, 0.3, 0.2)}


@pytest.mark.parametrize("field", sorted(CHANGED_SETTINGS))
def test_resume_refuses_every_changed_setting_but_the_two_it_may_change(tmp_path, field):
    assert set(CHANGED_SETTINGS) == set(TrainConfig().to_dict()) - set(RESUME_MAY_CHANGE)
    train_c, val_c, _ = _split_periodic()
    cfg = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=0, latest_path=latest)
    other = TrainConfig(**(cfg.to_dict() | {field: CHANGED_SETTINGS[field]}))
    with pytest.raises(PietspError, match=re.escape(f"different settings: ['{field}']")):
        fit(train_c, val_c, other, resume_from=latest)


@pytest.mark.parametrize("change", [{"patience": 2}, {"k_list": (5,)}], ids=lambda d: next(iter(d)))
def test_resume_that_changes_only_patience_or_k_list_runs(tmp_path, change):
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=6, patience=6, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=0, latest_path=latest)
    changed = TrainConfig(**(cfg.to_dict() | change))
    resumed = fit(train_c, val_c, changed, resume_from=latest)
    straight = fit(train_c, val_c, changed)
    assert resumed.history == straight.history
    assert params_digest(resumed.params) == params_digest(straight.params)


def test_resume_of_an_early_stopped_run_trains_no_further_epoch_unless_patience_is_raised(tmp_path):
    corpus = gen_synthetic(SyntheticSpec(users=40, vocab_size=30, pattern="repeat-biased", seed=2))
    train_c, val_c, _ = split_users(corpus, (0.6, 0.2, 0.2), seed=1)
    cfg = TrainConfig(max_epochs=40, patience=2, seed=1, batch_size=8, dim=8)
    latest = tmp_path / "latest.json"
    stopped = fit(train_c, val_c, cfg, latest_path=latest)
    assert stopped.epochs_run == 3 and load_checkpoint(latest).train_state["bad_epochs"] == 2
    saved = latest.read_bytes()
    finished = fit(train_c, val_c, cfg, resume_from=latest, latest_path=latest)
    assert finished.epochs_run == 3 and finished.history == stopped.history
    assert params_digest(finished.params) == params_digest(stopped.params)
    assert latest.read_bytes() == saved
    patient = TrainConfig(**(cfg.to_dict() | {"patience": 5}))
    resumed = fit(train_c, val_c, patient, resume_from=latest)
    straight = fit(train_c, val_c, patient)
    assert resumed.epochs_run == straight.epochs_run > 3
    assert resumed.history == straight.history
    assert params_digest(resumed.params) == params_digest(straight.params)


def test_resumed_run_writes_the_uninterrupted_runs_checkpoint_bytes(tmp_path):
    """Every trainer-state key, a pending bad-epoch count and best parameters that are not the last included."""
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=8, patience=8, seed=11)
    metrics = [0.1, 0.3, 0.2, 0.25, 0.2]

    def eval_fn(params, epoch):
        return metrics[epoch]

    straight = tmp_path / "straight.json"
    fit(train_c, val_c, cfg, stop_after_epoch=4, eval_fn=eval_fn, latest_path=straight)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=2, eval_fn=eval_fn, latest_path=latest)
    saved = load_checkpoint(latest).train_state
    assert (saved["epoch"], saved["best_epoch"], saved["bad_epochs"]) == (2, 1, 1)
    fit(train_c, val_c, cfg, resume_from=latest, stop_after_epoch=4, eval_fn=eval_fn, latest_path=latest)
    assert latest.read_bytes() == straight.read_bytes()


def test_resume_carries_a_trainer_state_key_it_does_not_know_into_later_saves(tmp_path):
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=4, patience=4, seed=11)
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=0, latest_path=latest)
    ck = load_checkpoint(latest)
    save_checkpoint(latest, ck.params, seed=ck.seed, config=ck.config, opt_state=ck.opt_state,
                    train_state=ck.train_state | {"note": [1, "a"]})
    fit(train_c, val_c, cfg, resume_from=latest, latest_path=latest)
    state = load_checkpoint(latest).train_state
    assert state["note"] == [1, "a"] and state["epoch"] == 3


def test_resume_from_a_checkpoint_without_best_parameters_takes_its_parameters_as_the_best(tmp_path):
    """A null ``best_params`` is filled with a copy of the checkpoint's parameters, which later epochs leave as
    they were: no metric after the resume beats the saved best, so the run returns exactly those parameters."""
    train_c, val_c, _ = _split_periodic(users=24, vocab=50, seed=8)
    cfg = TrainConfig(dim=8, max_epochs=5, patience=5, seed=11)
    metrics = [0.3, 0.2, 0.1, 0.1, 0.1]
    latest = tmp_path / "latest.json"
    fit(train_c, val_c, cfg, stop_after_epoch=2, eval_fn=lambda p, epoch: metrics[epoch], latest_path=latest)
    ck = load_checkpoint(latest)
    assert params_digest(ck.train_state["best_params"]) != params_digest(ck.params)
    save_checkpoint(latest, ck.params, seed=ck.seed, config=ck.config, opt_state=ck.opt_state,
                    train_state=ck.train_state | {"best_params": None})
    resumed = fit(train_c, val_c, cfg, resume_from=latest, eval_fn=lambda p, epoch: metrics[epoch])
    assert (resumed.epochs_run, resumed.best_epoch, resumed.best_metric) == (5, 0, 0.3)
    assert params_digest(resumed.params) == params_digest(ck.params)
