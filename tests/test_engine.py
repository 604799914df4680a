"""The ragged-batch engine against finite differences and the per-user oracle."""

import tracemalloc

import numpy as np
import pytest

from gradcheck import analytic_gradient, check_all_slots, make_batch_instance
from oracle import oracle_backward, oracle_evaluate, oracle_forward, oracle_gradients
from pietsp.bench import synthetic_samples
from pietsp.data import PreparedSample, SyntheticSpec, gen_synthetic, max_history_len, prepare_all
from pietsp.errors import PietspError
from pietsp.linalg import NumericsError
from pietsp import model
from pietsp.model import (
    MAX_BATCH_ROWS,
    MAX_BATCH_USERS,
    VARIANTS,
    MappingError,
    batches,
    forward,
    forward_batch,
    init_params,
    make_batch,
    sfi_concat,
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


def test_batches_respect_both_caps_and_keep_order():
    sizes = [1] * (MAX_BATCH_USERS + 5) + [MAX_BATCH_ROWS // 2, MAX_BATCH_ROWS // 2 + 1, MAX_BATCH_ROWS + 3, 7]
    vocab = max(sizes)
    samples = [PreparedSample(f"u{i}", np.arange(n), np.zeros((n, 1)), np.zeros(0, np.int64), vocab)
               for i, n in enumerate(sizes)]
    parts = list(batches(samples, vocab))
    assert [s.user_id for part in parts for s in part.samples] == [s.user_id for s in samples]
    for part in parts:
        assert part.size == len(part.samples) <= MAX_BATCH_USERS
        assert part.ids.size == sum(s.universe.size for s in part.samples)
        assert part.ids.size <= MAX_BATCH_ROWS or part.size == 1
    assert [p.size for p in parts] == [MAX_BATCH_USERS, 6, 1, 1, 1]


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
    assert len(list(batches(samples, vocab))) > 1

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


@pytest.mark.parametrize("bad_universe,message", [([2, 5, 2], "duplicate"), ([1, 40], "outside"),
                                                  ([], r"non-empty 1-D id array, got shape \(0,\)"),
                                                  ([[1, 2]], r"non-empty 1-D id array, got shape \(1, 2\)")])
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


check_universe = model._check_universe


def _user(user_id, universe, vocab=40):
    u = np.array(universe)
    return PreparedSample(user_id, u, np.ones((u.size, 3)), np.array([0]), vocab)


def test_sorted_scatter_matches_add_at():
    rng = np.random.default_rng(8)
    samples = [_user(f"u{i}", rng.choice(12, n, replace=False)) for i, n in enumerate((5, 12, 1, 9, 12))]
    batch = make_batch(samples, 40)
    assert np.unique(batch.ids).size < batch.ids.size  # ids repeat across users
    rows = rng.normal(size=(batch.ids.size, 6))
    table = rng.normal(size=(40, 6))
    want = table.copy()
    np.add.at(want, batch.ids, rows)
    batch.scatter_add(table, rows)
    assert np.abs(table - want).max() <= 1e-12


def test_scatter_on_a_wide_batch_matches_add_at():
    vocab, rng = 2048, np.random.default_rng(12)
    universes = [rng.choice(vocab, n, replace=False) for n in rng.integers(150, 250, size=22)]
    universes[0][:2] = (0, vocab - 1)
    universes.append(np.array([0]))  # a one-row user
    samples = [_user(f"u{i}", np.sort(u), vocab) for i, u in enumerate(universes)]
    batch = make_batch(samples, vocab)
    counts = np.bincount(batch.ids, minlength=vocab)
    assert all((counts[u] > 1).any() for u in universes)  # every user shares ids with another
    assert batch.size >= 20 and 180 <= batch.ids.size / batch.size <= 220
    rows = rng.normal(size=(batch.ids.size, 32))
    table = rng.normal(size=(vocab, 32))
    want = table.copy()
    np.add.at(want, batch.ids, rows)
    batch.scatter_add(table, rows)
    assert np.abs(table - want).max() <= 1e-12


def test_scatter_of_c_and_f_ordered_rows_is_the_same_bits_and_matches_add_at():
    """The engine hands ``scatter_add`` column-major rows; C-ordered rows fill the same bins in the same order."""
    vocab, rng = 300, np.random.default_rng(21)
    samples = [_user(f"u{i}", np.sort(rng.choice(vocab, n, replace=False)), vocab)
               for i, n in enumerate((40, 1, 77, 60))]
    batch = make_batch(samples, vocab)
    assert np.unique(batch.ids).size < batch.ids.size
    rows = rng.normal(size=(batch.ids.size, 8))
    table = rng.normal(size=(vocab, 8))
    want = table.copy()
    np.add.at(want, batch.ids, rows)
    got = {}
    for order in "CF":
        got[order] = table.copy()
        batch.scatter_add(got[order], np.asarray(rows, order=order))
    assert got["C"].tobytes() == got["F"].tobytes()
    assert np.abs(got["F"] - want).max() <= 1e-12


def test_layers_and_segment_reductions_agree_for_c_and_f_ordered_input():
    rng = np.random.default_rng(22)
    params = init_params(50, 6, 4, seed=3)
    segs = model.Segments(np.array([0, 5, 6]), np.array([5, 1, 9]))
    z = rng.normal(size=(15, 10))
    x = rng.normal(size=(15, 6))
    per_set = rng.normal(size=(3, 6))
    results = {}
    for order in "CF":
        zo, xo = np.asarray(z, order=order), np.asarray(x, order=order)
        results[order] = [model.pe_forward(zo, params, segs), *model.ee_forward(xo, params),
                          *model.pi_forward(xo, params, segs), segs.sum(xo), segs.mean(xo),
                          segs.spread(np.asarray(per_set, order=order)), model.pe_forward(zo[:5], params)]
    for c, f in zip(results["C"], results["F"]):
        assert c.shape == f.shape and np.abs(c - f).max() <= 1e-12 * max(1.0, np.abs(c).max())
    spread = results["F"][-2]
    assert np.array_equal(spread, np.repeat(per_set, [5, 1, 9], axis=0)) and spread.flags.f_contiguous


def test_a_batch_trace_holds_its_row_blocks_column_major():
    """``pe_out`` and ``ee_hidden`` come from BLAS as transposed products, so reductions along rows walk
    contiguous memory; Z stays C-ordered."""
    vocab = 40
    params = init_params(vocab, 8, 3, seed=2)
    samples = synthetic_samples(7, 3, vocab, 5, seed=9)
    trace = forward_batch(make_batch(samples, vocab), params)
    assert trace.batch.size == 5
    for block in (trace.pe_out, trace.ee_hidden):
        assert block.shape == (35, 8) and block.flags.f_contiguous and not block.flags.c_contiguous
    assert trace.z.flags.c_contiguous


def test_training_slice_peak_memory_in_score_blocks():
    """One 64-user slice at |E| = 12,000 peaks at 2.2 (B, |E|) blocks of float64: the loss overwrites the
    logits with d_logits and allocates only chunk-sized temporaries."""
    vocab, users = 12000, MAX_BATCH_USERS
    params = init_params(vocab, 32, 16, seed=0)
    samples = synthetic_samples(30, 16, vocab, users, seed=1)
    assert len(list(batches(samples, vocab))) == 1
    grads = params.zeros_like()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        add_gradients(samples, params, "full", grads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * users * vocab * 8, peak / (users * vocab * 8)


def test_membership_is_one_byte_a_cell_and_enters_z_as_the_float_blocks_did():
    corpus = gen_synthetic(SyntheticSpec(users=40, vocab_size=90, pattern="periodic", seed=3, history_len=6))
    samples = prepare_all(corpus, max_history_len(corpus))
    for s in samples:
        assert s.membership.dtype == bool and s.membership.nbytes == s.membership.size == s.n_elements * 6
    blocks = [s.membership for s in samples]
    m_u = np.random.default_rng(5).normal(size=(sum(b.shape[0] for b in blocks), 4))
    want = sfi_concat(m_u, [b.astype(np.float64) for b in blocks])
    for got in (sfi_concat(m_u, blocks), sfi_concat(m_u, np.concatenate(blocks)), sfi_concat(m_u[:3], blocks[0][:3])):
        assert got.dtype == np.float64 and got.tobytes() == want[: got.shape[0]].tobytes()


def test_one_pass_validation_edge_cases(monkeypatch):
    sorted_by_hand = []

    def counted(sample, vocab):
        sorted_by_hand.append(sample.user_id)
        check_universe(sample, vocab)

    monkeypatch.setattr(model, "_check_universe", counted)
    ok = [
        _user("unsorted", [7, 2, 9, 0]),        # distinct but permuted: accepted
        _user("single-a", [5]),
        _user("single-b", [3]),                 # adjacent N = 1 users
        _user("starts-below", [1, 4, 39]),      # first id below the previous user's last
        _user("sorted", [0, 39]),
    ]
    batch = make_batch(ok, 40)
    assert batch.ids.tolist() == [7, 2, 9, 0, 5, 3, 1, 4, 39, 0, 39]
    assert sorted_by_hand == ["unsorted"]  # every rising universe passes the one-pass check alone
    for bad, message in ((_user("dup", [8, 3, 8]), "duplicate"), (_user("far", [2, 40]), "outside")):
        with pytest.raises(MappingError, match=f"user '{bad.user_id}'.*{message}"):
            make_batch([ok[0], bad, ok[2]], 40)
    with pytest.raises(MappingError, match="user 'negative'.*outside"):
        make_batch([ok[3], _user("negative", [-1, 3])], 40)


@pytest.mark.parametrize(
    "bad_scores,error,message",
    [
        (lambda v: np.where(np.arange(v) == 3, np.nan, 0.5), NumericsError, "non-finite"),
        (lambda v: np.zeros(v - 1), PietspError, r"shape \(29,\)"),
        (lambda v: np.zeros(v + 10), PietspError, r"shape \(40,\)"),
    ],
    ids=("nan", "short", "long"),
)
def test_evaluate_rejects_bad_score_fn_output_naming_the_user(bad_scores, error, message):
    vocab = 30
    samples = synthetic_samples(6, 3, vocab, 5, seed=4)
    params = init_params(vocab, 4, 3, seed=6)
    rng = np.random.default_rng(1)

    def score_fn(sample):
        return bad_scores(vocab) if sample is samples[3] else rng.normal(size=vocab)

    with pytest.raises(error, match=f"user '{samples[3].user_id}'.*{message}"):
        evaluate(samples, params, (10,), score_fn=score_fn)


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
