"""The training call, ``model.bce_gradients``, against the reference chain ``forward_batch`` -> ``bce_loss`` ->
``backward``, finite differences of its summed loss, and exactly rounded sums of its loss terms."""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gradcheck import fd_gradient, make_batch_instance, relative_error
from pietsp import linalg, model
from pietsp.data import PreparedSample, max_history_len, prepare_all, split_users
from pietsp.model import LOSS_RUN, VARIANTS, backward, batches, bce_gradients, forward_batch, init_params, make_batch
from pietsp.seeding import spawn_seed
from pietsp.train import TrainConfig, bce_loss

U = np.finfo(np.float64).eps / 2  # the unit roundoff
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def reference(batch, params, variant):
    """(losses, d_logits, gradients) of the chain the training call replaces."""
    trace = forward_batch(batch, params, variant)
    losses, d_logits = bce_loss(trace.logits, batch.truth(params.vocab_size))
    grads = params.zeros_like()
    backward(trace, params, d_logits, grads)
    return losses, d_logits, grads


def training_call(batch, params, variant, monkeypatch):
    """(losses, d_logits, gradients, block widths) of one ``bce_gradients`` call; d_logits are the blocks
    ``bce_block`` wrote, side by side."""
    blocks, real = [], linalg.bce_block

    def recorded(y, hits, n, out, check):
        sums = real(y, hits, n, out, check)
        blocks.append(out.copy())
        return sums

    monkeypatch.setattr(model, "bce_block", recorded)
    grads = params.zeros_like()
    losses = bce_gradients(batch, params, variant, grads)
    monkeypatch.setattr(model, "bce_block", real)
    return losses, np.concatenate(blocks, axis=1), grads, [b.shape[1] for b in blocks]


def assert_matches_reference(batch, params, variant, monkeypatch):
    """d_logits bit for bit, every gradient slot to 1e-12 relative, losses to a few units in the last place."""
    losses, d_logits, grads, widths = training_call(batch, params, variant, monkeypatch)
    want_losses, want_d, want = reference(batch, params, variant)
    assert d_logits.tobytes() == want_d.tobytes()
    assert np.abs(losses - want_losses).max() <= 1e-14 * np.abs(want_losses).max()
    for (slot, got), (_, ref) in zip(grads.slots(), want.slots()):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), slot
    return widths


@functools.lru_cache(maxsize=None)
def workload_call(name):
    """The first 64 training users of a perfbench workload's seed-1 corpus, split and prepared as the benchmark
    does, and parameters with random fusion weights."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    corpus = workloads.make_corpus(workloads.WORKLOADS[name], 1)
    config = TrainConfig()
    train_c = split_users(corpus, config.split_ratios, spawn_seed(config.seed, "split"))[0]
    k_max = max_history_len(train_c)
    params = init_params(corpus.vocab_size, config.dim, k_max, seed=5)
    rng = np.random.default_rng(6)
    params.fuse_global[...] = rng.normal(size=corpus.vocab_size)
    params.fuse_local[...] = rng.normal(size=corpus.vocab_size)
    return prepare_all(train_c, k_max)[:64], params


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("workload, blocks", [("dc-like", [1]), ("large-vocab", [12]), ("wide", [1, 1, 1, 1])])
def test_training_call_matches_the_reference_chain_on_each_workload_shape(workload, blocks, variant, monkeypatch):
    samples, params = workload_call(workload)
    calls = [assert_matches_reference(batch, params, variant, monkeypatch)
             for batch in batches(samples, params.vocab_size)]
    assert [len(widths) for widths in calls] == blocks


def _sample(user_id, universe, targets, vocab, k_max=2, seed=0):
    universe = np.array(universe)
    membership = np.random.default_rng(seed).random((universe.size, k_max)) < 0.5
    return PreparedSample(user_id, universe, membership, np.array(targets, dtype=np.int64), vocab)


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_call_at_block_edges(variant, monkeypatch):
    """Blocks of 5 items over |E| = 23 (the last block 3 wide): universe ids on blocks' first and last items, a
    block without universe rows ([10, 15)), one without targets ([15, 20)), a target given twice; then one user
    in blocks of 7, and both calls again as one block."""
    vocab = 23
    params = init_params(vocab, 4, 2, seed=3)
    rng = np.random.default_rng(4)
    params.fuse_global[...] = rng.normal(size=vocab)
    params.fuse_local[...] = rng.normal(size=vocab)
    users = [_sample("a", [0, 4, 5, 9, 22], [4, 5, 20], vocab, seed=1),
             _sample("b", [3, 16, 17, 20], [3, 3, 22], vocab, seed=2),
             _sample("c", [8, 19, 21], [0, 9], vocab, seed=3)]
    three, one = make_batch(users, vocab), make_batch(users[1:2], vocab)
    assert assert_matches_reference(three, params, variant, monkeypatch) == [vocab]
    assert assert_matches_reference(one, params, variant, monkeypatch) == [vocab]
    monkeypatch.setattr(model, "LOSS_RUN", 15)
    assert assert_matches_reference(three, params, variant, monkeypatch) == [5, 5, 5, 5, 3]
    monkeypatch.setattr(model, "LOSS_RUN", 7)
    assert assert_matches_reference(one, params, variant, monkeypatch) == [7, 7, 7, 2]


@pytest.mark.parametrize("vocab", [64000, 65536])
def test_a_row_of_zero_logits_sums_products_of_up_to_a_thousand_factors_of_two(vocab, monkeypatch):
    """Every logit 0 makes every factor 1 + exp(-|y|) exactly 2: at |E| = 64,000 each product holds 1,000 of
    them (2^1000, below the float64 limit), and at 65,536 a product of 1,024 would overflow."""
    params = init_params(vocab, 2, 2, seed=1)
    params.emb[...] = 0.0
    params.fuse_local[...] = 0.0
    batch = make_batch([_sample("zeros", [7, vocab - 1], [7], vocab)], vocab)
    assert not forward_batch(batch, params).logits.any()
    losses, d_logits, _, widths = training_call(batch, params, "full", monkeypatch)
    assert widths == [vocab] and abs(losses[0] - math.log(2)) <= 4 * U
    assert_matches_reference(batch, params, "full", monkeypatch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_call_gradients_match_finite_differences_of_the_summed_loss(variant, monkeypatch):
    """Criterion 2's bound, on three users cut into item blocks of 4 (three blocks over |E| = 12)."""
    samples, params, _ = make_batch_instance(vocab=12, sizes=(3, 5, 8), start_seed=70)
    batch = make_batch(samples, 12)
    monkeypatch.setattr(model, "LOSS_RUN", 12)
    grads = params.zeros_like()
    bce_gradients(batch, params, variant, grads)

    def summed_loss():
        return float(bce_gradients(batch, params, variant, params.zeros_like()).sum())

    dropped = {"no-ee": {"ee_w1", "ee_b1", "ee_w2", "ee_b2", "fuse_local"},
               "no-ge": {"pi_w1", "pi_b1", "pi_w2", "pi_b2", "pi_w3", "pi_b3", "fuse_global"}}.get(variant, set())
    for slot, got in grads.slots():
        fd = fd_gradient(summed_loss, getattr(params, slot))
        assert (np.abs(fd).max() > 1e-7) != (slot in dropped), slot
        assert relative_error(got, fd) < 1e-5, slot


def _exact_row_losses(logits, mask):
    """Each row's mean of softplus(y) - t y, its terms summed exactly (``math.fsum``); inf when they overflow."""
    terms = np.logaddexp(0.0, logits) - np.where(mask, logits, 0.0)
    out = []
    for row in terms:
        try:
            out.append(math.fsum(row) / row.size)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _block_row_losses(logits, mask):
    """Each row's loss as the training call takes it: ``bce_block`` over blocks of LOSS_RUN // rows columns."""
    rows, n = logits.shape
    width = max(1, LOSS_RUN // rows)
    sums = np.zeros(rows)
    for start in range(0, n, width):
        y = np.array(logits[:, start : start + width], order="C")
        hits = np.flatnonzero(mask[:, start : start + width])
        sums += linalg.bce_block(y, hits, n, np.empty_like(y), lambda logits: linalg.check_finite(logits, "test"))
    return sums / n


def _declared_bound(logits, mask):
    """The rounding ``bce_block`` may add to a row's loss, per row.  Over a row of n terms cut into blocks of w:
    sum [max(y, 0) - t y] is a dot product per block and a running sum over the blocks, within (w + blocks) u
    times the sum of its terms' sizes; each log(1 + e) term is within 2 u of exact through the rounding of e
    and of 1 + e; each log of a product of k factors adds (k + 1) u; the logs summed per block (at most 64 a
    row, pairwise) and over the blocks add (6 + blocks) u times their sum; the final division adds u."""
    rows, n = logits.shape
    width = min(n, max(1, LOSS_RUN // rows))
    blocks = -(-n // width)
    sizes = np.abs(np.maximum(logits, 0) - np.where(mask, logits, 0.0)).sum(axis=1)
    logs = np.log1p(np.exp(-np.abs(logits))).sum(axis=1)
    exact = _exact_row_losses(logits, mask)
    return U * ((width + blocks) * sizes + 4 * n + (6 + blocks) * logs) / n + U * np.abs(exact)


def test_row_losses_are_within_the_declared_bound_of_exactly_summed_terms():
    grid = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 700.0, -700.0, 1e308, -1e308])
    logits = np.concatenate([grid, np.linspace(-40.0, 40.0, 588)]).reshape(6, 100)
    rng = np.random.default_rng(2)
    cases = [(logits, rng.random(logits.shape) < 0.3)]
    wide = rng.normal(scale=10.0, size=(64, 12000))
    cases.append((wide, rng.random(wide.shape) < 0.002))
    # the trained regime: every logit well below 0, so the loss is sum log1p(e) of tiny e's plus a few targets
    trained = -rng.uniform(4.0, 16.0, size=(1, 12000))
    trained_mask = np.zeros(trained.shape, dtype=bool)
    trained_mask[0, [5, 700, 11999]] = True
    cases.append((trained, trained_mask))
    with np.errstate(over="ignore"):  # the grid's rows holding 1e308 overflow their sums
        for block, mask in cases:
            got, want = _block_row_losses(block, mask), _exact_row_losses(block, mask)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            bound = _declared_bound(block[finite], mask[finite])
            assert (np.abs(got[finite] - want[finite]) <= bound).all()
    assert _declared_bound(trained, trained_mask)[0] <= 1e-11 * _exact_row_losses(trained, trained_mask)[0]

