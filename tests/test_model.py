import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import (
    analytic_gradient,
    check_all_slots,
    check_branch,
    fd_gradient_slot,
    make_batch_instance,
    make_instance,
    relative_error,
)
from pietsp import model
from pietsp.bench import synthetic_samples
from pietsp.data import PreparedSample
from pietsp.errors import PietspError
from pietsp.linalg import NumericsError, ShapeError, elu
from pietsp.metrics import top_k, top_k_rows
from pietsp.model import (
    MAX_BATCH_USERS,
    VARIANTS,
    MappingError,
    Segments,
    backward,
    ee_forward,
    forward,
    forward_batch,
    fuse_scores,
    ge_forward,
    init_params,
    make_batch,
    param_shapes,
    pe_forward,
    pi_forward,
    sfi_concat,
)


def permuted_sample(sample: PreparedSample, perm: np.ndarray) -> PreparedSample:
    """Same user with the universe enumerated in a different row order."""
    return PreparedSample(
        user_id=sample.user_id,
        universe=sample.universe[perm],
        membership=sample.membership[perm],
        target_ids=sample.target_ids,
        vocab_size=sample.vocab_size,
    )


# --- initialization -----------------------------------------------------------

def test_init_deterministic():
    a = init_params(20, 8, 4, seed=3)
    b = init_params(20, 8, 4, seed=3)
    for (name, arr_a), (_, arr_b) in zip(a.slots(), b.slots()):
        assert np.array_equal(arr_a, arr_b), name


def test_init_fusion_weights_are_ones_biases_zero():
    p = init_params(15, 6, 3, seed=0)
    assert np.all(p.fuse_global == 1.0) and np.all(p.fuse_local == 1.0)
    for name in ("pe_bias", "ee_b1", "pi_b1", "pi_b2", "pi_b3"):
        assert np.all(getattr(p, name) == 0.0), name
    assert p.ee_b2 == 0.0


def test_init_embedding_std_monte_carlo():
    p = init_params(4000, 32, 4, seed=7)  # 128k draws
    assert 0.099 <= p.emb.std() <= 0.101


def test_init_glorot_bounds():
    p = init_params(10, 8, 4, seed=1)
    bound = np.sqrt(6.0 / (12 + 8))
    assert np.abs(p.pe_w_global).max() <= bound
    assert np.abs(p.pe_w_global).max() > 0.8 * bound  # actually fills the range


def test_param_dims_properties():
    p = init_params(33, 7, 5, seed=0)
    assert (p.vocab_size, p.dim, p.k_max) == (33, 7, 5)
    assert {name: arr.shape for name, arr in p.slots()} == param_shapes(33, 7, 5)


@pytest.mark.parametrize("dims", [(0, 7, 5), (33, 0, 5), (33, 7, 0), (33, 7, -1)])
def test_init_refuses_a_non_positive_dimension(dims):
    vocab, dim, k_max = dims
    with pytest.raises(PietspError, match=rf"^bad model dims: vocab={vocab} dim={dim} k_max={k_max}$"):
        init_params(vocab, dim, k_max, seed=0)


# --- individual blocks ----------------------------------------------------------

def test_sfi_concat_layout():
    out = sfi_concat(np.array([[0.5]]), np.array([[1.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 0.0, 0.5]])


def test_sfi_concat_width_is_k_plus_d():
    rng = np.random.default_rng(0)
    m_u, c = rng.normal(size=(6, 4)), rng.normal(size=(6, 9))
    assert sfi_concat(m_u, c).shape == (6, 13)


def test_sfi_concat_row_count_mismatch():
    with pytest.raises(ShapeError):
        sfi_concat(np.zeros((3, 2)), np.zeros((4, 2)))


def test_sfi_concat_permutes_rowwise():
    rng = np.random.default_rng(1)
    m_u, c = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    perm = rng.permutation(5)
    assert np.array_equal(sfi_concat(m_u, c)[perm], sfi_concat(m_u[perm], c[perm]))


def test_pe_self_cancellation_single_row():
    p = init_params(10, 4, 2, seed=2)
    p.pe_w_local = p.pe_w_global.copy()
    p.pe_bias[:] = 0.0
    z = np.random.default_rng(3).normal(size=(1, 6))
    assert np.all(pe_forward(z, p) == 0.0)


def test_pe_zero_local_weights_is_plain_dense_layer():
    p = init_params(10, 4, 2, seed=4)
    p.pe_w_local[:] = 0.0
    z = np.random.default_rng(5).normal(size=(7, 6))
    expected = elu(z @ p.pe_w_global + p.pe_bias)
    assert np.abs(pe_forward(z, p) - expected).max() < 1e-15


@given(st.integers(0, 2**32 - 1))
def test_pe_equivariance(seed):
    rng = np.random.default_rng(seed)
    n, k, d = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(1, 8))
    p = init_params(10, d, k, seed=seed)
    z = rng.normal(size=(n, k + d))
    perm = rng.permutation(n)
    assert np.abs(pe_forward(z, p)[perm] - pe_forward(z[perm], p)).max() < 1e-12


def test_ee_constant_when_weights_zero():
    p = init_params(10, 4, 2, seed=6)
    p.ee_w1[:] = 0.0
    p.ee_w2[:] = 0.0
    p.ee_b2[...] = 0.7
    scores, _ = ee_forward(np.random.default_rng(7).normal(size=(5, 4)), p)
    assert np.allclose(scores, 0.7)


def test_ee_permutes_rowwise():
    p = init_params(10, 4, 2, seed=8)
    zt = np.random.default_rng(9).normal(size=(6, 4))
    perm = np.random.default_rng(10).permutation(6)
    assert np.array_equal(ee_forward(zt, p)[0][perm], ee_forward(zt[perm], p)[0])


def test_pi_zero_input_zero_biases_gives_zero():
    p = init_params(10, 4, 2, seed=11)
    for name in ("pi_b1", "pi_b2", "pi_b3"):
        getattr(p, name)[:] = 0.0
    set_repr, _, _, _ = pi_forward(np.zeros((3, 4)), p)
    assert np.all(set_repr == 0.0)


@given(st.integers(0, 2**32 - 1))
def test_pi_invariance(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 12)), int(rng.integers(1, 8))
    p = init_params(10, d, 3, seed=seed)
    zt = rng.normal(size=(n, d))
    perm = rng.permutation(n)
    a, _, _, _ = pi_forward(zt, p)
    b, _, _, _ = pi_forward(zt[perm], p)
    assert np.abs(a - b).max() < 1e-12


def test_pi_not_invariant_to_multiplicity():
    p = init_params(10, 4, 2, seed=12)
    zt = np.random.default_rng(13).normal(size=(3, 4))
    _, pooled_once, _, _ = pi_forward(zt, p)
    _, pooled_twice, _, _ = pi_forward(np.vstack([zt, zt]), p)
    assert np.allclose(pooled_twice, 2.0 * pooled_once)


def test_ge_examples():
    emb = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(ge_forward(np.array([3.0, 4.0]), emb), [3.0, 8.0])
    assert np.all(ge_forward(np.zeros(2), emb) == 0.0)


def test_ge_linear_in_summary():
    rng = np.random.default_rng(14)
    emb, z = rng.normal(size=(9, 4)), rng.normal(size=4)
    assert np.allclose(ge_forward(2.5 * z, emb), 2.5 * ge_forward(z, emb))


def test_fuse_examples():
    o_s = np.zeros(8)
    o_s[5] = 0.2
    fuse_g = np.ones(8)
    fuse_l = np.ones(8)
    out = fuse_scores(o_s, np.array([0.3]), np.array([5]), fuse_g, fuse_l)
    assert abs(out[5] - 0.5) < 1e-15

    fuse_g2 = np.full(8, 2.0)
    o_s2 = np.full(8, 0.25)
    out2 = fuse_scores(o_s2, np.array([0.0]), np.array([1]), fuse_g2, fuse_l)
    assert out2[0] == 0.5  # not in the sequence: only the scaled global score


def test_fuse_beta_zero_is_pure_global():
    rng = np.random.default_rng(15)
    o_s, o_e = rng.normal(size=10), rng.normal(size=3)
    alpha = rng.normal(size=10)
    out = fuse_scores(o_s, o_e, np.array([1, 4, 7]), alpha, np.zeros(10))
    assert np.allclose(out, alpha * o_s)


def test_batch_rejects_duplicate_mapping_naming_the_user():
    sample = synthetic_samples(3, 2, 10, 1, seed=22)[0]
    dup = PreparedSample("dup-user", np.array([1, 1, 4]), sample.membership, sample.target_ids, 10)
    with pytest.raises(MappingError, match="user 'dup-user'.*duplicate"):
        make_batch([sample, dup], 10)
    with pytest.raises(MappingError, match="user 'dup-user'.*duplicate"):
        forward(dup, init_params(10, 4, 2, seed=21))


def test_fuse_locality():
    rng = np.random.default_rng(16)
    o_s, o_e = rng.normal(size=12), rng.normal(size=4)
    universe = np.array([2, 5, 6, 9])
    alpha, beta = rng.normal(size=12), rng.normal(size=12)
    base = fuse_scores(o_s, o_e, universe, alpha, beta)
    bumped = o_e.copy()
    bumped[1] += 1.0
    changed = fuse_scores(o_s, bumped, universe, alpha, beta)
    diff = np.flatnonzero(changed != base)
    assert list(diff) == [5]


# --- full forward ----------------------------------------------------------------

def test_forward_shape_law():
    params = init_params(100, 32, 4, seed=17)
    sample = synthetic_samples(3, 4, 100, 1, seed=18)[0]
    trace = forward(sample, params)
    assert trace.pe_out.shape == (3, 32)
    assert trace.elem_scores.shape == (3,)
    assert trace.set_repr.shape == (1, 32)  # one row per user of the engine call
    assert trace.logits.shape == (100,)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_user_forward_equals_its_row_of_a_mixed_64_user_batch(variant):
    """``forward`` against row b of one 64-user engine call over universes of 1 to 40 ids, one enumerated out
    of order (``make_batch``'s sort fallback).  The batch multiplies matrices where one user multiplies a vector,
    and the BLAS sums those products in another order, so the rows agree to 1e-12, not bit for bit, and rank
    alike.  ``forward`` is bit for bit the engine called on the user alone."""
    vocab = 60
    params = init_params(vocab, 6, 4, seed=21)
    rng = np.random.default_rng(22)
    sizes = rng.integers(1, 41, size=MAX_BATCH_USERS)
    samples = [synthetic_samples(int(n), 4, vocab, 1, seed=100 + i)[0] for i, n in enumerate(sizes)]
    b = int(np.argmax(sizes))
    samples[b] = permuted_sample(samples[b], rng.permutation(sizes[b]))
    assert not (np.diff(samples[b].universe) > 0).all()
    block = forward_batch(make_batch(samples, vocab), params, variant).logits
    ranked = top_k_rows(block, 10)
    for i, sample in enumerate(samples):
        one = forward(sample, params, variant).logits
        assert one.shape == (vocab,)
        assert np.abs(one - block[i]).max() <= 1e-12
        assert np.array_equal(top_k(one, 10), ranked[i])
        alone = forward_batch(make_batch([sample], vocab), params, variant).logits
        assert one.tobytes() == alone[0].tobytes()


def test_the_one_set_segments_are_shared_and_read_only():
    segs = Segments.one(7)
    assert Segments.one(7) is segs and (segs.offsets.tolist(), segs.counts.tolist()) == ([0], [7])
    with pytest.raises(ValueError):
        segs.counts[0] = 3
    with pytest.raises(ValueError):
        segs.offsets[0] = 1
    with pytest.raises(AttributeError):
        segs.counts = np.array([3])


def test_forward_refuses_an_unknown_variant():
    params = init_params(20, 4, 3, seed=0)
    batch = make_batch(synthetic_samples(4, 3, 20, 2, seed=1), 20)
    with pytest.raises(PietspError, match=r"^unknown variant 'no-pi', expected one of \('full', 'no-ee', 'no-ge'\)$"):
        forward_batch(batch, params, "no-pi")


def test_forward_deterministic():
    params = init_params(50, 8, 3, seed=19)
    sample = synthetic_samples(5, 3, 50, 1, seed=20)[0]
    a = forward(sample, params).logits
    b = forward(sample, params).logits
    assert np.array_equal(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_forward_invariant_to_universe_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, k, d = int(rng.integers(1, 10)), int(rng.integers(1, 6)), int(rng.integers(2, 8))
    vocab = 30
    params = init_params(vocab, d, k, seed=seed)
    sample = synthetic_samples(n, k, vocab, 1, seed=seed + 1)[0]
    shuffled = permuted_sample(sample, rng.permutation(n))
    delta = forward(shuffled, params).logits - forward(sample, params).logits
    assert np.abs(delta).max() < 1e-9


def test_forward_rejects_out_of_range_universe():
    params = init_params(10, 4, 2, seed=21)
    sample = synthetic_samples(3, 2, 10, 1, seed=22)[0]
    bad = PreparedSample(
        user_id="x",
        universe=np.array([0, 1, 10]),
        membership=sample.membership,
        target_ids=sample.target_ids,
        vocab_size=10,
    )
    with pytest.raises(MappingError):
        forward(bad, params)
    empty = PreparedSample(
        user_id="x",
        universe=np.array([], dtype=np.int64),
        membership=np.zeros((0, 2)),
        target_ids=sample.target_ids,
        vocab_size=10,
    )
    with pytest.raises(MappingError):
        forward(empty, params)


def test_nonfinite_values_name_their_layer():
    """An overflow in each layer raises NumericsError naming that layer, through ``forward`` and through an
    engine call over several users alike."""
    sample = synthetic_samples(4, 2, 10, 1, seed=29)[0]
    others = synthetic_samples(3, 2, 10, 2, seed=33)
    cases = {
        "pe_forward": {"emb": 1.0, "pe_w_global": 1e308},
        "ee_forward": {"ee_b1": 1e308, "ee_w2": 1.0},
        "pi_forward": {"pi_b1": 1e308, "pi_w2": 1.0},
        "ge_forward": {"emb": 1.0, "pi_b3": 1e308},
        "fuse_scores": {"emb": 1.0, "pi_b3": 10.0, "fuse_global": 1e308},
    }
    # ReLU maps -inf to 0, so only a check before it sees the ee pre-activation overflow
    relu_hidden = {"emb": 1.0, "pe_bias": 100.0, "ee_w1": -1e308}
    for layer, values in [*cases.items(), ("ee_forward", relu_hidden)]:
        params = init_params(10, 4, 2, seed=30)
        for slot, value in values.items():
            getattr(params, slot)[...] = value
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match=layer):
            forward(sample, params)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match=layer):
            forward_batch(make_batch([*others, sample], 10), params)


@pytest.mark.parametrize("variant", ["full", "no-ee", "no-ge"])
def test_the_score_block_is_checked_once_per_call(monkeypatch, variant):
    """Of the finiteness checks of one engine call, exactly one covers a B x |E| block."""
    samples = synthetic_samples(5, 3, 30, 3, seed=31)
    params = init_params(30, 4, 3, seed=32)
    shapes, real = [], model.check_finite

    def check_finite(a, where):
        shapes.append(np.shape(a))
        return real(a, where)

    monkeypatch.setattr(model, "check_finite", check_finite)
    forward_batch(make_batch(samples, 30), params, variant)
    assert shapes.count((3, 30)) == 1


@pytest.mark.parametrize(
    "variant, values, layer",
    [("no-ee", {"emb": 1.0, "pi_b3": 1e308}, "ge_forward"),
     ("no-ee", {"emb": 1.0, "pi_b3": 10.0, "fuse_global": 1e308}, "fuse_scores"),
     ("no-ge", {"emb": 1.0, "ee_b2": 1e200, "fuse_local": 1e200}, "fuse_scores")],
)
def test_nonfinite_scores_name_their_layer_in_each_variant(variant, values, layer):
    sample = synthetic_samples(4, 2, 10, 1, seed=29)[0]
    params = init_params(10, 4, 2, seed=30)
    for slot, value in values.items():
        getattr(params, slot)[...] = value
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match=layer):
        forward(sample, params, variant)


# --- ablation variants -------------------------------------------------------------

def test_variant_no_ee_equals_beta_zero():
    params = init_params(40, 6, 3, seed=23)
    sample = synthetic_samples(5, 3, 40, 1, seed=24)[0]
    zeroed = params.copy()
    zeroed.fuse_local[:] = 0.0
    assert np.allclose(forward(sample, zeroed).logits, forward(sample, params, "no-ee").logits)


def test_variant_no_ge_equals_alpha_zero():
    params = init_params(40, 6, 3, seed=25)
    sample = synthetic_samples(5, 3, 40, 1, seed=26)[0]
    zeroed = params.copy()
    zeroed.fuse_global[:] = 0.0
    assert np.allclose(forward(sample, zeroed).logits, forward(sample, params, "no-ge").logits)


def test_variant_no_ge_scores_only_universe():
    params = init_params(40, 6, 3, seed=27)
    sample = synthetic_samples(4, 3, 40, 1, seed=28)[0]
    logits = forward(sample, params, "no-ge").logits
    outside = np.setdiff1d(np.arange(40), sample.universe)
    assert np.all(logits[outside] == 0.0)


# --- backward: finite-difference oracle ----------------------------------------------

def test_backward_matches_finite_differences_every_slot():
    sample, params, d_logits = make_instance()
    results = check_all_slots(sample, params, d_logits, tol=1e-5)
    # gradient completeness: every slot is alive on a generic instance, so
    # zeroing any analytic slot would break the check above
    for slot, (err, fd_max) in results.items():
        assert fd_max > 1e-7, f"slot '{slot}' has an all-zero finite-difference gradient"


@pytest.mark.parametrize("users, shape", [(3, (3, 13)), (3, (12,)), (3, (2, 12)), (1, (13,)), (1, (2, 12))])
def test_backward_refuses_d_logits_of_the_wrong_shape(users, shape):
    # the logits of a call are (B, |E|) = (users, 12); one user's may also come as (|E|,)
    params = init_params(12, 5, 3, seed=0)
    trace = forward_batch(make_batch(synthetic_samples(4, 3, 12, users, seed=1), 12), params)
    grads = params.zeros_like()
    want = rf"^backward: d_logits \({', '.join(map(str, shape))},?\) vs logits \({users}, 12\)$"
    with pytest.raises(ShapeError, match=want):
        backward(trace, params, np.zeros(shape), grads)
    assert not grads.flat.any()


def test_backward_zero_upstream_gives_zero_grads():
    sample, params, _ = make_instance(start_seed=50)
    grads = analytic_gradient(sample, params, np.zeros(params.vocab_size))
    for name, arr in grads.slots():
        assert np.all(arr == 0.0), name


def test_backward_adds_into_the_buffer():
    sample, params, d_logits = make_instance(start_seed=70)
    alone = analytic_gradient(sample, params, d_logits)
    grads = params.zeros_like()
    for _, arr in grads.slots():
        arr[...] = 0.5
    backward(forward(sample, params), params, d_logits, grads)
    for (name, got), (_, want) in zip(grads.slots(), alone.slots()):
        assert np.abs(got - (want + 0.5)).max() < 1e-12, name


def test_emb_rows_outside_universe_get_only_global_path():
    sample, params, d_logits = make_instance(start_seed=60)
    trace = forward(sample, params)
    grads = analytic_gradient(sample, params, d_logits)
    d_global = d_logits * params.fuse_global
    ge_only = np.outer(d_global, trace.set_repr)
    outside = np.setdiff1d(np.arange(params.vocab_size), sample.universe)
    assert outside.size > 0
    assert np.abs(grads.emb[outside] - ge_only[outside]).max() < 1e-15
    inside_delta = np.abs(grads.emb[sample.universe] - ge_only[sample.universe]).max()
    assert inside_delta > 1e-8  # the gather path contributes on universe rows


def test_backward_variants_match_finite_differences():
    for variant, seed in (("no-ee", 80), ("no-ge", 120)):
        sample, params, d_logits = make_instance(start_seed=seed)
        grads = analytic_gradient(sample, params, d_logits, variant)
        for slot in ("emb", "pe_w_global", "pe_w_local", "fuse_global", "fuse_local"):
            fd = fd_gradient_slot(sample, params, d_logits, slot, variant=variant)
            assert relative_error(getattr(grads, slot), fd) < 1e-5, (variant, slot)


def test_backward_gradcheck_second_instance():
    sample, params, d_logits = make_instance(vocab=15, dim=4, k_max=2, n_elements=6, start_seed=200)
    check_all_slots(sample, params, d_logits, tol=1e-5)


@pytest.mark.parametrize("branch", ["element", "global", "equivariant"])
def test_backward_branch_matches_finite_differences(branch):
    # one engine call of three users whose universes overlap: each branch on its own, every slot it
    # writes and the gradient it hands on, against finite differences of its own forward layers
    samples, params, d_logits = make_batch_instance(vocab=12, dim=5, k_max=3, sizes=(3, 5, 8), start_seed=400)
    results = check_branch(branch, samples, params, d_logits)
    assert len(results) == {"element": 6, "global": 9, "equivariant": 4}[branch]
