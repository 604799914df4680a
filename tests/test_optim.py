import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import oracle_checkpoint_bytes
from pietsp.checkpoint import checkpoint_bytes, load_checkpoint
from pietsp.linalg import ShapeError
from pietsp.model import init_params
from pietsp.optim import (
    ADAM_RUN,
    BETA1,
    BETA2,
    DECAYED_SLOTS,
    EPS,
    AdamState,
    OptimizerError,
    adam_step,
    cosine_lr,
)
from pietsp.train import LOSS_RUN


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.001) == 0.001
    assert abs(cosine_lr(100, 100, 0.001)) < 1e-18
    assert abs(cosine_lr(50, 100, 0.001) - 0.0005) < 1e-18


def test_cosine_rejects_bad_epoch():
    with pytest.raises(OptimizerError):
        cosine_lr(5, 4, 0.1)
    with pytest.raises(OptimizerError):
        cosine_lr(0, 0, 0.1)


def _tiny_params():
    return init_params(6, 3, 2, seed=0)


def test_zero_grads_no_decay_leaves_params_unchanged():
    params = _tiny_params()
    before = params.copy()
    state = AdamState.init(params)
    adam_step(params, params.zeros_like(), state, lr=0.001, weight_decay=0.0)
    assert state.step == 1
    for (name, a), (_, b) in zip(params.slots(), before.slots()):
        assert np.array_equal(a, b), name


def test_single_step_closed_form():
    # theta=0, g=1: bias-corrected m/sqrt(v) = 1, so theta -> -lr/(1+eps)
    params = _tiny_params()
    params.emb[:] = 0.0
    grads = params.zeros_like()
    grads.emb[:] = 1.0
    state = AdamState.init(params)
    adam_step(params, grads, state, lr=0.001, weight_decay=0.0)
    expected = -0.001 / (1.0 + EPS)
    assert np.allclose(params.emb, expected, rtol=0, atol=1e-12)


def test_pure_decay_term():
    # g=0, theta=1, lr=0.001, decay=0.01 -> theta = 1 - 1e-5
    params = _tiny_params()
    params.emb[:] = 1.0
    state = AdamState.init(params)
    adam_step(params, params.zeros_like(), state, lr=0.001, weight_decay=0.01)
    assert np.allclose(params.emb, 1.0 - 1e-5, rtol=0, atol=1e-15)


def test_biases_and_fusion_weights_not_decayed():
    params = _tiny_params()
    params.pe_bias[:] = 1.0
    params.fuse_global[:] = 1.0
    params.fuse_local[:] = 1.0
    params.ee_b2[...] = 1.0
    state = AdamState.init(params)
    adam_step(params, params.zeros_like(), state, lr=0.001, weight_decay=0.01)
    assert np.all(params.pe_bias == 1.0)
    assert np.all(params.fuse_global == 1.0)
    assert np.all(params.fuse_local == 1.0)
    assert params.ee_b2 == 1.0


def test_nonfinite_gradient_names_slot():
    params = _tiny_params()
    grads = params.zeros_like()
    grads.pi_w2[0, 0] = np.nan
    with pytest.raises(OptimizerError, match="pi_w2"):
        adam_step(params, grads, AdamState.init(params), lr=0.001)


def test_nonfinite_gradient_leaves_every_slot_and_the_step_untouched():
    params = _tiny_params()
    state = AdamState.init(params)
    rng = np.random.default_rng(4)
    grads = params.zeros_like()
    for _, g in grads.slots():
        g[...] = rng.normal(size=g.shape)
    adam_step(params, grads, state, lr=0.001, weight_decay=0.01)  # non-zero moments to preserve
    before = (params.copy(), state.m.copy(), state.v.copy(), state.step)
    grads.fuse_local[-1] = np.nan  # the last slot: every other slot's update would run before it
    with pytest.raises(OptimizerError, match="fuse_local"):
        adam_step(params, grads, state, lr=0.001, weight_decay=0.01)
    for kept, now in zip(before[:3], (params, state.m, state.v)):
        for (name, a), (_, b) in zip(kept.slots(), now.slots()):
            assert np.array_equal(a, b), name
    assert state.step == before[3]


def _assert_views_of_flat(params, how):
    """Every slot is a C-contiguous view of the one buffer, in the decayed-first layout."""
    flat = params.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.flags.owndata
    addr = flat.__array_interface__["data"][0]
    spans = []
    for name, arr in params.slots():
        assert arr.base is flat and arr.flags.c_contiguous and arr.flags.writeable, (how, name)
        start = (arr.__array_interface__["data"][0] - addr) // flat.itemsize
        spans.append((start, start + arr.size, name))
    spans.sort()
    assert [s[0] for s in spans] == [0] + [s[1] for s in spans[:-1]] and spans[-1][1] == flat.size, how
    assert {s[2] for s in spans if s[1] <= params.decayed.size} == DECAYED_SLOTS, how


def test_every_slot_is_a_contiguous_view_of_one_buffer(tmp_path):
    params, state = _moved(init_params(9, 4, 2, seed=3))
    made = {"init_params": params, "zeros_like": params.zeros_like(), "copy": params.copy(),
            "astype": params.astype(np.float32)}
    assert made["astype"].flat.dtype == np.float32 and np.array_equal(made["copy"].flat, params.flat)
    kwargs = dict(opt_state=state, train_state={"epoch": 0, "best_metric": 0.0, "best_epoch": 0, "bad_epochs": 0,
                                                "history": [], "best_params": params.copy()})
    for fmt, blob in (("v1", oracle_checkpoint_bytes(params, **kwargs)), ("v2", checkpoint_bytes(params, **kwargs))):
        (tmp_path / fmt).write_bytes(blob)
        ck = load_checkpoint(tmp_path / fmt)
        made |= {f"{fmt} params": ck.params, f"{fmt} m": ck.opt_state.m, f"{fmt} v": ck.opt_state.v,
                 f"{fmt} best_params": ck.train_state["best_params"]}
        assert np.array_equal(ck.opt_state.v.flat, state.v.flat) and np.array_equal(ck.params.flat, params.flat)
    for how, container in made.items():
        _assert_views_of_flat(container, how)


def _moved(params):
    state = AdamState.init(params)
    grads = params.zeros_like()
    grads.flat[...] = np.random.default_rng(0).normal(size=grads.flat.size)
    adam_step(params, grads, state, lr=0.01, weight_decay=0.01)
    return params, state


def test_fortran_ordered_assignment_writes_through_and_the_next_step_updates_it():
    params, state = _moved(_tiny_params())
    view = state.v.emb
    doubled = np.asfortranarray(view * 2.0)
    state.v.emb = doubled
    assert state.v.emb is view and view.flags.c_contiguous and np.array_equal(view, doubled)
    before = state.v.emb.copy()
    grads = params.zeros_like()
    grads.emb[...] = 1.0
    adam_step(params, grads, state, lr=0.001)
    assert np.array_equal(state.v.emb, BETA2 * before + (1.0 - BETA2) * 1.0)  # the update reached the buffer


@pytest.mark.parametrize("value", [np.zeros((4, 3)), np.zeros(6), np.zeros(()), [0.0, 1.0]],
                         ids=["transposed", "flattened", "scalar", "list"])
def test_wrong_shaped_assignment_raises_shape_error(value):
    params = _tiny_params()
    before = params.flat.copy()
    with pytest.raises(ShapeError, match=r"slot 'pe_w_local': shape .*, expected \(5, 3\)"):
        params.pe_w_local = value
    with pytest.raises(AttributeError, match="no slot 'pe_w_locl'"):
        params.pe_w_locl = np.zeros((5, 3))
    assert np.array_equal(params.flat, before)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_update_magnitude_bounded_by_lr_and_decay(seed, steps):
    rng = np.random.default_rng(seed)
    params = _tiny_params()
    grads = params.zeros_like()
    grads.emb[:] = rng.normal(size=grads.emb.shape)  # constant across steps
    state = AdamState.init(params)
    lr, decay = 0.01, 0.01
    for _ in range(steps):
        before = params.emb.copy()
        adam_step(params, grads, state, lr=lr, weight_decay=decay)
        step_size = np.abs(params.emb - before)
        bound = lr * (1.0 + decay * np.abs(before)) + 1e-12
        assert np.all(step_size <= bound)


def test_decayed_slots_cover_all_weight_matrices():
    params = _tiny_params()
    weightish = {name for name, arr in params.slots() if arr.ndim == 2} | {"ee_w2"}
    assert DECAYED_SLOTS == frozenset(weightish)


def test_velocity_nonnegative():
    params = _tiny_params()
    grads = params.zeros_like()
    grads.emb[:] = np.random.default_rng(1).normal(size=grads.emb.shape)
    state = AdamState.init(params)
    for _ in range(5):
        adam_step(params, grads, state, lr=0.001)
    for name, arr in state.v.slots():
        assert np.all(arr >= 0.0), name


def test_in_place_step_is_bitwise_the_textbook_formula():
    """Decayed slots, undecayed slots and the 0-d ee_b2 all follow the written-out update bit for bit."""
    rng = np.random.default_rng(4)
    params = init_params(9, 4, 2, seed=2)
    want = params.copy()
    state = AdamState.init(params)
    m, v = params.zeros_like(), params.zeros_like()
    lr, decay = 0.003, 0.02
    for step in range(1, 6):
        grads = params.zeros_like()
        for _, arr in grads.slots():
            arr[...] = rng.normal(size=arr.shape)
        adam_step(params, grads, state, lr=lr, weight_decay=decay)
        bc1, bc2 = 1.0 - BETA1**step, 1.0 - BETA2**step
        for name, p in want.slots():
            g, mm, vv = getattr(grads, name), getattr(m, name), getattr(v, name)
            mm[...] = BETA1 * mm + (1.0 - BETA1) * g
            vv[...] = BETA2 * vv + (1.0 - BETA2) * g * g
            update = (mm / bc1) / (np.sqrt(vv / bc2) + EPS)
            p[...] = p - lr * update - lr * decay * p if name in DECAYED_SLOTS else p - lr * update
    assert params.ee_b2.shape == () and "ee_b2" not in DECAYED_SLOTS and "emb" in DECAYED_SLOTS
    for got, expected in ((params, want), (state.m, m), (state.v, v)):
        for (name, a), (_, b) in zip(got.slots(), expected.slots()):
            assert np.array_equal(a, b), name


def test_step_across_run_boundaries_is_bitwise_the_textbook_formula():
    """A slot spanning several runs, its last one partial, updates exactly as if taken whole."""
    rng = np.random.default_rng(6)
    params = init_params(2100, 32, 2, seed=5)
    assert params.emb.size > LOSS_RUN and params.emb.size % ADAM_RUN != 0
    assert params.fuse_local.size < ADAM_RUN  # a slot within one run
    assert params.ee_b2.shape == () and "ee_b2" not in DECAYED_SLOTS and "pe_bias" not in DECAYED_SLOTS
    want = params.copy()
    state = AdamState.init(params)
    m, v = params.zeros_like(), params.zeros_like()
    lr, decay = 0.003, 0.02
    for step in range(1, 4):
        grads = params.zeros_like()
        for _, arr in grads.slots():
            arr[...] = rng.normal(size=arr.shape)
        adam_step(params, grads, state, lr=lr, weight_decay=decay)
        bc1, bc2 = 1.0 - BETA1**step, 1.0 - BETA2**step
        for name, p in want.slots():
            g, mm, vv = getattr(grads, name), getattr(m, name), getattr(v, name)
            mm[...] = BETA1 * mm + (1.0 - BETA1) * g
            vv[...] = BETA2 * vv + (1.0 - BETA2) * g * g
            update = (mm / bc1) / (np.sqrt(vv / bc2) + EPS)
            p[...] = p - lr * update - lr * decay * p if name in DECAYED_SLOTS else p - lr * update
    for got, expected in ((params, want), (state.m, m), (state.v, v)):
        for (name, a), (_, b) in zip(got.slots(), expected.slots()):
            assert np.array_equal(a, b), name


def test_step_temporaries_stay_under_one_megabyte():
    params = init_params(12000, 32, 16, seed=0)
    grads = params.zeros_like()
    rng = np.random.default_rng(2)
    for _, g in grads.slots():
        g[...] = rng.normal(size=g.shape)
    state = AdamState.init(params)
    adam_step(params, grads, state, lr=0.001, weight_decay=0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adam_step(params, grads, state, lr=0.001, weight_decay=0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak  # whole-slot temporaries took 6.2 MB
