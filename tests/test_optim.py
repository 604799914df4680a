import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pietsp.model import init_params
from pietsp.optim import (
    BETA1,
    BETA2,
    DECAYED_SLOTS,
    EPS,
    AdamState,
    OptimizerError,
    adam_step,
    cosine_lr,
)


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


def test_decay_fusion_knob():
    params = _tiny_params()
    params.fuse_global[:] = 1.0
    state = AdamState.init(params)
    adam_step(params, params.zeros_like(), state, lr=0.001, weight_decay=0.01, decay_fusion=True)
    assert np.allclose(params.fuse_global, 1.0 - 1e-5)


def test_nonfinite_gradient_names_slot():
    params = _tiny_params()
    grads = params.zeros_like()
    grads.pi_w2[0, 0] = np.nan
    with pytest.raises(OptimizerError, match="pi_w2"):
        adam_step(params, grads, AdamState.init(params), lr=0.001)


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
