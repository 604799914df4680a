import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import oracle_checkpoint_bytes
from pietsp.checkpoint import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from pietsp.model import init_params
from pietsp.optim import AdamState, adam_step


def test_roundtrip_bit_exact(tmp_path):
    params = init_params(17, 6, 4, seed=5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, seed=5)
    loaded = load_checkpoint(path)
    for (name, a), (_, b) in zip(params.slots(), loaded.params.slots()):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert loaded.seed == 5


def test_save_load_save_byte_identical(tmp_path):
    params = init_params(9, 4, 2, seed=1)
    first = tmp_path / "a.json"
    save_checkpoint(first, params, seed=1, config={"x": 0.1})
    loaded = load_checkpoint(first)
    second = tmp_path / "b.json"
    save_checkpoint(second, loaded.params, seed=loaded.seed, config=loaded.config)
    assert first.read_bytes() == second.read_bytes()


def test_optimizer_state_roundtrip_bit_exact(tmp_path):
    params = init_params(9, 4, 2, seed=2)
    state = AdamState.init(params)
    grads = params.zeros_like()
    grads.emb[:] = 0.25
    adam_step(params, grads, state, lr=0.01)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, opt_state=state)
    loaded = load_checkpoint(path)
    assert loaded.opt_state.step == 1
    for container, back in ((state.m, loaded.opt_state.m), (state.v, loaded.opt_state.v)):
        for (name, a), (_, b) in zip(container.slots(), back.slots()):
            assert np.array_equal(a, b), name


def test_tampered_shape_names_slot(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text())
    payload["params"]["pi_w2"]["shape"] = [4, 5]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="pi_w2"):
        load_checkpoint(path)


def test_corrupt_base64_names_slot(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text())
    payload["params"]["emb"]["data"] = "!!!not base64!!!"
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="emb"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_envelope_dim_mismatch_rejected(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text())
    payload["vocab_size"] = 10
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="vocab_size"):
        load_checkpoint(path)


def test_missing_file():
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint("/nonexistent/ck.json")


def test_float32_params_rejected():
    params = init_params(9, 4, 2, seed=3).astype(np.float32)
    with pytest.raises(CheckpointError, match="float64"):
        checkpoint_bytes(params)


def test_train_state_with_best_params_roundtrip(tmp_path):
    params = init_params(9, 4, 2, seed=4)
    best = init_params(9, 4, 2, seed=5)
    path = tmp_path / "ck.json"
    save_checkpoint(
        path,
        params,
        train_state={"epoch": 3, "best_metric": 0.5, "best_epoch": 2, "bad_epochs": 1,
                     "history": [{"epoch": 0}], "best_params": best},
    )
    loaded = load_checkpoint(path)
    assert loaded.train_state["epoch"] == 3
    assert np.array_equal(loaded.train_state["best_params"].emb, best.emb)


@pytest.mark.parametrize(
    "table",
    [("params",), ("optimizer", "m"), ("optimizer", "v"), ("trainer", "best_params")],
    ids=lambda t: "-".join(t),
)
def test_wrong_shaped_slot_rejected_naming_it(tmp_path, table):
    params = init_params(9, 4, 2, seed=6)
    path = tmp_path / "ck.json"
    save_checkpoint(
        path,
        params,
        opt_state=AdamState.init(params),
        train_state={"epoch": 0, "best_metric": 0.0, "best_epoch": 0, "bad_epochs": 0,
                     "history": [], "best_params": params.copy()},
    )
    payload = json.loads(path.read_text())
    slots = payload
    for key in table:
        slots = slots[key]
    # a well-formed array of the wrong shape: one entry instead of vocab_size
    slots["fuse_global"] = {"shape": [1], "data": base64.b64encode(np.ones(1).tobytes()).decode("ascii")}
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=rf"{table[-1]} slot 'fuse_global'.*\(9,\)"):
        load_checkpoint(path)


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=7), seed=7)
    before = path.read_bytes()

    def fail_part_way(self, data):
        with open(self, "wb") as fh:
            fh.write(bytes(data)[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", fail_part_way)
    with pytest.raises(OSError):
        save_checkpoint(path, init_params(9, 4, 2, seed=8), seed=8)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).seed == 7
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


# --- the spliced writer against the plain json.dumps encoder ------------------

# text that JSON escapes, non-ASCII text, and the splice marker itself, alone and in runs
AWKWARD = ['say "hi"', "back\\slash", "nul\x00byte", "gr\u00fc\u00dfe \u65e5\u672c \U0001f600",
           "@", '"@"', "a@b.org", "@@@ and @@", "", "@" * 40]


def _moved_params(vocab, dim, k_max, seed):
    """Parameters plus Adam moments after one step, so every table differs."""
    params = init_params(vocab, dim, k_max, seed=seed)
    state = AdamState.init(params)
    grads = params.zeros_like()
    for _, arr in grads.slots():
        arr[...] = np.random.default_rng(seed).normal(size=arr.shape)
    adam_step(params, grads, state, lr=0.01)
    return params, state


def _train_state(best_params, history):
    return {"epoch": 2, "best_metric": 0.25, "best_epoch": 1, "bad_epochs": 1,
            "history": history, "best_params": best_params}


def _fixtures():
    params, state = _moved_params(9, 4, 2, seed=11)
    history = [{"epoch": 0, "note": text} for text in AWKWARD]
    config = {text: text for text in AWKWARD} | {"lr": 1e-3, "none": None, "list": AWKWARD}
    return {
        "params-only": dict(params=params),
        "optimizer-only": dict(params=params, seed=3, opt_state=state),
        "trainer-only": dict(params=params, train_state=_train_state(params.copy(), [])),
        "no-best-params": dict(params=params, opt_state=state, train_state=_train_state(None, history)),
        "awkward-strings": dict(params=params, seed=0, config=config, opt_state=state,
                                train_state=_train_state(params.copy(), history)),
        "marker-keys-only": dict(params=params, config={"@" * i: i for i in range(1, 40)}),
    }


@pytest.mark.parametrize("name", list(_fixtures()))
def test_checkpoint_bytes_equal_the_json_dumps_oracle(name):
    fixture = _fixtures()[name]
    assert fixture["params"].ee_b2.shape == ()
    assert checkpoint_bytes(**fixture) == oracle_checkpoint_bytes(**fixture)


@given(vocab=st.integers(1, 12), dim=st.integers(1, 5), k_max=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_checkpoint_bytes_equal_the_oracle_on_small_shapes(vocab, dim, k_max, seed):
    params, state = _moved_params(vocab, dim, k_max, seed)
    kwargs = dict(seed=seed, config={"seed": seed}, opt_state=state,
                  train_state=_train_state(params.copy(), [{"epoch": 0}]))
    assert checkpoint_bytes(params, **kwargs) == oracle_checkpoint_bytes(params, **kwargs)


def test_unserializable_user_state_still_raises_type_error():
    with pytest.raises(TypeError, match="int64"):
        checkpoint_bytes(init_params(9, 4, 2, seed=3), config={"epochs": np.int64(3)})


def test_truncated_checkpoint_is_rejected(tmp_path):
    params, state = _moved_params(9, 4, 2, seed=12)
    whole = checkpoint_bytes(params, seed=1, opt_state=state, train_state=_train_state(params.copy(), []))
    data_at = whole.index(b'"emb":{"data":"') + len(b'"emb":{"data":"')
    cuts = {"envelope": whole.index(b'"concat_layout"') + 5, "payload": data_at + 40, "last-byte": len(whole) - 1}
    for where, cut in cuts.items():
        path = tmp_path / f"{where}.json"
        path.write_bytes(whole[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "data",
    # the last four would decode to the slot's 8 bytes if stray characters were skipped
    ["AAAAAAAA\u00e9AAA", 12, ["AAAAAAAAAAA="], "AAAAAAAAAAA", "AAAAAAAAAA=A", "=AAAAAAAAAAA",
     "AAAA-AAAAAAA=", "AAAA\nAAAAAAA=", "AAAAAAAAAAA=A", "AAAAAAAAAAA=="],
    ids=["non-ascii", "int", "list", "no-padding", "padding-inside", "leading-padding",
         "outside-alphabet", "newline", "data-after-padding", "excess-padding"],
)
def test_bad_payload_names_slot(tmp_path, data):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    payload = json.loads(path.read_text())
    payload["params"]["ee_b2"]["data"] = data
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="slot 'ee_b2': corrupt base64 payload"):
        load_checkpoint(path)
