import base64
import json
from pathlib import Path

import numpy as np
import pytest

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
