import base64
import errno
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import oracle_checkpoint_bytes
from pietsp import checkpoint
from pietsp.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from pietsp.model import PARAM_SLOTS, init_params, param_shapes
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
    path.write_bytes(oracle_checkpoint_bytes(params))
    payload = json.loads(path.read_text())
    payload["params"]["pi_w2"]["shape"] = [4, 5]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="pi_w2"):
        load_checkpoint(path)


def test_corrupt_base64_names_slot(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    path.write_bytes(oracle_checkpoint_bytes(params))
    payload = json.loads(path.read_text())
    payload["params"]["emb"]["data"] = "!!!not base64!!!"
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="emb"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    path.write_bytes(oracle_checkpoint_bytes(params))
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_envelope_dim_mismatch_rejected(tmp_path):
    params = init_params(9, 4, 2, seed=3)
    path = tmp_path / "ck.json"
    path.write_bytes(oracle_checkpoint_bytes(params))
    payload = json.loads(path.read_text())
    payload["vocab_size"] = 10
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="vocab_size"):
        load_checkpoint(path)


def test_missing_file():
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint("/nonexistent/ck.json")


def test_a_directory_is_rejected_naming_the_path_and_the_reason(tmp_path):
    with pytest.raises(CheckpointError, match=rf"{tmp_path}: cannot read the checkpoint \(Is a directory\)"):
        load_checkpoint(tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="the platform has no FIFOs")
def test_a_fifo_is_refused_without_waiting_for_a_writer(tmp_path):
    """Run in a subprocess with a timeout: a load that blocked on the FIFO would never return."""
    path = tmp_path / "ck.json"
    os.mkfifo(path)
    src = str(Path(checkpoint.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "pietsp.cli", "inspect", "--ckpt", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"pietsp inspect: {path}: cannot read the checkpoint (not a regular file)\n"


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.path.isfile(os.devnull), reason="no device file to load")
def test_a_device_is_refused_as_not_a_regular_file():
    with pytest.raises(CheckpointError, match=f"^{re.escape(os.devnull)}: cannot read the checkpoint"
                                              r" \(not a regular file\)$"):
        load_checkpoint(os.devnull)


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
    path.write_bytes(oracle_checkpoint_bytes(
        params,
        opt_state=AdamState.init(params),
        train_state={"epoch": 0, "best_metric": 0.0, "best_epoch": 0, "bad_epochs": 0,
                     "history": [], "best_params": params.copy()},
    ))
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
    reached = []  # bytes in the file being written when the disk filled up

    class FailPartWay:
        """The file save writes to: the second write stores half its bytes, then the disk is full."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes < 2:
                return self.fh.write(data)
            self.fh.write(bytes(data)[: len(data) // 2])
            self.fh.flush()
            reached.append(os.path.getsize(self.fh.name))
            raise OSError("no space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *args, **kwargs: FailPartWay(open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, init_params(9, 4, 2, seed=8), seed=8)
    monkeypatch.undo()
    assert reached and reached[0] > 0
    assert path.read_bytes() == before
    assert load_checkpoint(path).seed == 7
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


# --- format 2 against format 1 from the plain json.dumps oracle ---------------

# text that JSON escapes (a newline among it, which must not end format 2's header
# line), non-ASCII text, and runs of "@", the earlier spliced writer's marker
AWKWARD = ['say "hi"', "back\\slash", "nul\x00byte", "gr\u00fc\u00dfe \u65e5\u672c \U0001f600",
           "@", '"@"', "a@b.org", "@@@ and @@", "", "@" * 40, "line\nbreak"]


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


def _tables(ck):
    """Every parameter table a loaded checkpoint holds, by name."""
    tables = {"params": ck.params}
    if ck.opt_state is not None:
        tables |= {"m": ck.opt_state.m, "v": ck.opt_state.v}
    if ck.train_state is not None and ck.train_state["best_params"] is not None:
        tables["best_params"] = ck.train_state["best_params"]
    return tables


def _assert_formats_agree(directory, kwargs):
    """The oracle's format-1 bytes and format-2 bytes load to the same checkpoint, which re-saves identically."""
    v1, v2 = directory / "v1.json", directory / "v2.json"
    v1.write_bytes(oracle_checkpoint_bytes(**kwargs))
    v2.write_bytes(checkpoint_bytes(**kwargs))
    assert v1.read_bytes().startswith(b"{") and v2.read_bytes().startswith(MAGIC)
    a, b = load_checkpoint(v1), load_checkpoint(v2)
    assert a.seed == b.seed == kwargs.get("seed")
    assert a.config == b.config == kwargs.get("config")
    assert (a.opt_state is None) == (b.opt_state is None) == (kwargs.get("opt_state") is None)
    if a.opt_state is not None:
        assert a.opt_state.step == b.opt_state.step == kwargs["opt_state"].step
    if a.train_state is not None or b.train_state is not None:
        strip = lambda ts: {k: v for k, v in ts.items() if k != "best_params"}  # noqa: E731
        assert strip(a.train_state) == strip(b.train_state) == strip(kwargs["train_state"])
    ta, tb = _tables(a), _tables(b)
    assert ta.keys() == tb.keys()
    for table in ta:
        for (name, x), (_, y) in zip(ta[table].slots(), tb[table].slots()):
            assert x.dtype == y.dtype == np.float64 and x.shape == y.shape, (table, name)
            assert x.tobytes() == y.tobytes(), (table, name)
            assert y.flags.c_contiguous and y.flags.aligned and y.flags.writeable, (table, name)
    want = v2.read_bytes()
    for ck in (a, b):
        again = checkpoint_bytes(ck.params, seed=ck.seed, config=ck.config, opt_state=ck.opt_state,
                                 train_state=ck.train_state)
        assert again == want


@pytest.mark.parametrize("name", list(_fixtures()))
def test_checkpoint_bytes_equal_the_json_dumps_oracle(tmp_path, name):
    """Format 2 holds what the oracle's format-1 document holds, bit for bit."""
    fixture = _fixtures()[name]
    assert fixture["params"].ee_b2.shape == ()
    _assert_formats_agree(tmp_path, fixture)


@given(vocab=st.integers(1, 12), dim=st.integers(1, 5), k_max=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_checkpoint_bytes_equal_the_oracle_on_small_shapes(tmp_path_factory, vocab, dim, k_max, seed):
    params, state = _moved_params(vocab, dim, k_max, seed)
    kwargs = dict(params=params, seed=seed, config={"seed": seed}, opt_state=state,
                  train_state=_train_state(params.copy(), [{"epoch": 0}]))
    _assert_formats_agree(tmp_path_factory.mktemp("formats"), kwargs)


def test_unserializable_user_state_still_raises_type_error():
    with pytest.raises(TypeError, match="int64"):
        checkpoint_bytes(init_params(9, 4, 2, seed=3), config={"epochs": np.int64(3)})


def test_truncated_checkpoint_is_rejected(tmp_path):
    params, state = _moved_params(9, 4, 2, seed=12)
    whole = oracle_checkpoint_bytes(params, seed=1, opt_state=state, train_state=_train_state(params.copy(), []))
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
    path.write_bytes(oracle_checkpoint_bytes(init_params(9, 4, 2, seed=3)))
    payload = json.loads(path.read_text())
    payload["params"]["ee_b2"]["data"] = data
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="slot 'ee_b2': corrupt base64 payload"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "record, message",
    [({"shape": []}, "malformed array record"),
     ({"shape": [], "data": base64.b64encode(bytes(16)).decode("ascii")},
      r"payload holds 16 bytes but shape \(\) needs 8"),
     ({"shape": [], "data": base64.b64encode(bytes(4)).decode("ascii")},
      r"payload holds 4 bytes but shape \(\) needs 8")],
    ids=["no-data", "too-long", "too-short"],
)
def test_v1_bad_record_names_slot(tmp_path, record, message):
    path = tmp_path / "ck.json"
    payload = json.loads(oracle_checkpoint_bytes(init_params(9, 4, 2, seed=3)))
    payload["params"]["ee_b2"] = record
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"params slot 'ee_b2': {message}"):
        load_checkpoint(path)


# --- format 2's header and raw section ----------------------------------------

def _split_v2(blob):
    """(header, raw section) of format-2 bytes."""
    assert blob.startswith(MAGIC)
    line, raw = blob[len(MAGIC):].split(b"\n", 1)
    return json.loads(line), raw


def _join_v2(header, raw):
    return MAGIC + json.dumps(header).encode("ascii") + b"\n" + raw


def _rewrite_v2(path, edit):
    """Apply ``edit`` to the header of the format-2 file at ``path``, keeping its raw section."""
    header, raw = _split_v2(path.read_bytes())
    edit(header)
    path.write_bytes(_join_v2(header, raw))


def test_v2_layout_is_every_slot_in_slot_order_table_by_table():
    """Offsets run over params, m, v and best_params, each in PARAM_SLOTS order, and the raw
    section is those slots' bytes back to back, whatever order the arrays sit in memory."""
    params, state = _moved_params(9, 4, 2, seed=14)
    best = params.copy()
    best.emb[...] = -best.emb  # every table holds different bytes
    header, raw = _split_v2(checkpoint_bytes(params, seed=1, opt_state=state, train_state=_train_state(best, [])))
    tables = [(header["params"], params), (header["optimizer"]["m"], state.m),
              (header["optimizer"]["v"], state.v), (header["trainer"]["best_params"], best)]
    offset, want = 0, []
    for records, container in tables:
        assert list(records) == sorted(PARAM_SLOTS)  # canonical JSON sorts the keys
        for name in PARAM_SLOTS:
            arr = getattr(container, name)
            assert records[name] == {"offset": offset, "shape": list(arr.shape)}, name
            want.append(arr.tobytes())
            offset += arr.nbytes
    assert header["data_bytes"] == offset
    assert raw == b"".join(want)


def test_v2_tampered_shape_names_slot(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    _rewrite_v2(path, lambda h: h["params"]["pi_w2"].update(shape=[4, 5]))
    with pytest.raises(CheckpointError, match="pi_w2"):
        load_checkpoint(path)


def test_v2_corrupt_record_names_slot(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    _rewrite_v2(path, lambda h: h["params"]["emb"].update(offset="!!!not an offset!!!"))
    with pytest.raises(CheckpointError, match="emb"):
        load_checkpoint(path)


def test_v2_version_mismatch_rejected(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    _rewrite_v2(path, lambda h: h.update(format_version=99))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_v2_envelope_dim_mismatch_rejected(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    _rewrite_v2(path, lambda h: h.update(vocab_size=10))
    with pytest.raises(CheckpointError, match="vocab_size"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "table",
    [("params",), ("optimizer", "m"), ("optimizer", "v"), ("trainer", "best_params")],
    ids=lambda t: "-".join(t),
)
def test_v2_wrong_shaped_slot_rejected_naming_it(tmp_path, table):
    params = init_params(9, 4, 2, seed=6)
    path = tmp_path / "ck.json"
    save_checkpoint(
        path,
        params,
        opt_state=AdamState.init(params),
        train_state={"epoch": 0, "best_metric": 0.0, "best_epoch": 0, "bad_epochs": 0,
                     "history": [], "best_params": params.copy()},
    )

    def edit(header):
        slots = header
        for key in table:
            slots = slots[key]
        # a record inside the raw section, of the wrong shape: one entry instead of vocab_size
        slots["fuse_global"] = {"offset": 0, "shape": [1]}

    _rewrite_v2(path, edit)
    with pytest.raises(CheckpointError, match=rf"{table[-1]} slot 'fuse_global'.*\(9,\)"):
        load_checkpoint(path)


def test_v2_truncated_checkpoint_is_rejected(tmp_path):
    params, state = _moved_params(9, 4, 2, seed=12)
    whole = checkpoint_bytes(params, seed=1, opt_state=state, train_state=_train_state(params.copy(), []))
    raw_at = whole.index(b"\n", len(MAGIC)) + 1
    cuts = {"magic": len(MAGIC) - 3, "header": whole.index(b'"concat_layout"') + 5,
            "header-newline": raw_at - 1, "raw": raw_at + 40, "last-byte": len(whole) - 1}
    for where, cut in cuts.items():
        path = tmp_path / f"{where}.json"
        path.write_bytes(whole[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8, b"\n"], ids=["one-byte", "one-float", "newline"])
def test_v2_trailing_bytes_are_rejected(tmp_path, extra):
    path = tmp_path / "ck.json"
    path.write_bytes(checkpoint_bytes(init_params(9, 4, 2, seed=3)) + extra)
    with pytest.raises(CheckpointError, match="raw section holds"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "record",
    [{"offset": -8, "shape": []}, {"offset": 0.0, "shape": []}, {"offset": "0", "shape": []},
     {"offset": None, "shape": []}, {"offset": True, "shape": []}, {"offset": [0], "shape": []},
     {"shape": []}, {"offset": 0}, [0, []], "AAAAAAAAAAA="],
    ids=["negative", "float", "string", "null", "bool", "list", "no-offset", "no-shape", "list-record",
         "string-record"],
)
def test_v2_bad_record_names_slot(tmp_path, record):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    _rewrite_v2(path, lambda h: h["params"].update(ee_b2=record))
    with pytest.raises(CheckpointError, match="params slot 'ee_b2': (offset|malformed)"):
        load_checkpoint(path)


@pytest.mark.parametrize("data_bytes", [-8, 8.0, "8", None, True],
                         ids=["negative", "float", "string", "null", "bool"])
def test_v2_data_bytes_that_is_not_a_non_negative_integer_is_rejected(tmp_path, data_bytes):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    _rewrite_v2(path, lambda h: h.update(data_bytes=data_bytes))
    with pytest.raises(CheckpointError, match=f"header data_bytes {re.escape(repr(data_bytes))} is not a non-negative"):
        load_checkpoint(path)


@pytest.mark.parametrize("past", [1, 8, 10**6], ids=["one-byte", "one-float", "far"])
def test_v2_offset_out_of_range_names_slot(tmp_path, past):
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_params(9, 4, 2, seed=3))
    # the scalar slot's 8 bytes would end ``past`` bytes beyond the raw section
    _rewrite_v2(path, lambda h: h["params"]["ee_b2"].update(offset=h["data_bytes"] - 8 + past))
    with pytest.raises(CheckpointError, match="params slot 'ee_b2': bytes .* fall outside"):
        load_checkpoint(path)


def test_v2_header_without_terminator_is_rejected(tmp_path):
    path = tmp_path / "ck.json"
    header, _ = _split_v2(checkpoint_bytes(init_params(9, 4, 2, seed=3)))
    path.write_bytes(MAGIC + json.dumps(header).encode("ascii"))
    with pytest.raises(CheckpointError, match="terminating newline"):
        load_checkpoint(path)


def test_v2_header_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "ck.json"
    _, raw = _split_v2(checkpoint_bytes(init_params(9, 4, 2, seed=3)))
    path.write_bytes(MAGIC + b'{"format_version": 2, "params": \n' + raw)
    with pytest.raises(CheckpointError, match=f"{path}: header is not valid JSON"):
        load_checkpoint(path)


def test_v2_header_is_one_line_of_canonical_json():
    fixture = _fixtures()["awkward-strings"]
    blob = checkpoint_bytes(**fixture)
    line, raw = blob[len(MAGIC):].split(b"\n", 1)
    header = json.loads(line)
    assert line == json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert header["format_version"] == 2 and header["data_bytes"] == len(raw)
    assert header["config"] == fixture["config"] and header["trainer"]["history"][-1]["note"] == "line\nbreak"


# --- malformed envelope fields, in both formats --------------------------------

def _drop(*keys):
    def edit(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return payload
    return edit


def _set(*keys, value):
    def edit(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return payload
    return edit


def _dims(vocab_size, dim):
    """Set the envelope's dimensions and every params slot's shape to match them (k_max stays 2)."""
    def edit(payload):
        payload.update(vocab_size=vocab_size, dim=dim)
        for slot, shape in param_shapes(vocab_size, dim, 2).items():
            payload["params"][slot]["shape"] = list(shape)
        return payload
    return edit


def _too_large(vocab_size, dim):
    """The error for dimensions whose tables cannot even be allocated (numpy raises ``MemoryError`` or
    ``ValueError``)."""
    dims = {"vocab_size": vocab_size, "dim": dim, "k_max": 2}
    return "^" + re.escape(f"params: envelope model dimensions {dims} are too large to allocate (")


# each edit takes the parsed envelope (format 1) or header (format 2) and returns the new root
ENVELOPE_FAULTS = {
    "root-list": (lambda payload: [payload], "not a checkpoint file"),
    "optimizer-list": (_set("optimizer", value=[1]), "optimizer is list"),
    "optimizer-no-step": (_drop("optimizer", "step"), "optimizer step None"),
    "step-float": (_set("optimizer", "step", value=2.7), "optimizer step 2.7"),
    "step-bool": (_set("optimizer", "step", value=True), "optimizer step True"),
    "step-negative": (_set("optimizer", "step", value=-1), "optimizer step -1"),
    "trainer-list": (_set("trainer", value=[1, 2]), "trainer is list"),
    "trainer-epoch-string": (_set("trainer", "epoch", value="2"), "trainer epoch '2'"),
    "trainer-best-epoch-float": (_set("trainer", "best_epoch", value=1.0), "trainer best_epoch 1.0"),
    "trainer-no-bad-epochs": (_set("trainer", "bad_epochs", value=None), "trainer bad_epochs None"),
    "trainer-best-metric-string": (_set("trainer", "best_metric", value="0.25"), "trainer best_metric '0.25'"),
    "trainer-best-metric-bool": (_set("trainer", "best_metric", value=False), "trainer best_metric False"),
    "trainer-history-object": (_set("trainer", "history", value={}), "trainer history is dict"),
    "config-list": (_set("config", value=[1]), "config is list"),
    "params-missing": (_drop("params"), "params: parameter table missing$"),
    "shape-float": (_set("params", "emb", "shape", value=3.5), r"params slot 'emb': shape 3\.5"),
    "shape-negative": (_set("params", "emb", "shape", value=[-9, -4]), r"params slot 'emb': shape \[-9, -4\]"),
    "shape-bool": (_set("params", "ee_w2", "shape", value=[True] * 4), r"params slot 'ee_w2': shape \[True"),
    "params-missing-slot": (_drop("params", "emb"), r"params: parameter table missing slots: \['emb'\]$"),
    "layout-unknown": (_set("concat_layout", value="other"), "unknown concatenation layout 'other'"),
    "dim-zero": (_set("dim", value=0), "envelope model dimensions .*'dim': 0.* are not positive integers"),
    "k-max-negative": (_set("k_max", value=-2), "envelope model dimensions .*'k_max': -2.* are not positive"),
    "vocab-beyond-memory": (_dims(10**13, 4), _too_large(10**13, 4)),
    "dim-beyond-memory": (_dims(1, 10**6), _too_large(1, 10**6)),
    "vocab-beyond-array-size": (_dims(2**62, 4), _too_large(2**62, 4)),
}


@pytest.mark.parametrize("fmt", [1, 2], ids=["v1", "v2"])
@pytest.mark.parametrize("fault", list(ENVELOPE_FAULTS))
def test_malformed_envelope_field_is_rejected_naming_it(tmp_path, fault, fmt):
    edit, message = ENVELOPE_FAULTS[fault]
    params, state = _moved_params(9, 4, 2, seed=13)
    kwargs = dict(seed=1, config={"lr": 0.01}, opt_state=state, train_state=_train_state(params.copy(), []))
    path = tmp_path / "ck.json"
    if fmt == 1:
        path.write_text(json.dumps(edit(json.loads(oracle_checkpoint_bytes(params, **kwargs)))))
    else:
        header, raw = _split_v2(checkpoint_bytes(params, **kwargs))
        path.write_bytes(_join_v2(edit(header), raw))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


# --- format 2's reader: the raw section read straight into the tables ---------

def _full_state(vocab=9, dim=4, k_max=2, seed=15):
    """Every table of a resumable checkpoint, each holding different bytes."""
    params, state = _moved_params(vocab, dim, k_max, seed)
    best = params.copy()
    best.emb[...] = -best.emb
    return dict(params=params, seed=1, config={"lr": 0.01}, opt_state=state,
                train_state=_train_state(best, [{"epoch": 0}]))


def _assert_loads_bit_for_bit(path, kwargs):
    ck = load_checkpoint(path)
    assert checkpoint_bytes(ck.params, seed=ck.seed, config=ck.config, opt_state=ck.opt_state,
                            train_state=ck.train_state) == checkpoint_bytes(**kwargs)


def _permuted_v2(blob, seed):
    """The same checkpoint with its slots' bytes in shuffled order, a few unused bytes between some
    of them, and the offsets rewritten to match."""
    header, raw = _split_v2(blob)
    tables = [header["params"], header["optimizer"]["m"], header["optimizer"]["v"],
              header["trainer"]["best_params"]]
    records = [record for table in tables for record in table.values()]
    chunks = [raw[r["offset"] : r["offset"] + 8 * math.prod(r["shape"])] for r in records]
    rng = np.random.default_rng(seed)
    parts = []
    for i in rng.permutation(len(records)):
        if rng.random() < 0.25:
            parts.append(b"\xff" * int(rng.integers(1, 9)))  # ends a run of back-to-back records
        records[i]["offset"] = sum(map(len, parts))
        parts.append(chunks[i])
    header["data_bytes"] = sum(map(len, parts))
    return _join_v2(header, b"".join(parts))


class _CountingFile:
    """A load's open file that notes each ``seek`` and ``readinto`` call in ``calls``."""

    def __init__(self, f, calls):
        self.f, self.calls = f, calls

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)

    def seek(self, *args):
        self.calls.append("seek")
        return self.f.seek(*args)

    def readinto(self, buf):
        self.calls.append("readinto")
        return self.f.readinto(buf)


def _counting_reads(monkeypatch):
    """The names of the ``seek`` and ``readinto`` calls that later loads make, in order."""
    calls = []
    monkeypatch.setattr(checkpoint, "open", lambda *args, **kwargs: _CountingFile(open(*args, **kwargs), calls),
                        raising=False)
    return calls


def _before_the_first_read(monkeypatch, action):
    """Run ``action`` once a load has checked the file's size, just before it reads the first slot."""
    read, pending = checkpoint._RawSection.read, [action]

    def act_then_read(self, where, record, out):
        while pending:
            pending.pop()()
        read(self, where, record, out)

    monkeypatch.setattr(checkpoint._RawSection, "read", act_then_read)


def test_v2_written_by_checkpoint_bytes_is_read_without_a_seek(tmp_path, monkeypatch):
    kwargs = _full_state()
    path = tmp_path / "ck.json"
    save_checkpoint(path, **kwargs)
    calls = _counting_reads(monkeypatch)
    _assert_loads_bit_for_bit(path, kwargs)
    assert calls == ["readinto"] * 4 * len(PARAM_SLOTS)  # one per slot of each of the four tables


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_v2_slots_out_of_slot_order_load_bit_for_bit(tmp_path, monkeypatch, seed):
    kwargs = _full_state()
    path = tmp_path / "ck.json"
    path.write_bytes(_permuted_v2(checkpoint_bytes(**kwargs), seed))
    calls = _counting_reads(monkeypatch)
    _assert_loads_bit_for_bit(path, kwargs)
    assert calls.count("readinto") == 4 * len(PARAM_SLOTS) and "seek" in calls


def _slot_at(path, table, slot):
    """The file offset of the first byte of one slot."""
    blob = path.read_bytes()
    header, _ = _split_v2(blob)
    records = header
    for key in table:
        records = records[key]
    return blob.index(b"\n", len(MAGIC)) + 1 + records[slot]["offset"]


def test_v2_header_longer_than_the_first_read_loads(tmp_path):
    kwargs = _full_state()
    kwargs["train_state"]["history"] = [{"epoch": i, "note": "x" * 100} for i in range(500)]
    path = tmp_path / "ck.json"
    save_checkpoint(path, **kwargs)
    assert path.read_bytes().index(b"\n", len(MAGIC)) > 3 * (1 << 14)
    _assert_loads_bit_for_bit(path, kwargs)


@pytest.mark.parametrize("table", [
    pytest.param(("params",), id="params"),
    pytest.param(("optimizer", "v"), id="optimizer-v"),
    pytest.param(("trainer", "best_params"), id="trainer-best_params"),
])
def test_v2_short_read_names_the_slot(tmp_path, monkeypatch, table):
    """A file that ends, while it is read, inside a slot (truncated after its size was checked).
    The tables are large enough that the slot lies far past the bytes read with the header."""
    path = tmp_path / "ck.json"
    save_checkpoint(path, **_full_state(vocab=2000, dim=16, k_max=4))
    end = _slot_at(path, table, "pi_w2") + 12
    _before_the_first_read(monkeypatch, lambda: os.truncate(path, end))
    with pytest.raises(CheckpointError, match=rf"{table[-1]} slot 'pi_w2': short read, the file ends at byte {end}"):
        load_checkpoint(path)


def test_v2_cut_short_inside_the_bytes_read_with_the_header_is_refused(tmp_path, monkeypatch):
    """A file cut short after the header was read, where the buffer that read the header already
    holds the bytes cut away: the size check after the load refuses it."""
    path = tmp_path / "ck.json"
    _save(path, 1)
    assert path.stat().st_size < path.stat().st_blksize  # the size of the buffer ``open`` gives the load
    _before_the_first_read(monkeypatch, lambda: os.truncate(path, path.stat().st_size - 8))
    with pytest.raises(CheckpointError, match="rewritten while it was read"):
        load_checkpoint(path)


def test_v2_load_holds_no_copy_of_the_file(tmp_path):
    """The traced peak of a load stays near the four tables it returns: no buffer of the whole file."""
    kwargs = _full_state(vocab=2000, dim=16, k_max=4)
    path = tmp_path / "ck.json"
    save_checkpoint(path, **kwargs)
    data_bytes = _split_v2(path.read_bytes())[0]["data_bytes"]
    tracemalloc.start()
    try:
        ck = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ck.opt_state is not None and peak < 1.25 * data_bytes, (peak, data_bytes)


# --- best_params stored as the params records when the two hold the same bytes -

def _aliased_state(vocab=9, dim=4, k_max=2, seed=16):
    """A resumable state saved in an epoch that improved the metric: best_params is a copy of params."""
    params, state = _moved_params(vocab, dim, k_max, seed)
    return dict(params=params, seed=1, config={"lr": 0.01}, opt_state=state,
                train_state=_train_state(params.copy(), [{"epoch": 0}]))


def test_best_params_equal_to_params_are_stored_as_the_params_records():
    kwargs = _aliased_state()
    params, state = kwargs["params"], kwargs["opt_state"]
    header, raw = _split_v2(checkpoint_bytes(**kwargs))
    assert header["trainer"]["best_params"] == header["params"]
    assert header["data_bytes"] == 3 * params.flat.nbytes == len(raw)
    assert raw == b"".join(arr.tobytes() for table in (params, state.m, state.v) for _, arr in table.slots())


@pytest.mark.parametrize(
    "bits",
    [(0.0, -0.0), (np.float64(np.nan), np.uint64(0x7FF8000000000001).view(np.float64))],
    ids=["signed-zero", "nan-payload"],
)
def test_best_params_that_differ_only_in_the_bits_of_one_entry_are_written(tmp_path, bits):
    """Equal as numbers (or both NaN) is not equal as bytes: such a best table is written in full."""
    kwargs = _aliased_state()
    params, best = kwargs["params"], kwargs["train_state"]["best_params"]
    params.pi_b2[1], best.pi_b2[1] = bits
    assert params.pi_b2.tobytes() != best.pi_b2.tobytes()
    path = tmp_path / "ck.json"
    save_checkpoint(path, **kwargs)
    header, raw = _split_v2(path.read_bytes())
    records = header["trainer"]["best_params"]
    assert records["emb"]["offset"] == header["data_bytes"] - params.flat.nbytes == 3 * params.flat.nbytes
    at = records["pi_b2"]["offset"]
    assert raw[at : at + best.pi_b2.nbytes] == best.pi_b2.tobytes()
    loaded = load_checkpoint(path).train_state["best_params"]
    assert loaded.pi_b2.tobytes() == best.pi_b2.tobytes()


def test_an_aliased_file_loads_two_unshared_tables_in_one_read(tmp_path, monkeypatch):
    """One read of the file, front to back, with one ``readinto`` per distinct record: the best
    table is copied from the parameters read before it."""
    kwargs = _aliased_state()
    path = tmp_path / "ck.json"
    save_checkpoint(path, **kwargs)
    assert _split_v2(path.read_bytes())[0]["data_bytes"] == 3 * kwargs["params"].flat.nbytes
    calls = _counting_reads(monkeypatch)
    ck = load_checkpoint(path)
    assert calls == ["readinto"] * 3 * len(PARAM_SLOTS)
    best = ck.train_state["best_params"]
    assert not np.shares_memory(ck.params.flat, best.flat)
    assert best.flat.tobytes() == ck.params.flat.tobytes() == kwargs["params"].flat.tobytes()
    best.emb[0, 0] += 1.0  # fit keeps training params while best_params holds the best epoch
    assert ck.params.emb[0, 0] == kwargs["params"].emb[0, 0]
    assert checkpoint_bytes(**kwargs) == path.read_bytes()


def test_save_holds_no_copy_of_the_file(tmp_path):
    """The traced peak of a save stays far below the bytes it writes: no join of the whole file."""
    kwargs = _full_state(vocab=2000, dim=16, k_max=4)
    path = tmp_path / "ck.json"
    tracemalloc.start()
    try:
        save_checkpoint(path, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data_bytes = _split_v2(path.read_bytes())[0]["data_bytes"]
    assert peak < 0.25 * data_bytes, (peak, data_bytes)


# --- repeated saves of one path: the replaced file is kept and rewritten in place --

def _save(path, seed, vocab=9):
    """Save a small checkpoint whose bytes depend on ``seed`` at ``path``; those bytes."""
    params = init_params(vocab, 4, 2, seed=seed)
    save_checkpoint(path, params, seed=seed)
    return checkpoint_bytes(params, seed=seed)


def _spare(path):
    return path.with_name(f".{path.name}.spare")


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_a_third_save_rewrites_the_first_saves_file(tmp_path):
    path = tmp_path / "ck.json"
    _save(path, 1)
    first = path.stat().st_ino
    assert _names(tmp_path) == ["ck.json"]
    second = _save(path, 2)
    assert _spare(path).stat().st_ino == first and _spare(path).read_bytes() == _save(tmp_path / "a.json", 1)
    kept = path.stat().st_ino
    third = _save(path, 3)
    assert path.stat().st_ino == first and path.read_bytes() == third
    assert _spare(path).stat().st_ino == kept and _spare(path).read_bytes() == second
    assert _names(tmp_path) == [".ck.json.spare", "a.json", "ck.json"]


def test_a_smaller_save_into_a_larger_spare_is_truncated(tmp_path):
    path = tmp_path / "ck.json"
    _save(path, 1, vocab=500)
    _save(path, 2, vocab=500)
    large = _spare(path).stat()
    small = _save(path, 3)
    assert path.stat().st_ino == large.st_ino and len(small) < large.st_size
    assert path.read_bytes() == small
    assert load_checkpoint(path).seed == 3


def test_a_rewritten_spare_is_on_disk_before_the_rename_names_it(tmp_path, monkeypatch):
    """A crash after the rename commits must not find the checkpoint holding part of two saves.
    A new file's blocks are allocated by the save, which ext4 orders before the rename; blocks
    rewritten in place are not, so a claimed spare is synced first.  A new file is not."""
    path = tmp_path / "ck.json"
    events = []
    sync, replace = checkpoint._sync_data, os.replace

    def watched_sync(fd):
        events.append(("sync", os.fstat(fd).st_ino))
        sync(fd)

    def watched_replace(src, dst):
        events.append(("replace", Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(checkpoint, "_sync_data", watched_sync)
    monkeypatch.setattr(os, "replace", watched_replace)
    _save(path, 1)
    first = path.stat().st_ino
    _save(path, 2)
    assert events == [("replace", "ck.json"), ("replace", "ck.json"), ("replace", ".ck.json.spare")]
    events.clear()
    _save(path, 3)
    assert events == [("replace", f".ck.json.{os.getpid()}.tmp"), ("sync", first),
                      ("replace", "ck.json"), ("replace", ".ck.json.spare")]


@pytest.mark.parametrize("saves", [1, 2])
def test_a_reader_across_saves_gets_its_file_or_an_error(tmp_path, monkeypatch, saves):
    """A load that still reads the file while other saves run: across one save it reads the file it
    opened, unchanged; across two, the second rewrites that file (then the spare), and the load
    fails instead of returning a mix of two saves' bytes."""
    path = tmp_path / "ck.json"
    _save(path, 1)
    os.utime(path, ns=(0, 0))  # a rewrite then shows in the mtime, however coarse the clock
    _before_the_first_read(monkeypatch, lambda: [_save(path, seed) for seed in range(2, 2 + saves)])
    if saves == 1:
        assert load_checkpoint(path).seed == 1
    else:
        with pytest.raises(CheckpointError, match="rewritten while it was read"):
            load_checkpoint(path)


@pytest.mark.parametrize("fault", ["write", "rename"])
def test_a_save_interrupted_while_a_spare_exists_keeps_the_checkpoint(tmp_path, monkeypatch, fault):
    """The disk fills while the claimed spare is rewritten, or the rename over the checkpoint fails
    after it was linked to be kept: the checkpoint is untouched and no temporary name is left."""
    path = tmp_path / "ck.json"
    _save(path, 1)
    before = _save(path, 2)
    modes = []

    class FailPartWay:
        """The file save writes to: the second write finds the disk full."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            self.writes += 1
            if self.writes < 2:
                return self.fh.write(data)
            raise OSError("no space left on device")

    def watched_open(name, mode, **kwargs):
        modes.append(mode)
        fh = open(name, mode, **kwargs)
        return FailPartWay(fh) if fault == "write" else fh

    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == path:
            raise OSError("rename failed")
        replace(src, dst)

    monkeypatch.setattr(checkpoint, "open", watched_open, raising=False)
    if fault == "rename":
        monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space" if fault == "write" else "rename failed"):
        _save(path, 3)
    monkeypatch.undo()
    assert modes == ["r+b"]  # the spare was claimed
    assert path.read_bytes() == before
    assert _names(tmp_path) == ["ck.json"]  # the claimed spare went with the failed save


def test_a_hard_linked_checkpoint_keeps_its_bytes(tmp_path):
    """``ln ck.json epoch1.json`` before a spare exists, and again after: a file with another name is
    never kept as the spare, so no later save writes into it."""
    path = tmp_path / "ck.json"
    first = _save(path, 1)
    os.link(path, tmp_path / "epoch1.json")
    _save(path, 2)
    assert not _spare(path).exists()
    third = _save(path, 3)
    assert _spare(path).exists()
    os.link(path, tmp_path / "epoch3.json")
    for seed in (4, 5, 6):
        last = _save(path, seed)
    assert (tmp_path / "epoch1.json").read_bytes() == first
    assert (tmp_path / "epoch3.json").read_bytes() == third
    assert path.read_bytes() == last


def test_a_symlinked_checkpoint_path_keeps_its_targets_bytes(tmp_path):
    real = tmp_path / "real.json"
    first = _save(real, 1)
    path = tmp_path / "ck.json"
    path.symlink_to(real)
    _save(path, 2)
    assert not _spare(path).exists()
    for seed in (3, 4):
        last = _save(path, seed)
    assert real.read_bytes() == first
    assert not path.is_symlink() and path.read_bytes() == last


@pytest.mark.parametrize("fault", ["symlink", "symlink-swapped-in", "hard-linked", "read-only", "other-owner"])
def test_a_spare_that_may_not_be_rewritten_keeps_its_bytes(tmp_path, monkeypatch, fault):
    """A spare planted as a symlink (also one swapped in after the save looked at the name),
    linked under another name, made read-only, or owned by another user (here: the saver's uid is
    not the file's) is never written: the save writes a new file."""
    path = tmp_path / "ck.json"
    first = _save(path, 1)
    _save(path, 2)
    spare = _spare(path)
    if fault.startswith("symlink"):
        spare.unlink()
        (tmp_path / "victim.json").write_bytes(first)
        spare.symlink_to(tmp_path / "victim.json")
        if fault == "symlink-swapped-in":  # the look at the name still saw a regular file
            monkeypatch.setattr(os, "lstat", os.stat)
    elif fault == "hard-linked":
        os.link(spare, tmp_path / "mine.json")
    elif fault == "read-only":
        spare.chmod(0o444)
    else:
        monkeypatch.setattr(os, "geteuid", lambda uid=spare.stat().st_uid: uid + 1)
    with open(spare, "rb") as held:  # the file the spare names, or its symlink's target
        last = _save(path, 3)
        assert os.pread(held.fileno(), len(first) + 1, 0) == first
        assert os.fstat(held.fileno()).st_ino != path.stat().st_ino
    assert path.read_bytes() == last
    assert not [name for name in _names(tmp_path) if name.endswith((".tmp", ".keep"))]


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_a_spare_that_is_not_a_regular_file_is_left_alone(tmp_path, kind):
    """Saves write new files beside it; a FIFO is then replaced by the kept file, while a directory
    stays, so no spare is kept and every save writes a new file."""
    path = tmp_path / "ck.json"
    _save(path, 1)
    _save(path, 2)
    _spare(path).unlink()
    os.mkfifo(_spare(path)) if kind == "fifo" else _spare(path).mkdir()
    for seed in (3, 4, 5):
        last = _save(path, seed)
        assert path.read_bytes() == last
    assert _names(tmp_path) == [".ck.json.spare", "ck.json"]
    assert _spare(path).is_dir() == (kind == "directory")


@pytest.mark.parametrize("fault", ["link", "rename"])
def test_saves_that_cannot_make_a_spare_write_new_files(tmp_path, monkeypatch, fault):
    """A filesystem without hard links, or a spare name the saver may not replace (another user's
    entry in a sticky directory): each save still completes, and leaves no kept link behind."""
    path = tmp_path / "ck.json"
    replace = os.replace

    def no_links(*args, **kwargs):
        raise OSError(errno.EPERM, "hard links are not supported")

    def no_spare(src, dst):
        if Path(dst) == _spare(path):
            raise OSError(errno.EPERM, "operation not permitted")
        replace(src, dst)

    monkeypatch.setattr(os, *(("link", no_links) if fault == "link" else ("replace", no_spare)))
    for seed in (1, 2, 3):
        last = _save(path, seed)
        assert path.read_bytes() == last
    assert _names(tmp_path) == ["ck.json"]


def test_two_processes_saving_one_path_leave_one_writers_checkpoint(tmp_path):
    """Each process saves its own state 20 times, starting together: the path and the spare each
    hold one writer's bytes, and no temporary name is left."""
    script = """
import os, sys, time
from pietsp.checkpoint import save_checkpoint
from pietsp.model import init_params

path, seed, ready, other = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
params = init_params(4000, 16, 4, seed=seed)
open(ready, "w").close()
deadline = time.monotonic() + 30
while not os.path.exists(other) and time.monotonic() < deadline:
    time.sleep(0.001)
for _ in range(20):
    save_checkpoint(path, params, seed=seed)
"""
    path = tmp_path / "ck.json"
    src = str(Path(checkpoint.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    ready = [str(tmp_path / f"ready-{seed}") for seed in (1, 2)]
    procs = [subprocess.Popen([sys.executable, "-c", script, str(path), str(seed), ready[seed - 1], ready[2 - seed]],
                              env=env) for seed in (1, 2)]
    try:
        codes = [proc.wait(timeout=60) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert codes == [0, 0]
    written = {checkpoint_bytes(init_params(4000, 16, 4, seed=seed), seed=seed) for seed in (1, 2)}
    assert path.read_bytes() in written and load_checkpoint(path).seed in (1, 2)
    assert _spare(path).read_bytes() in written
    assert _names(tmp_path) == [".ck.json.spare", "ck.json", "ready-1", "ready-2"]
