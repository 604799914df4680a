"""Versioned checkpoints with bit-exact array round-trips.

Format 2, the one written, is a small self-describing header followed by
raw array bytes, the layout of NumPy's ``.npy`` and of safetensors:

* the magic line ``pietsp-checkpoint 2\\n``;
* the header: one line of canonical JSON (sorted keys, no whitespace) and
  ``\\n``.  ``json.dumps`` escapes every control and non-ASCII character,
  so no user string in ``config`` or the trainer state can end the line;
* the raw little-endian float64 bytes of every array, back to back.

The header records the model dimensions, the concatenation layout and the
run seed; optimizer and trainer state ride along for resumable training.
Each array appears in it as ``{"offset": o, "shape": [...]}``, ``o``
counted from the start of the raw section, whose length is the header's
``data_bytes``.  Saving is one ``json.dumps`` over the header and one join
of the magic line, the header and the arrays' own buffers, so save -> load
-> save is byte-identical.

Format 1, the one written before, is read only: one canonical JSON
document with each array as ``{"data": base64, "shape": [...]}``.  A file
that does not start with the magic line is read as format 1, so existing
``checkpoint-*.json`` files load and ``train --resume`` continues existing
run directories.  Those names are kept for the same reason, although a
format-2 file is not JSON: run directories, scripts and the CLI examples
all name ``checkpoint-best.json`` and ``checkpoint-latest.json``.
``pietsp inspect --ckpt PATH`` prints either format's header.

Loading is where parameter shapes enter from outside the program, so both
formats share one check of the envelope (kind, version, layout, dimensions,
optimizer and trainer fields) and of every slot of the parameters, both
Adam moments and the best parameters against the shapes the dimensions
give.  A file is read once; each slot of a table that passes is copied
once, straight from the file's bytes into its view of a fresh
``ModelParams`` buffer.  Saving writes a temporary file in one
``write_bytes`` call and renames it over the target, so an interrupted save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import binascii
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PietspError
from .model import CONCAT_LAYOUT, PARAM_SLOTS, ModelParams, param_shapes
from .optim import AdamState

FORMAT_VERSION = 2
MAGIC = b"pietsp-checkpoint 2\n"


class CheckpointError(PietspError):
    """Checkpoint file missing, corrupt, or inconsistent with its own metadata."""


@dataclass
class Checkpoint:
    params: ModelParams
    seed: int | None
    config: dict | None
    opt_state: AdamState | None
    train_state: dict | None   # epoch, best_metric, best_epoch, bad_epochs, history, best_params


def checkpoint_bytes(
    params: ModelParams,
    seed: int | None = None,
    config: dict | None = None,
    opt_state: AdamState | None = None,
    train_state: dict | None = None,
) -> bytes:
    arrays = []
    offset = 0

    def table(container: ModelParams) -> dict:
        nonlocal offset
        records = {}
        for name, arr in container.slots():
            if arr.dtype != np.float64:
                raise CheckpointError(f"checkpoints store float64 arrays, got {arr.dtype}")
            records[name] = {"offset": offset, "shape": list(arr.shape)}
            arrays.append(np.ascontiguousarray(arr, dtype="<f8"))
            offset += arr.nbytes
        return records

    header = {
        "format_version": FORMAT_VERSION,
        "kind": "pietsp-checkpoint",
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "k_max": params.k_max,
        "concat_layout": CONCAT_LAYOUT,
        "seed": seed,
        "config": config,
        "params": table(params),
        "optimizer": None
        if opt_state is None
        else {"step": opt_state.step, "m": table(opt_state.m), "v": table(opt_state.v)},
        "trainer": None
        if train_state is None
        else {
            **{k: v for k, v in train_state.items() if k != "best_params"},
            "best_params": None
            if train_state.get("best_params") is None
            else table(train_state["best_params"]),
        },
    }
    header["data_bytes"] = offset
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return b"".join([MAGIC, text.encode("ascii"), b"\n", *map(memoryview, arrays)])


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``.

    A write interrupted part-way leaves the previous file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: ModelParams, **kwargs) -> None:
    write_atomic(path, checkpoint_bytes(params, **kwargs))


def load_checkpoint(path) -> Checkpoint:
    return _load(path)[1]


def inspect_checkpoint(path) -> dict:
    """The header of a checkpoint of either format, each array shown as its shape and L2 norm.

    The whole file is loaded and checked first, so a file this accepts also loads.
    """
    header, ck = _load(path)
    tables = {("params",): ck.params}
    if ck.opt_state is not None:
        tables[("optimizer", "m")] = ck.opt_state.m
        tables[("optimizer", "v")] = ck.opt_state.v
    if ck.train_state is not None and ck.train_state.get("best_params") is not None:
        tables[("trainer", "best_params")] = ck.train_state["best_params"]
    for (*parents, key), container in tables.items():
        node = header
        for parent in parents:
            node = node[parent]
        node[key] = {
            name: {"shape": list(arr.shape), "l2_norm": float(np.linalg.norm(arr))}
            for name, arr in container.slots()
        }
    return header


# --- reading -----------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load(path) -> tuple[dict, Checkpoint]:
    """The file's header (format 1: the whole envelope) and the checkpoint it holds."""
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}")
    if blob.startswith(MAGIC):
        header, decode = _open_v2(path, blob)
        version = FORMAT_VERSION
    else:
        try:
            header = json.loads(blob)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise CheckpointError(f"{path}: not valid JSON ({exc})") from exc
        decode, version = _decode_base64, 1
    return header, _checkpoint(path, header, version, decode)


def _open_v2(path, blob: bytes):
    """Format 2's header and a decoder that returns each array's bytes in the raw section."""
    end = blob.find(b"\n", len(MAGIC))
    if end < 0:
        raise CheckpointError(f"{path}: the header has no terminating newline")
    try:
        header = json.loads(blob[len(MAGIC) : end])
    except ValueError as exc:
        raise CheckpointError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: not a checkpoint file")
    data = memoryview(blob)[end + 1 :]
    size = header.get("data_bytes")
    if not _is_int(size) or size < 0:
        raise CheckpointError(f"{path}: header data_bytes {size!r} is not a non-negative integer")
    if len(data) != size:
        raise CheckpointError(f"{path}: the raw section holds {len(data)} bytes, but data_bytes is {size}")

    def decode(where: str, record: dict, shape: tuple[int, ...]) -> memoryview:
        if "offset" not in record:
            raise CheckpointError(f"{where}: malformed array record")
        offset = record["offset"]
        if not _is_int(offset) or offset < 0:
            raise CheckpointError(f"{where}: offset {offset!r} is not a non-negative integer")
        count = math.prod(shape)
        if offset + 8 * count > size:
            raise CheckpointError(
                f"{where}: bytes {offset} to {offset + 8 * count} fall outside the {size}-byte raw section"
            )
        return data[offset : offset + 8 * count]

    return header, decode


def _decode_base64(where: str, record: dict, shape: tuple[int, ...]) -> bytes:
    """Format 1: one array's bytes, from its base64 string."""
    if "data" not in record:
        raise CheckpointError(f"{where}: malformed array record")
    if not isinstance(record["data"], str):
        raise CheckpointError(f"{where}: corrupt base64 payload (not a string)")
    try:
        raw = binascii.a2b_base64(record["data"], strict_mode=True)
    except ValueError as exc:  # not ASCII, bad alphabet or padding
        raise CheckpointError(f"{where}: corrupt base64 payload") from exc
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise CheckpointError(f"{where}: payload holds {len(raw)} bytes but shape {shape} needs {expected}")
    return raw


def _decode_params(obj, table: str, dims: dict[str, int], decode) -> ModelParams:
    """Decode one parameter table, each slot checked against the shape ``dims`` give it."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{table}: parameter table missing")
    missing = [s for s in PARAM_SLOTS if s not in obj]
    if missing:
        raise CheckpointError(f"{table}: parameter table missing slots: {missing}")
    shapes = param_shapes(**dims)
    raw = {}
    for slot in PARAM_SLOTS:
        where = f"{table} slot '{slot}'"
        record = obj[slot]
        if not isinstance(record, dict) or "shape" not in record:
            raise CheckpointError(f"{where}: malformed array record")
        shape = record["shape"]
        if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
            raise CheckpointError(f"{where}: shape {shape!r} is not a list of non-negative integers")
        if tuple(shape) != shapes[slot]:
            raise CheckpointError(
                f"{where}: shape {tuple(shape)}, but the envelope's"
                f" {', '.join(f'{k}={v}' for k, v in dims.items())} need {shapes[slot]}"
            )
        raw[slot] = decode(where, record, shapes[slot])
    params = ModelParams(**dims, dtype="<f8", empty=True)  # the file's byte order: its bytes copy as they are
    for slot, out in params.slots():
        out.data.cast("B")[:] = raw[slot]
    return params


def _checkpoint(path, header, version: int, decode) -> Checkpoint:
    """The envelope checks both formats share, then every table decoded."""
    if not isinstance(header, dict) or header.get("kind") != "pietsp-checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint file")
    if header.get("format_version") != version:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')} unsupported (expected {version})"
        )
    if header.get("concat_layout") != CONCAT_LAYOUT:
        raise CheckpointError(f"{path}: unknown concatenation layout {header.get('concat_layout')!r}")
    dims = {field: header.get(field) for field in ("vocab_size", "dim", "k_max")}
    if not all(_is_int(v) and v >= 1 for v in dims.values()):
        raise CheckpointError(f"{path}: envelope model dimensions {dims} are not positive integers")
    config = header.get("config")
    if config is not None and not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is {type(config).__name__}, not an object")
    params = _decode_params(header.get("params"), "params", dims, decode)

    opt_state = None
    opt = header.get("optimizer")
    if opt is not None:
        if not isinstance(opt, dict):
            raise CheckpointError(f"{path}: optimizer is {type(opt).__name__}, not an object")
        step = opt.get("step")
        if not _is_int(step) or step < 0:
            raise CheckpointError(f"{path}: optimizer step {step!r} is not a non-negative integer")
        opt_state = AdamState(
            step=step,
            m=_decode_params(opt.get("m"), "optimizer m", dims, decode),
            v=_decode_params(opt.get("v"), "optimizer v", dims, decode),
        )

    train_state = None
    trainer = header.get("trainer")
    if trainer is not None:
        if not isinstance(trainer, dict):
            raise CheckpointError(f"{path}: trainer is {type(trainer).__name__}, not an object")
        for field in ("epoch", "best_epoch", "bad_epochs"):
            if not _is_int(trainer.get(field)):
                raise CheckpointError(f"{path}: trainer {field} {trainer.get(field)!r} is not an integer")
        best = trainer.get("best_metric")
        if best is not None and (not isinstance(best, (int, float)) or isinstance(best, bool)):
            raise CheckpointError(f"{path}: trainer best_metric {best!r} is not a number or null")
        if not isinstance(trainer.get("history"), list):
            raise CheckpointError(f"{path}: trainer history is {type(trainer.get('history')).__name__}, not a list")
        train_state = dict(trainer)
        if train_state.get("best_params") is not None:
            train_state["best_params"] = _decode_params(train_state["best_params"], "best_params", dims, decode)
    return Checkpoint(
        params=params,
        seed=header.get("seed"),
        config=config,
        opt_state=opt_state,
        train_state=train_state,
    )
