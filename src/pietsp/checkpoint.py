"""Versioned JSON checkpoints with bit-exact array round-trips.

Arrays are serialized as base64 of their raw little-endian float64 bytes
with explicit shapes, inside a canonical JSON envelope (sorted keys, no
whitespace), so save -> load -> save is byte-identical.  The envelope
records the model dimensions, the concatenation layout, and the run seed;
optimizer and trainer state ride along for resumable training.

The bytes are those of ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` with every base64 string in place, but
``json.dumps`` never sees the base64: it runs over the envelope with a
short marker in each array's ``"data"`` field, and each array's
``binascii.b2a_base64`` bytes are spliced in where its marker stands.
Base64 holds nothing JSON escapes, so the splice changes no byte; it saves
the escape scan over the payloads and two full-size text copies.  The
marker is ``@``; when user text in ``config`` or the trainer state holds
an ``@`` too, the envelope is dumped once more with a run of ``@`` longer
than any in that text, which then occurs only where the arrays stand.

Loading is where parameter shapes enter from outside the program, so every
slot of the parameters, both Adam moments and the best parameters is
checked there against the shapes the envelope's dimensions give, and each
payload is decoded straight from its JSON string.  Saving writes a
temporary file in one ``write_bytes`` call, so the spliced pieces are
joined once (~5 ms at 17.7 MB), and renames it over the target, so an
interrupted save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import binascii
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PietspError
from .model import CONCAT_LAYOUT, PARAM_SLOTS, ModelParams, param_shapes
from .optim import AdamState

FORMAT_VERSION = 1


class CheckpointError(PietspError):
    """Checkpoint file missing, corrupt, or inconsistent with its own metadata."""


class _Payload:
    """One array awaiting its base64 bytes; ``json.dumps`` writes a marker in its place."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr


def _encode_array(arr: np.ndarray) -> dict:
    if arr.dtype != np.float64:
        raise CheckpointError(f"checkpoints store float64 arrays, got {arr.dtype}")
    return {"shape": list(arr.shape), "data": _Payload(arr)}


def _decode_array(slot: str, obj) -> np.ndarray:
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise CheckpointError(f"slot '{slot}': malformed array record")
    shape = tuple(int(s) for s in obj["shape"])
    if not isinstance(obj["data"], str):
        raise CheckpointError(f"slot '{slot}': corrupt base64 payload (not a string)")
    try:
        raw = binascii.a2b_base64(obj["data"], strict_mode=True)
    except ValueError as exc:  # not ASCII, bad alphabet or padding
        raise CheckpointError(f"slot '{slot}': corrupt base64 payload") from exc
    expected = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
    if len(raw) != expected:
        raise CheckpointError(
            f"slot '{slot}': payload holds {len(raw)} bytes but shape {shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def _encode_params(params: ModelParams) -> dict:
    return {name: _encode_array(arr) for name, arr in params.slots()}


def _decode_params(obj, table: str, dims: dict[str, int]) -> ModelParams:
    """Decode one parameter table, each slot checked against the shape ``dims`` give it."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{table}: parameter table missing")
    missing = [s for s in PARAM_SLOTS if s not in obj]
    if missing:
        raise CheckpointError(f"{table}: parameter table missing slots: {missing}")
    shapes = param_shapes(**dims)
    arrays = {}
    for slot in PARAM_SLOTS:
        arr = _decode_array(slot, obj[slot])
        if arr.shape != shapes[slot]:
            raise CheckpointError(
                f"{table} slot '{slot}': shape {arr.shape}, but the envelope's"
                f" {', '.join(f'{k}={v}' for k, v in dims.items())} need {shapes[slot]}"
            )
        arrays[slot] = arr
    return ModelParams(**arrays)


@dataclass
class Checkpoint:
    params: ModelParams
    seed: int | None
    config: dict | None
    opt_state: AdamState | None
    train_state: dict | None   # epoch, best_metric, best_epoch, bad_epochs, best_params


def checkpoint_bytes(
    params: ModelParams,
    seed: int | None = None,
    config: dict | None = None,
    opt_state: AdamState | None = None,
    train_state: dict | None = None,
) -> bytes:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "pietsp-checkpoint",
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "k_max": params.k_max,
        "concat_layout": CONCAT_LAYOUT,
        "seed": seed,
        "config": config,
        "params": _encode_params(params),
        "optimizer": None
        if opt_state is None
        else {
            "step": opt_state.step,
            "m": _encode_params(opt_state.m),
            "v": _encode_params(opt_state.v),
        },
        "trainer": None
        if train_state is None
        else {
            **{k: v for k, v in train_state.items() if k != "best_params"},
            "best_params": None
            if train_state.get("best_params") is None
            else _encode_params(train_state["best_params"]),
        },
    }
    return b"".join(_splice(payload))


def _splice(payload: dict) -> list[bytes]:
    """The canonical dump of ``payload`` in pieces: envelope text, base64, envelope text, ...

    ``json.dumps`` calls ``placeholder`` for the ``_Payload`` records in the
    order it writes them, and each writes the marker once, as a whole JSON
    string.  Any further occurrence comes from user text; a run of ``@``
    longer than every run in the first dump occurs in no user text.
    """
    arrays = []

    def placeholder(obj):
        if not isinstance(obj, _Payload):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj.arr)
        return marker

    def dump():
        arrays.clear()
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=placeholder)

    marker = "@"
    text = dump()
    if text.count(marker) != len(arrays):
        marker = "@" * (max(map(len, re.findall("@+", text))) + 1)
        text = dump()
    parts = text.encode("ascii").split(marker.encode("ascii"))
    pieces = [parts[0]]
    for arr, part in zip(arrays, parts[1:]):
        pieces += (binascii.b2a_base64(np.ascontiguousarray(arr, dtype="<f8"), newline=False), part)
    return pieces


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
    try:
        payload = json.loads(Path(path).read_bytes())
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}")
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from exc
    if payload.get("kind") != "pietsp-checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {payload.get('format_version')} unsupported (expected {FORMAT_VERSION})"
        )
    if payload.get("concat_layout") != CONCAT_LAYOUT:
        raise CheckpointError(f"{path}: unknown concatenation layout {payload.get('concat_layout')!r}")
    dims = {field: payload.get(field) for field in ("vocab_size", "dim", "k_max")}
    if not all(isinstance(v, int) and v >= 1 for v in dims.values()):
        raise CheckpointError(f"{path}: envelope model dimensions {dims} are not positive integers")
    params = _decode_params(payload.get("params"), "params", dims)
    opt_state = None
    if payload.get("optimizer") is not None:
        opt = payload["optimizer"]
        opt_state = AdamState(
            step=int(opt["step"]),
            m=_decode_params(opt.get("m"), "optimizer m", dims),
            v=_decode_params(opt.get("v"), "optimizer v", dims),
        )
    train_state = None
    if payload.get("trainer") is not None:
        train_state = dict(payload["trainer"])
        if train_state.get("best_params") is not None:
            train_state["best_params"] = _decode_params(train_state["best_params"], "best_params", dims)
    return Checkpoint(
        params=params,
        seed=payload.get("seed"),
        config=payload.get("config"),
        opt_state=opt_state,
        train_state=train_state,
    )
