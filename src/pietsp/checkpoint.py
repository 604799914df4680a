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
``data_bytes``.  When the trainer's ``best_params`` hold the same bytes as
``params`` (compared as bytes, so a ``-0.0`` for a ``0.0`` or another NaN
payload counts as a difference), its records are the ``params`` records
themselves and its bytes are not written again; a resumable checkpoint
written in an epoch that improved the validation metric is then three
tables long instead of four.  Saving is one ``json.dumps`` over the header,
then one buffered ``write`` of the magic line and header and one of each
array's own buffer, so no copy of the file is held; ``checkpoint_bytes``
is the join of the same parts.  Save -> load -> save is byte-identical.

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
give.  A format-2 load reads the magic line and the header as the first
two lines of one buffered file and checks the file's size against
``data_bytes``.  It then reads the raw section through the same file, one
table at a time and one step per slot: the slot's record is checked and
its bytes read with one ``readinto`` straight into the slot view of a
fresh ``ModelParams`` buffer (a format-1 slot's step decodes its base64
string into the slot view the same way).  The file is read front to back and seeks only
where a record does not start where the last read ended, so a file this
module wrote is read without a seek.  A record whose offset and shape
repeat an earlier one's is copied from the array read for that one, so an
aliased ``best_params`` loads as its own buffer and costs no read.  No
copy of the file is held.  A read that finds the file ended inside a slot,
and a path that cannot be read (a directory, a FIFO or another file that
is not a regular file, no permission), are
``CheckpointError``s naming the slot, and the byte where the file ended,
or the path.  So are envelope dimensions too large for any table to be
allocated; a table that can be allocated costs only the pages read into
it.  Saving writes a temporary file and renames it over the target, so an
interrupted save leaves the previous checkpoint intact.  The file the
rename replaces is kept beside the target as the hidden ``.NAME.spare``,
which between saves holds the previous checkpoint (so a path saved again
and again uses twice its size on disk), and the next save rewrites that
file in place instead of freeing one file and allocating another, and
syncs it to disk before the rename, so that an OS crash or a power loss
cannot leave the path naming a file that holds part of two saves.  A file
that has another name (a hard link or a symlink's target), is not a
regular file, is read-only or belongs to another user is never written in
place; the save writes a new file instead.  A load still reading the file
when a save rewrites it (it opened the file two saves earlier) sees its
size or modification time change and raises ``CheckpointError`` rather
than return two saves' mix.  This comparison of the file's status before
and after the load is also what refuses a file cut short after its header
was read: the buffer that read the header may already hold the bytes the
cut removed.
"""

from __future__ import annotations

import binascii
import contextlib
import json
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PietspError
from .model import CONCAT_LAYOUT, PARAM_SLOTS, ModelParams
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
    return b"".join(_parts(params, seed, config, opt_state, train_state))


def _parts(params, seed=None, config=None, opt_state=None, train_state=None) -> list:
    """The file's bytes in order: the magic line, the header line and each slot's own buffer."""
    parts = []
    offset = 0

    def table(container: ModelParams) -> dict:
        nonlocal offset
        records = {}
        for name, arr in container.slots():
            if arr.dtype != np.float64:
                raise CheckpointError(f"checkpoints store float64 arrays, got {arr.dtype}")
            records[name] = {"offset": offset, "shape": list(arr.shape)}
            parts.append(memoryview(np.ascontiguousarray(arr, dtype="<f8")))
            offset += arr.nbytes
        return records

    records = table(params)
    best = None if train_state is None else train_state.get("best_params")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "pietsp-checkpoint",
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "k_max": params.k_max,
        "concat_layout": CONCAT_LAYOUT,
        "seed": seed,
        "config": config,
        "params": records,
        "optimizer": None
        if opt_state is None
        else {"step": opt_state.step, "m": table(opt_state.m), "v": table(opt_state.v)},
        "trainer": None
        if train_state is None
        else {
            **{k: v for k, v in train_state.items() if k != "best_params"},
            "best_params": None if best is None else records if _same_bytes(best, params) else table(best),
        },
    }
    header["data_bytes"] = offset
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return [MAGIC + text.encode("ascii") + b"\n", *parts]


def _same_bytes(a: ModelParams, b: ModelParams) -> bool:
    """Whether two float64 parameter sets of the same dimensions hold the same bytes (so ``-0.0``
    differs from ``0.0``, and NaNs with different payloads differ)."""
    return (
        a.flat.dtype == b.flat.dtype == np.float64
        and (a.vocab_size, a.dim, a.k_max) == (b.vocab_size, b.dim, b.k_max)
        and np.array_equal(a.flat.view(np.uint64), b.flat.view(np.uint64))
    )


WRITE_BUFFER = 1 << 16  # gathers the small slots into fewer write calls; a larger slot is written from its own buffer


def write_atomic(path, *parts) -> None:
    """Write ``parts`` (bytes-like) one after another to a temporary file beside ``path``,
    then rename it over ``path``.

    A write interrupted part-way leaves the previous file intact.  Just before the rename,
    the file at ``path`` is hard-linked as ``.NAME.<pid>.keep``, and after it that link
    becomes the hidden ``.NAME.spare``, which holds the previous complete file until the
    next save; so a path saved again and again uses twice its size on disk.  The next
    save claims the spare by renaming it to its own temporary name (a rename is atomic,
    so two savers never claim one spare), rewrites it in place and truncates it, so
    repeated saves take turns between two files instead of allocating a new one and
    freeing the replaced one every time.  A rewritten spare is synced to disk before the
    rename: ext4 (in its default ``data=ordered`` mode) writes a new file's blocks before
    it commits a rename over an older file, but not blocks rewritten in place, so without
    the sync an OS crash or power loss could leave ``path`` naming a mix of this save and
    the one two saves back.  A new file is not synced, as before.

    Only a regular file with no other name is kept, so a symlinked or hard-linked
    ``path`` never becomes the spare.  A spare that is not a regular file (a symlink, a
    directory) is not claimed.  A claimed spare is rewritten only if, opened without
    following a symlink, it is a regular file with no other name, writable by its owner
    and owned by the saving user; any other (one planted in a shared directory, say)
    loses the temporary name.  In each of these cases the save writes a new file, as it
    does when there is no spare or the filesystem has no hard links.
    """
    path = Path(path)
    pid = os.getpid()
    tmp = path.with_name(f".{path.name}.{pid}.tmp")
    keep = path.with_name(f".{path.name}.{pid}.keep")
    spare = path.with_name(f".{path.name}.spare")
    try:
        fh, rewritten = _claim(spare, tmp)
        with fh:
            for part in parts:
                fh.write(part)
            fh.truncate()
            if rewritten:  # on disk before the rename names it: see the docstring
                _sync_data(fh.fileno())
        kept = _keep(path, keep)
        os.replace(tmp, path)
        if kept:
            with contextlib.suppress(OSError):  # without a spare the next save writes a new file
                os.replace(keep, spare)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    finally:
        # left when the save failed, or when ``spare`` already named the kept file (rename then does nothing)
        keep.unlink(missing_ok=True)


def _claim(spare: Path, tmp: Path):
    """The open file a save writes, and whether it is rewritten in place: ``spare`` renamed to
    ``tmp`` if it may be, else a new file at ``tmp``."""
    try:
        # Anything but a regular file stays where it is: a directory renamed to ``tmp`` could not be
        # unlinked, and every later save of this process would fail on it.  The checks after the
        # open are the ones that hold if the name is swapped in between.
        if stat.S_ISREG(os.lstat(spare).st_mode):
            os.replace(spare, tmp)
            fh = open(tmp, "r+b", buffering=WRITE_BUFFER, opener=_open_no_follow)
            st = os.fstat(fh.fileno())
            if (
                stat.S_ISREG(st.st_mode)
                and st.st_nlink == 1
                and st.st_mode & stat.S_IWUSR
                and (not hasattr(os, "geteuid") or st.st_uid == os.geteuid())
            ):
                return fh, True
            fh.close()
    except OSError:  # no spare, or no permission to write it
        pass
    tmp.unlink(missing_ok=True)
    return open(tmp, "xb", buffering=WRITE_BUFFER), False


_sync_data = getattr(os, "fdatasync", os.fsync)  # macOS and Windows have no fdatasync


def _open_no_follow(name, flags: int) -> int:
    return os.open(name, flags | getattr(os, "O_NOFOLLOW", 0))


def _keep(path: Path, keep: Path) -> bool:
    """Hard-link ``path`` as ``keep`` if it is a regular file with no other name; whether it was linked."""
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.link(path, keep)
            return True
    except OSError:  # no file at ``path`` yet, or a filesystem without hard links
        pass
    return False


def save_checkpoint(path, params: ModelParams, **kwargs) -> None:
    write_atomic(path, *_parts(params, **kwargs))


def load_checkpoint(path) -> Checkpoint:
    return _load(path)[1]


def inspect_checkpoint(path) -> dict:
    """The header of a checkpoint of either format, each array shown as its shape and L2 norm.

    The whole file is loaded and checked first, so a file this accepts also loads.
    """
    header, ck = _load(path)

    def summary(container: ModelParams) -> dict:
        return {name: {"shape": list(arr.shape), "l2_norm": float(np.linalg.norm(arr))}
                for name, arr in container.slots()}

    header["params"] = summary(ck.params)
    if ck.opt_state is not None:
        header["optimizer"]["m"] = summary(ck.opt_state.m)
        header["optimizer"]["v"] = summary(ck.opt_state.v)
    if ck.train_state is not None and ck.train_state.get("best_params") is not None:
        header["trainer"]["best_params"] = summary(ck.train_state["best_params"])
    return header


# --- reading -----------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load(path) -> tuple[dict, Checkpoint]:
    """The file's header (format 1: the whole envelope) and the checkpoint it holds."""
    try:
        # opened without blocking: a FIFO with no writer would block the open, and a read, until one came
        with open(path, "rb", opener=lambda name, flags: os.open(name, flags | getattr(os, "O_NONBLOCK", 0))) as f:
            before = os.fstat(f.fileno())
            if not stat.S_ISREG(before.st_mode):
                raise CheckpointError(f"{path}: cannot read the checkpoint (not a regular file)")
            os.set_blocking(f.fileno(), True)
            head = f.readline()
            if head != MAGIC:
                try:
                    header = json.loads(head + f.read())
                except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                    raise CheckpointError(f"{path}: not valid JSON ({exc})") from exc
                loaded = header, _checkpoint(path, header, 1, _read_base64)
            else:
                section = _RawSection(path, f, before.st_size)
                loaded = section.header, _checkpoint(path, section.header, FORMAT_VERSION, section.read)
            after = os.fstat(f.fileno())
            if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
                # rewritten (once a spare) or cut short while it was read: the bytes may be two saves' mix
                raise CheckpointError(f"{path}: the file was rewritten while it was read")
            return loaded
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as exc:  # a directory, no permission, a failing disk
        raise CheckpointError(f"{path}: cannot read the checkpoint ({exc.strerror or exc})") from exc


def _read_base64(where: str, record: dict, out: np.ndarray) -> None:
    """Format 1: ``out``'s bytes sit in its record as a base64 string."""
    if "data" not in record:
        raise CheckpointError(f"{where}: malformed array record")
    if not isinstance(record["data"], str):
        raise CheckpointError(f"{where}: corrupt base64 payload (not a string)")
    try:
        raw = binascii.a2b_base64(record["data"], strict_mode=True)
    except ValueError as exc:  # not ASCII, bad alphabet or padding
        raise CheckpointError(f"{where}: corrupt base64 payload") from exc
    if len(raw) != out.nbytes:
        raise CheckpointError(f"{where}: payload holds {len(raw)} bytes but shape {out.shape} needs {out.nbytes}")
    out.data.cast("B")[:] = raw


class _RawSection:
    """Format 2, read from ``f``, the load's buffered file, just past the magic line: the header line, then
    the raw section of the header's ``data_bytes``, where each array's bytes sit at its record's offset."""

    def __init__(self, path, f, file_size: int):
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError(f"{path}: the header has no terminating newline")
        try:
            self.header = json.loads(line)
        except ValueError as exc:
            raise CheckpointError(f"{path}: header is not valid JSON ({exc})") from exc
        if not isinstance(self.header, dict):
            raise CheckpointError(f"{path}: not a checkpoint file")
        data_bytes = self.header.get("data_bytes")
        if not _is_int(data_bytes) or data_bytes < 0:
            raise CheckpointError(f"{path}: header data_bytes {data_bytes!r} is not a non-negative integer")
        self.raw_at = len(MAGIC) + len(line)
        self.size = file_size - self.raw_at
        if self.size != data_bytes:
            raise CheckpointError(f"{path}: the raw section holds {self.size} bytes, but data_bytes is {data_bytes}")
        self.f = f  # stands at the start of the raw section
        self.pos = 0  # where the last read ended, kept here because ``f.tell()`` per record costs more
        self.first = {}  # (offset, shape) -> the array read from there

    def read(self, where: str, record: dict, out: np.ndarray) -> None:
        """Check ``record`` and read ``out`` from its offset, seeking only if the last read ended elsewhere, so a
        file ``checkpoint_bytes`` wrote is read front to back.  A record whose offset and shape repeat an
        earlier one's (a table stored as another) is copied from the array read for that one."""
        if "offset" not in record:
            raise CheckpointError(f"{where}: malformed array record")
        offset = record["offset"]
        if not _is_int(offset) or offset < 0:
            raise CheckpointError(f"{where}: offset {offset!r} is not a non-negative integer")
        end = offset + out.nbytes
        if end > self.size:
            raise CheckpointError(f"{where}: bytes {offset} to {end} fall outside the {self.size}-byte raw section")
        src = self.first.setdefault((offset, out.shape), out)
        if src is not out:
            out[...] = src
            return
        if offset != self.pos:
            self.f.seek(self.raw_at + offset)
        self.pos = offset + self.f.readinto(out)  # a buffered readinto stops short only where the file ends
        if self.pos < end:
            raise CheckpointError(f"{where}: short read, the file ends at byte {self.raw_at + self.pos}")


def _decode_params(obj, table: str, dims: dict[str, int], read) -> ModelParams:
    """Decode one parameter table, each slot checked against the shape ``dims`` give it, then filled by
    ``read(where, record, out)``."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{table}: parameter table missing")
    missing = [s for s in PARAM_SLOTS if s not in obj]
    if missing:
        raise CheckpointError(f"{table}: parameter table missing slots: {missing}")
    # allocated before the slots are checked: a table numpy can reserve costs only the pages read into it
    try:
        params = ModelParams(**dims, dtype="<f8", empty=True)  # the file's byte order: its bytes copy as they are
    except (MemoryError, ValueError) as exc:
        raise CheckpointError(f"{table}: envelope model dimensions {dims} are too large to allocate ({exc})") from exc
    for slot, out in params.slots():
        where = f"{table} slot '{slot}'"
        record = obj[slot]
        if not isinstance(record, dict) or "shape" not in record:
            raise CheckpointError(f"{where}: malformed array record")
        shape = record["shape"]
        if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
            raise CheckpointError(f"{where}: shape {shape!r} is not a list of non-negative integers")
        if tuple(shape) != out.shape:
            raise CheckpointError(
                f"{where}: shape {tuple(shape)}, but the envelope's"
                f" {', '.join(f'{k}={v}' for k, v in dims.items())} need {out.shape}"
            )
        read(where, record, out)
    return params


def _checkpoint(path, header, version: int, read) -> Checkpoint:
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
    params = _decode_params(header.get("params"), "params", dims, read)

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
            m=_decode_params(opt.get("m"), "optimizer m", dims, read),
            v=_decode_params(opt.get("v"), "optimizer v", dims, read),
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
            train_state["best_params"] = _decode_params(train_state["best_params"], "best_params", dims, read)
    return Checkpoint(
        params=params,
        seed=header.get("seed"),
        config=config,
        opt_state=opt_state,
        train_state=train_state,
    )
