"""Set-sequence corpora: loading, splitting, sample preparation, synthesis.

A corpus is a vocabulary size plus a list of users, each user an ordered
list of item-id sets.  The final set of every user is the prediction
target; everything before it is history.  ``prepare_sample`` turns one
user into the model's input: the sorted universe of distinct history items,
an N x K bool membership matrix (columns are time steps, left-padded with
False when the history is shorter than K), and the target ids.
``prepare_all`` prepares a whole corpus in one pass, and its samples are
slices of corpus-wide arrays.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import PietspError


class DataError(PietspError):
    """Corpus file malformed or violating an invariant."""


class SplitError(PietspError):
    """User split cannot be formed as requested."""


class SampleError(PietspError):
    """A user record cannot be turned into a training sample."""


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    sets: tuple[tuple[int, ...], ...]  # ordered; each set sorted, deduplicated


@dataclass(frozen=True)
class Corpus:
    vocab_size: int
    users: tuple[UserRecord, ...]


@dataclass(frozen=True)
class LoadReport:
    users_kept: int = 0
    users_dropped: int = 0      # fewer than 2 usable sets
    empty_sets_dropped: int = 0
    duplicate_ids_removed: int = 0
    rows_skipped: int = 0       # table rows with a missing or empty user, set-key or item cell


@dataclass(frozen=True)
class PreparedSample:
    """One user, ready for the network.

    ``universe`` doubles as the row-to-vocabulary index map: row i of the
    membership matrix describes item ``universe[i]``.
    """

    user_id: str
    universe: np.ndarray        # (N,) int64, sorted ascending, distinct
    membership: np.ndarray      # (N, K) bool, one byte a cell, history in the last T columns
    target_ids: np.ndarray      # (|target|,) int64, sorted
    vocab_size: int

    @property
    def n_elements(self) -> int:
        return int(self.universe.shape[0])


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _check_in_order(raw_users: list, vocab_size: int) -> None:
    """Walk the users, their sets and their ids in order; raise ``DataError`` for the first fault.

    ``parse_corpus`` runs this only when one of its whole-corpus checks fails,
    so the error it raises is the one this walk meets first.  It returns only
    for a valid corpus whose sets or ids are subclasses of list or int.
    """
    first_seen: dict[str, int] = {}
    for u_idx, raw in enumerate(raw_users):
        if not isinstance(raw, dict) or "user_id" not in raw or "sets" not in raw:
            raise DataError(f"users[{u_idx}]: expected an object with 'user_id' and 'sets'")
        uid = str(raw["user_id"])
        if uid in first_seen:
            raise DataError(f"users[{u_idx}]: user_id '{uid}' repeats users[{first_seen[uid]}]")
        first_seen[uid] = u_idx
        if not isinstance(raw["sets"], list):
            raise DataError(f"user '{uid}': 'sets' is not a list")
        for s_idx, raw_set in enumerate(raw["sets"]):
            if not isinstance(raw_set, list):
                raise DataError(f"user '{uid}': sets[{s_idx}] is not a list")
            for e_idx, item in enumerate(raw_set):
                if not isinstance(item, int) or isinstance(item, bool):
                    raise DataError(f"user '{uid}': sets[{s_idx}][{e_idx}]: id {item!r} is not an integer")
                if item < 0 or item >= vocab_size:
                    raise DataError(
                        f"user '{uid}': sets[{s_idx}][{e_idx}]: id {item} outside [0, {vocab_size})"
                    )


def parse_corpus(obj) -> tuple[Corpus, LoadReport]:
    """Validate a raw dict (the corpus JSON schema) into a Corpus.

    Within-set duplicates are removed, empty sets dropped, and users left
    with fewer than two sets dropped; all three are counted in the report.
    Out-of-range ids are hard errors naming the user and offset; so are two
    users with the same ``user_id`` (after ``str``).

    Every id is checked at once, over the flattened corpus; only when a check
    fails does ``_check_in_order`` walk the corpus to find and word the first
    fault.  Sets that already rise strictly (as ``save_corpus`` writes them)
    are kept as they are; only the others are sorted and deduplicated.
    """
    if not isinstance(obj, dict):
        raise DataError("corpus root must be an object")
    vocab_size = obj.get("vocab_size")
    if not isinstance(vocab_size, int) or isinstance(vocab_size, bool) or not 1 <= vocab_size < 2**63:
        raise DataError(f"vocab_size must be a positive integer below 2**63, got {vocab_size!r}")
    raw_users = obj.get("users")
    if not isinstance(raw_users, list):
        raise DataError("'users' must be a list")

    if not all(isinstance(raw, dict) and "user_id" in raw and isinstance(raw.get("sets"), list) for raw in raw_users):
        _check_in_order(raw_users, vocab_size)
    uids = [str(raw["user_id"]) for raw in raw_users]
    if len(set(uids)) < len(uids):
        _check_in_order(raw_users, vocab_size)
    user_sets = [raw["sets"] for raw in raw_users]
    raw_sets = list(chain.from_iterable(user_sets))
    if not set(map(type, raw_sets)) <= {list}:
        _check_in_order(raw_users, vocab_size)
    flat = list(chain.from_iterable(raw_sets))
    if not set(map(type, flat)) <= {int}:  # bool is not int here
        _check_in_order(raw_users, vocab_size)
    try:
        ids = np.fromiter(flat, dtype=np.int64, count=len(flat))
    except OverflowError:  # an id beyond int64 lies outside the vocabulary: the walk raises it
        _check_in_order(raw_users, vocab_size)
    del flat
    if ids.size and (ids.min() < 0 or int(ids.max()) >= vocab_size):
        _check_in_order(raw_users, vocab_size)

    # the sets whose ids do not rise strictly: one pass over the pairs of neighbouring ids
    sizes = np.fromiter(map(len, raw_sets), dtype=np.intp, count=len(raw_sets))
    ends = np.cumsum(sizes)
    falls = ids[1:] <= ids[:-1]
    boundaries = ends[:-1]
    falls[boundaries[(boundaries > 0) & (boundaries < ids.size)] - 1] = False  # pairs that span two sets
    unsorted = np.unique(np.searchsorted(ends, np.flatnonzero(falls), side="right"))
    del ids, falls

    clean = list(map(tuple, raw_sets))
    duplicates = 0
    for i in unsorted.tolist():
        clean[i] = tuple(sorted(set(raw_sets[i])))
        duplicates += len(raw_sets[i]) - len(clean[i])

    users: list[UserRecord] = []
    start = 0
    for uid, sets in zip(uids, user_sets):
        stop = start + len(sets)
        kept = tuple(filter(None, clean[start:stop]))  # drops the empty sets
        start = stop
        if len(kept) >= 2:
            users.append(UserRecord(user_id=uid, sets=kept))

    report = LoadReport(
        users_kept=len(users),
        users_dropped=len(uids) - len(users),
        empty_sets_dropped=int(np.count_nonzero(sizes == 0)),
        duplicate_ids_removed=duplicates,
    )
    return Corpus(vocab_size=vocab_size, users=tuple(users)), report


def read_json(path, **kwargs):
    """The JSON value in the UTF-8 file at ``path`` (``kwargs`` go to ``json.load``); bytes that are not
    UTF-8 or not JSON are a ``DataError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, **kwargs)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise DataError(f"{path}: not valid JSON ({exc})") from exc


def load_corpus(path) -> tuple[Corpus, LoadReport]:
    return parse_corpus(read_json(path))


def corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "vocab_size": corpus.vocab_size,
        "users": [{"user_id": u.user_id, "sets": [list(s) for s in u.sets]} for u in corpus.users],
    }


def save_corpus(corpus: Corpus, path) -> None:
    Path(path).write_text(json.dumps(corpus_to_dict(corpus)), encoding="utf-8")


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def check_split_ratios(ratios) -> None:
    """Raise ``SplitError`` unless ``ratios`` are three positive numbers summing to 1."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # ``r <= 0`` is false for NaN
        raise SplitError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got {sum(ratios)!r}")


def split_users(
    corpus: Corpus, ratios: tuple[float, float, float], seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic user-level split.  Sizes: floor(train), floor(val), rest."""
    check_split_ratios(ratios)
    n = len(corpus.users)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * ratios[0] + 1e-9)
    n_val = int(n * ratios[1] + 1e-9)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise SplitError(f"split of {n} users by {ratios} leaves an empty part")
    parts = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    return tuple(
        Corpus(corpus.vocab_size, tuple(corpus.users[i] for i in part)) for part in parts
    )


# ---------------------------------------------------------------------------
# sample preparation
# ---------------------------------------------------------------------------

def _prepare(users, k_max: int, vocab_size: int) -> list[PreparedSample]:
    """Prepare every user in one pass over the flattened histories; each sample is a slice.

    Every kept history id is flattened with its user and membership column.
    One sort of the (user, id, column) triples gives every user's sorted
    universe, one after the other, and every id's row; one assignment fills
    the stacked membership matrix.  The user is the first sort key, so each
    universe holds only its own user's ids, whatever the ids are.
    """
    if k_max < 1:
        raise SampleError(f"k_max must be >= 1, got {k_max}")
    for user in users:
        if len(user.sets) < 2:
            raise SampleError(f"user '{user.user_id}' has no history sets")
    n_users = len(users)
    histories = [user.sets[-k_max - 1 : -1] for user in users]  # the k_max most recent history sets
    hist_lens = np.fromiter(map(len, histories), dtype=np.intp, count=n_users)
    set_sizes = np.fromiter(map(len, chain.from_iterable(histories)), dtype=np.intp, count=int(hist_lens.sum()))
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(histories)), dtype=np.int64, count=int(set_sizes.sum()))

    # a history of T sets fills columns k_max - T .. k_max - 1
    set_user = np.repeat(np.arange(n_users), hist_lens)
    set_col = np.arange(set_user.size) + np.repeat(k_max - np.cumsum(hist_lens), hist_lens)
    owner = np.repeat(set_user, set_sizes)
    col = np.repeat(set_col, set_sizes)

    lo = int(ids.min()) if ids.size else 0
    span = int(ids.max()) - lo + 1 if ids.size else 1
    if n_users * span * k_max < 2**63:  # the triple fits one int64 key: sort the keys themselves
        ids -= lo
        key = owner * span
        key += ids
        key *= k_max
        key += col
        key.sort()
        np.divmod(key, k_max, out=(key, col))  # decoded into the arrays it was built from
        np.divmod(key, span, out=(owner, ids))
        ids += lo
    else:  # ids too far apart for one key
        order = np.lexsort((col, ids, owner))
        ids, owner, col = ids[order], owner[order], col[order]
        key = order
    first = np.ones(ids.size, dtype=bool)  # the first row of each (user, id)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    first[1:] |= owner[1:] != owner[:-1]
    universes = ids[first]
    row_ends = np.cumsum(np.bincount(owner[first], minlength=n_users)).tolist()
    rows = np.cumsum(first, out=key)
    rows -= 1
    del ids, owner, first  # the per-id temporaries go before the membership matrix is allocated
    membership = np.zeros((universes.size, k_max), dtype=bool)
    membership[rows, col] = True
    del rows, key, col

    targets = np.fromiter(chain.from_iterable(user.sets[-1] for user in users), dtype=np.int64)
    target_ends = np.cumsum([len(user.sets[-1]) for user in users]).tolist()
    samples = []
    row, t = 0, 0
    for user, row_end, t_end in zip(users, row_ends, target_ends):
        samples.append(PreparedSample(
            user_id=user.user_id,
            universe=universes[row:row_end],
            membership=membership[row:row_end],
            target_ids=targets[t:t_end],
            vocab_size=vocab_size,
        ))
        row, t = row_end, t_end
    return samples


def prepare_sample(user: UserRecord, k_max: int, vocab_size: int) -> PreparedSample:
    """Build the universe, membership matrix, and target for one user.

    The last set is the target.  Histories longer than k_max keep only the
    k_max most recent sets; shorter ones occupy the trailing columns of the
    membership matrix, with all-zero padding columns on the left.
    """
    return _prepare((user,), k_max, vocab_size)[0]


def max_history_len(corpus: Corpus) -> int:
    return max(len(u.sets) - 1 for u in corpus.users)


def prepare_all(corpus: Corpus, k_max: int) -> list[PreparedSample]:
    """``prepare_sample`` for every user, in one pass; the samples are slices of corpus-wide arrays."""
    return _prepare(corpus.users, k_max, corpus.vocab_size)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    users: int
    vocab_size: int
    pattern: str                # "periodic" or "repeat-biased"
    seed: int = 0
    history_len: int = 4        # sets per user = history_len + 1 (last one is the target)
    basket_min: int = 3
    basket_max: int = 5
    pool_size: int = 10
    repeat_prob: float = 0.8


def _gen_user(idx: int, spec: SyntheticSpec, rng: np.random.Generator):
    n_sets = spec.history_len + 1
    if spec.pattern == "periodic":
        size = int(rng.integers(spec.basket_min, spec.basket_max + 1))
        basket = tuple(sorted(int(e) for e in rng.choice(spec.vocab_size, size, replace=False)))
        return UserRecord(f"u{idx:05d}", (basket,) * n_sets), basket
    if spec.pattern == "repeat-biased":
        pool = np.sort(rng.choice(spec.vocab_size, spec.pool_size, replace=False))
        rest = np.setdiff1d(np.arange(spec.vocab_size), pool)
        sets = []
        for _ in range(n_sets):
            size = int(rng.integers(spec.basket_min, spec.basket_max + 1))
            from_pool = int(rng.binomial(size, spec.repeat_prob))
            items = np.concatenate([
                rng.choice(pool, from_pool, replace=False),
                rng.choice(rest, size - from_pool, replace=False),
            ])
            sets.append(tuple(sorted(int(e) for e in items)))
        return UserRecord(f"u{idx:05d}", tuple(sets)), tuple(int(e) for e in pool)
    raise DataError(f"unknown synthetic pattern '{spec.pattern}'")


def gen_synthetic(spec: SyntheticSpec) -> Corpus:
    corpus, _ = gen_synthetic_with_pools(spec)
    return corpus


def gen_synthetic_with_pools(spec: SyntheticSpec) -> tuple[Corpus, dict[str, tuple[int, ...]]]:
    """Like gen_synthetic but also returns each user's item pool (for generator tests)."""
    if spec.vocab_size < 10:
        raise DataError(f"synthetic corpora need vocab_size >= 10, got {spec.vocab_size}")
    if spec.users < 1:
        raise DataError(f"synthetic corpora need at least one user, got {spec.users}")
    if spec.seed < 0:
        raise DataError(f"seed must be non-negative, got {spec.seed}")
    if spec.history_len < 1:
        raise DataError("history_len must be >= 1")
    if not 0.0 <= spec.repeat_prob <= 1.0:
        raise DataError(f"repeat_prob must lie in [0, 1], got {spec.repeat_prob}")
    if spec.basket_min < 1:
        raise DataError(f"basket_min must be >= 1, got {spec.basket_min}")
    if spec.basket_min > spec.basket_max:
        raise DataError(f"basket_min {spec.basket_min} exceeds basket_max {spec.basket_max}")
    if spec.basket_max > spec.vocab_size:
        raise DataError(f"basket_max {spec.basket_max} exceeds vocab_size {spec.vocab_size}")
    if spec.pattern == "repeat-biased":
        if spec.pool_size > spec.vocab_size:
            raise DataError(f"pool_size {spec.pool_size} exceeds vocab_size {spec.vocab_size}")
        if spec.basket_max > spec.pool_size:
            raise DataError("basket_max cannot exceed pool_size for repeat-biased corpora")
        if spec.repeat_prob < 1 and spec.basket_max > spec.vocab_size - spec.pool_size:
            raise DataError(f"basket_max {spec.basket_max} exceeds the {spec.vocab_size - spec.pool_size} items"
                            f" outside a pool of {spec.pool_size}")
    rng = np.random.default_rng(spec.seed)
    users, pools = [], {}
    for idx in range(spec.users):
        user, pool = _gen_user(idx, spec, rng)
        users.append(user)
        pools[user.user_id] = tuple(pool)
    return Corpus(vocab_size=spec.vocab_size, users=tuple(users)), pools


# ---------------------------------------------------------------------------
# raw dump conversion
# ---------------------------------------------------------------------------

def _dense_corpus(user_sets: dict, order=None) -> tuple[Corpus, LoadReport, dict]:
    """The corpus of ``user_sets`` (user id -> its sets of item names), users in id order, each name
    (as a string) mapped to its place in ``sorted(names, key=order)``; and the ``{"items": names}`` map."""
    all_items = sorted({str(i) for sets in user_sets.values() for s in sets for i in s}, key=order)
    item_to_id = {item: i for i, item in enumerate(all_items)}
    users = [{"user_id": uid, "sets": [[item_to_id[str(i)] for i in s] for s in user_sets[uid]]}
             for uid in sorted(user_sets)]
    corpus, report = parse_corpus({"vocab_size": len(all_items), "users": users})
    return corpus, report, {"items": all_items}


def convert_table(
    path,
    user_col: str,
    set_col: str,
    item_col: str,
    delimiter: str | None = None,
) -> tuple[Corpus, LoadReport, dict]:
    """Convert a tab/CSV export (one row per user/set-key/item) to a corpus.

    Rows are grouped by user, then by set key (ordering numerically when
    every key parses as a number other than NaN, lexicographically
    otherwise).  A row whose user, set-key or item cell is missing or empty
    is skipped and counted in ``LoadReport.rows_skipped``.  Item ids are
    remapped to a dense 0-based vocabulary; the mapping is returned so it
    can be written alongside the corpus.  ``delimiter`` must be one
    character; without one, it is a tab for ``.tsv``, ``.dat`` and ``.txt``
    files and a comma otherwise.
    """
    path = Path(path)
    if delimiter is None:
        delimiter = "\t" if path.suffix.lower() in (".tsv", ".dat", ".txt") else ","
    if not (isinstance(delimiter, str) and len(delimiter) == 1):  # what ``csv`` takes
        raise DataError(f"delimiter {delimiter!r} is not one character")
    grouped: dict[str, dict[str, list[str]]] = {}
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, delimiter=delimiter)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file")
            for col in (user_col, set_col, item_col):
                if col not in reader.fieldnames:
                    raise DataError(f"{path}: missing column '{col}' (found {reader.fieldnames})")
            for row in reader:
                user, key, item = row[user_col], row[set_col], row[item_col]
                if not (user and key and item):  # a cell the row lacks is None
                    skipped += 1
                    continue
                grouped.setdefault(user, {}).setdefault(key, []).append(item)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if not grouped:
        raise DataError(f"{path}: no rows")

    def _set_order(keys):
        try:
            if not any(math.isnan(float(key)) for key in keys):  # NaN has no place in a numeric order
                return sorted(keys, key=float)
        except ValueError:
            pass
        return sorted(keys)

    corpus, report, vocab_map = _dense_corpus({user: [sets[key] for key in _set_order(sets)]
                                               for user, sets in grouped.items()})
    return corpus, replace(report, rows_skipped=skipped), vocab_map


class _JsonObject(dict):
    """A decoded JSON object that notes ``repeat``, the first key it holds twice (the dict keeps
    the last value), or None."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeat = None
        if len(self) < len(pairs):  # some key came twice
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    self.repeat = key
                    break
                seen.add(key)


def convert_json_dump(path) -> tuple[Corpus, LoadReport, dict]:
    """Convert a set-sequence JSON dump to a corpus.

    Accepts either a flat {user_id: [[item, ...], ...]} object or one whose
    top-level keys are split names ("train"/"validate"/"valid"/"test") with
    such objects beneath; splits are merged since this package re-splits by
    user.  A user id already taken by an earlier split becomes
    "<split>:<id>", and an error if that name is taken too.  A user or split
    that appears twice in one object is an error.  Item ids may be strings
    or integers (not floats, booleans, nulls or lists) and are remapped to a
    dense 0-based vocabulary.
    """
    obj = read_json(path, object_pairs_hook=_JsonObject)
    if not isinstance(obj, dict) or not obj:
        raise DataError(f"{path}: expected a non-empty JSON object")
    split_names = ("train", "validate", "valid", "validation", "test")
    if all(k in split_names for k in obj):
        if obj.repeat is not None:
            raise DataError(f"{path}: split '{obj.repeat}' appears twice")
        merged: dict[str, list] = {}
        origin: dict[str, str] = {}
        for split, users in obj.items():
            if not isinstance(users, dict):
                raise DataError(f"{path}: split '{split}' is a {type(users).__name__}, not an object of users")
            if users.repeat is not None:
                raise DataError(f"{path}: user '{users.repeat}' appears twice in split '{split}'")
            for uid, seq in users.items():
                key = uid if uid not in merged else f"{split}:{uid}"
                if key in merged:
                    raise DataError(
                        f"{path}: split '{split}' repeats user '{uid}', and its merged name '{key}' is another user's"
                    )
                merged[key] = seq
                origin[key] = f"user '{uid}' in split '{split}'"
    else:
        if obj.repeat is not None:
            raise DataError(f"{path}: user '{obj.repeat}' appears twice")
        merged, origin = obj, {}
    for uid, seq in merged.items():
        if not isinstance(seq, list) or any(not isinstance(s, list) for s in seq):
            raise DataError(f"{path}: user '{uid}' is not a list of item lists")
        if not {type(i) for s in seq for i in s} <= {str, int}:  # type(True) is bool, not int
            item = next(i for s in seq for i in s if type(i) not in (str, int))
            who = origin.get(uid) or f"user '{uid}'"
            raise DataError(f"{path}: {who} has the item {json.dumps(item)}, which is neither a string nor an integer")
    return _dense_corpus(merged, order=lambda s: (len(s), s))
