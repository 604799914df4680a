import copy
import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    JSON_SPLITS,
    oracle_convert_json_dump,
    oracle_convert_table,
    oracle_parse_corpus,
    oracle_prepare_sample,
    target_multihot,
)
from pietsp.data import (
    Corpus,
    DataError,
    SampleError,
    SplitError,
    SyntheticSpec,
    UserRecord,
    convert_json_dump,
    convert_table,
    gen_synthetic,
    gen_synthetic_with_pools,
    load_corpus,
    max_history_len,
    parse_corpus,
    prepare_all,
    prepare_sample,
    save_corpus,
    split_users,
)
from pietsp.model import MappingError, make_batch


# --- loading -----------------------------------------------------------------

def test_load_minimal_corpus(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"vocab_size":5,"users":[{"user_id":"a","sets":[[0,1],[1]]}]}')
    corpus, report = load_corpus(path)
    assert corpus.vocab_size == 5
    assert len(corpus.users) == 1
    assert corpus.users[0].sets == ((0, 1), (1,))
    assert report.users_kept == 1


def test_load_deduplicates_within_sets():
    corpus, report = parse_corpus(
        {"vocab_size": 5, "users": [{"user_id": "a", "sets": [[1, 1, 2], [2]]}]}
    )
    assert corpus.users[0].sets[0] == (1, 2)
    assert report.duplicate_ids_removed == 1


def test_load_drops_single_set_user():
    corpus, report = parse_corpus(
        {"vocab_size": 5, "users": [{"user_id": "a", "sets": [[0, 1]]},
                                    {"user_id": "b", "sets": [[0], [1]]}]}
    )
    assert [u.user_id for u in corpus.users] == ["b"]
    assert report.users_dropped == 1


def test_load_drops_empty_sets():
    corpus, report = parse_corpus(
        {"vocab_size": 5, "users": [{"user_id": "a", "sets": [[0], [], [1]]}]}
    )
    assert corpus.users[0].sets == ((0,), (1,))
    assert report.empty_sets_dropped == 1


def test_load_rejects_out_of_range_id():
    with pytest.raises(DataError, match=r"user 'a'.*sets\[1\]\[0\].*outside \[0, 3\)"):
        parse_corpus({"vocab_size": 3, "users": [{"user_id": "a", "sets": [[0], [3]]}]})


def test_load_rejects_negative_id():
    with pytest.raises(DataError, match="user 'a'"):
        parse_corpus({"vocab_size": 3, "users": [{"user_id": "a", "sets": [[-1], [0]]}]})


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_corpus(path)


def test_corpus_roundtrip(tmp_path):
    corpus, _ = parse_corpus(
        {"vocab_size": 9, "users": [{"user_id": "a", "sets": [[0, 4], [2], [8, 0]]}]}
    )
    path = tmp_path / "round.json"
    save_corpus(corpus, path)
    back, _ = load_corpus(path)
    assert back == corpus


def test_load_rejects_bool_vocab_size():
    for flag in (True, False):
        with pytest.raises(DataError, match=rf"vocab_size must be a positive integer below 2\*\*63, got {flag}"):
            parse_corpus({"vocab_size": flag, "users": [{"user_id": "a", "sets": [[0], [0]]}]})


@pytest.mark.parametrize("raw, error", [([], "corpus root must be an object"),
                                        ({"vocab_size": 3, "users": {"a": [[0], [1]]}}, "'users' must be a list")],
                         ids=["root", "users"])
def test_load_refuses_a_root_or_users_that_is_the_wrong_json_type(raw, error):
    with pytest.raises(DataError, match=f"^{error}$"):
        parse_corpus(raw)
    assert _outcome(oracle_parse_corpus, raw) == (DataError, error)


@pytest.mark.parametrize("first, second", [("a", "a"), (7, "7")])
def test_load_rejects_duplicate_user_ids(first, second):
    raw = {"vocab_size": 3, "users": [{"user_id": first, "sets": [[0], [1]]},
                                      {"user_id": "b", "sets": [[0], [1]]},
                                      {"user_id": second, "sets": [[2], [1]]}]}
    with pytest.raises(DataError, match=rf"users\[2\]: user_id '{first}' repeats users\[0\]"):
        parse_corpus(raw)


@pytest.mark.parametrize("sets", [{}, "", 3, None], ids=["dict", "empty-string", "int", "null"])
def test_load_rejects_sets_that_are_not_a_list(sets):
    with pytest.raises(DataError, match="user 'a': 'sets' is not a list"):
        parse_corpus({"vocab_size": 3, "users": [{"user_id": "a", "sets": sets}]})


def test_load_reports_the_first_fault_in_file_order():
    # an id fault in users[0] comes before the malformed users[1]
    raw = {"vocab_size": 3, "users": [{"user_id": "a", "sets": [[0], [1, 2.0]]}, "not a user"]}
    with pytest.raises(DataError, match=r"user 'a': sets\[1\]\[1\]: id 2.0 is not an integer"):
        parse_corpus(raw)


# --- loading and preparation against the one-at-a-time oracles -----------------

def _raw_set(vocab):
    ids = st.integers(0, vocab - 1)
    return st.one_of(
        st.lists(ids, max_size=6),                           # any order, repeats, empty
        st.lists(ids, max_size=6, unique=True).map(sorted),  # strictly rising, as save_corpus writes them
    )


@st.composite
def raw_corpora(draw, min_users=0):
    vocab = draw(st.integers(1, 12))
    users = [
        {"user_id": draw(st.sampled_from([i, f"u{i}"])), "sets": draw(st.lists(_raw_set(vocab), max_size=7))}
        for i in range(draw(st.integers(min_users, 6)))
    ]
    return {"vocab_size": vocab, "users": users}


def _assert_samples_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.user_id, g.vocab_size) == (w.user_id, w.vocab_size)
        for name in ("universe", "membership", "target_ids"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DataError, SampleError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100)
@given(raw_corpora(), st.integers(1, 9))
@example({"vocab_size": 1, "users": [{"user_id": "a", "sets": [[0], [0, 0], []]}]}, 1)
def test_parse_and_prepare_match_the_oracles(raw, k_max):
    before = copy.deepcopy(raw)
    corpus, report = parse_corpus(raw)
    assert raw == before
    assert (corpus, report) == oracle_parse_corpus(raw)
    assert all(type(e) is int for u in corpus.users for s in u.sets for e in s)
    want = [oracle_prepare_sample(u, k_max, corpus.vocab_size) for u in corpus.users]
    _assert_samples_equal(prepare_all(corpus, k_max), want)
    for user, w in zip(corpus.users, want):
        _assert_samples_equal([prepare_sample(user, k_max, corpus.vocab_size)], [w])


def test_load_and_prepare_match_the_oracles_on_a_saved_corpus(tmp_path):
    spec = SyntheticSpec(users=60, vocab_size=300, pattern="repeat-biased", seed=2, history_len=16,
                         basket_min=2, basket_max=9, pool_size=12, repeat_prob=0.5)
    save_corpus(gen_synthetic(spec), tmp_path / "c.json")
    got = load_corpus(tmp_path / "c.json")
    corpus, _ = want = oracle_parse_corpus(json.loads((tmp_path / "c.json").read_text()))
    assert got == want
    for k_max in (1, 7, 16, 20):
        _assert_samples_equal(prepare_all(corpus, k_max),
                              [oracle_prepare_sample(u, k_max, corpus.vocab_size) for u in corpus.users])


_BAD_IDS = [True, False, 1.0, 0.5, "1", None, -1, -(2**64), 2**63, 2**64, [0], "vocab", "vocab+5"]
_BAD_SETS = [{}, {"0": 1}, "ab", (0,), 3, None]
_BAD_USERS = [[], "u", None, 5, {"user_id": "x"}, {"sets": [[0], [0]]}]
_BAD_SETS_FIELDS = [{}, "", "ab", 3, None, ([0], [0])]
_BAD_VOCAB = [True, False, 0, -1, 2.0, "5", None, 2**63, 2**70]


@st.composite
def bad_corpora(draw):
    """A valid raw corpus with one to three faults put in at drawn places."""
    raw = draw(raw_corpora(min_users=1))
    users = raw["users"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["id", "set", "user", "sets", "duplicate", "vocab"]))
        u = draw(st.integers(0, len(users) - 1))
        if not isinstance(users[u], dict) or not isinstance(users[u].get("sets"), list):
            kind = "user"  # an earlier fault replaced this user's structure
        if kind == "id":
            sets = users[u]["sets"] or [[]]
            users[u]["sets"] = sets
            target = draw(st.sampled_from(sets))
            if not isinstance(target, list):
                continue
            bad = draw(st.sampled_from(_BAD_IDS))
            if isinstance(bad, str) and bad.startswith("vocab"):
                bad = raw["vocab_size"] + (5 if bad.endswith("+5") else 0)
            target.insert(draw(st.integers(0, len(target))), bad)
        elif kind == "set":
            users[u]["sets"].insert(draw(st.integers(0, len(users[u]["sets"]))), draw(st.sampled_from(_BAD_SETS)))
        elif kind == "user":
            users[u] = draw(st.sampled_from(_BAD_USERS))
        elif kind == "sets":
            users[u]["sets"] = draw(st.sampled_from(_BAD_SETS_FIELDS))
        elif kind == "duplicate":
            uid = users[u]["user_id"]
            clash = draw(st.sampled_from([uid, str(uid)]))
            users.insert(draw(st.integers(u + 1, len(users))), {"user_id": clash, "sets": [[0], [0]]})
        else:
            raw["vocab_size"] = draw(st.sampled_from(_BAD_VOCAB))
    return raw


@settings(max_examples=120)
@given(bad_corpora())
@example({"vocab_size": 4, "users": [{"user_id": "a", "sets": [[1, 0], [3, 2**64]]}]})
@example({"vocab_size": 2**70, "users": [{"user_id": "a", "sets": [[0], [2**65]]}]})  # loaded, then overflowed in prepare_all
@example({"vocab_size": 4, "users": [{"user_id": "a", "sets": [[0], [1]]}, {"user_id": "a", "sets": [[9]]}]})
@example({"vocab_size": 4, "users": [{"user_id": "a", "sets": [[0], [5]]}, {"user_id": "a", "sets": [[0]]}]})
def test_bad_corpora_raise_the_oracles_error(raw):
    want = _outcome(oracle_parse_corpus, copy.deepcopy(raw))
    assert want[0] is DataError
    assert _outcome(parse_corpus, raw) == want


@st.composite
def hand_built_users(draw):
    """UserRecords that never went through parse_corpus: ids in any order, repeated, negative,
    out of range or far apart enough that (user, id, column) no longer fits one int64 key."""
    small = st.integers(-3, 14)
    ids = draw(st.sampled_from([small, st.one_of(small, st.integers(-(2**62), 2**62))]))
    return tuple(
        UserRecord(f"u{i}", tuple(tuple(draw(st.lists(ids, max_size=5))) for _ in range(draw(st.integers(1, 6)))))
        for i in range(draw(st.integers(1, 5)))
    )


@settings(max_examples=100)
@given(hand_built_users(), st.integers(0, 8))
@example((UserRecord("a", ((2**62, -(2**62)), (0,))), UserRecord("b", ((1, 1), (0,)))), 2)
def test_prepare_matches_the_oracle_on_hand_built_users(users, k_max):
    corpus = Corpus(vocab_size=10, users=users)
    want = [_outcome(oracle_prepare_sample, u, k_max, 10) for u in users]
    first_error = next((w for w in want if w[0] != "ok"), None)
    if first_error is not None:
        assert _outcome(prepare_all, corpus, k_max) == first_error
    else:
        _assert_samples_equal(prepare_all(corpus, k_max), [w[1] for w in want])
    for user, w in zip(users, want):
        got = _outcome(prepare_sample, user, k_max, 10)
        if w[0] == "ok":
            _assert_samples_equal([got[1]], [w[1]])
        else:
            assert got == w


def test_out_of_range_id_stays_in_its_users_universe():
    users = (UserRecord("a", ((1, 2), (0,))), UserRecord("b", ((2, 13), (1,))), UserRecord("c", ((0,), (2,))))
    samples = prepare_all(Corpus(vocab_size=12, users=users), 2)
    assert [s.universe.tolist() for s in samples] == [[1, 2], [2, 13], [0]]
    with pytest.raises(MappingError, match="user 'b'"):
        make_batch(samples, 12)


# --- splitting ---------------------------------------------------------------

def _corpus(n_users, vocab=20):
    users = tuple(
        UserRecord(f"u{i}", ((i % vocab,), ((i + 1) % vocab,))) for i in range(n_users)
    )
    return Corpus(vocab_size=vocab, users=users)


def test_split_sizes_floor_floor_remainder():
    train, val, test = split_users(_corpus(10), (0.7, 0.1, 0.2), seed=13)
    assert (len(train.users), len(val.users), len(test.users)) == (7, 1, 2)


def test_split_partition_is_exact():
    corpus = _corpus(23)
    train, val, test = split_users(corpus, (0.7, 0.1, 0.2), seed=5)
    ids = [u.user_id for c in (train, val, test) for u in c.users]
    assert sorted(ids) == sorted(u.user_id for u in corpus.users)
    assert len(set(ids)) == len(ids)


def test_split_deterministic():
    corpus = _corpus(30)
    a = split_users(corpus, (0.7, 0.1, 0.2), seed=99)
    b = split_users(corpus, (0.7, 0.1, 0.2), seed=99)
    assert all(x == y for x, y in zip(a, b))


def test_split_seeds_differ_statistically():
    corpus = _corpus(30)
    different = 0
    for seed in range(100):
        a = split_users(corpus, (0.7, 0.1, 0.2), seed=seed)
        b = split_users(corpus, (0.7, 0.1, 0.2), seed=seed + 1000)
        if [u.user_id for u in a[0].users] != [u.user_id for u in b[0].users]:
            different += 1
    assert different >= 95


def test_split_rejects_bad_ratios():
    with pytest.raises(SplitError):
        split_users(_corpus(10), (0.5, 0.5, 0.2), seed=0)
    with pytest.raises(SplitError):
        split_users(_corpus(10), (0.9, -0.1, 0.2), seed=0)


@pytest.mark.parametrize("ratios", [(float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5)], ids=["first", "second"])
def test_split_rejects_nan_ratios_naming_them(ratios):
    with pytest.raises(SplitError, match=re.escape(f"ratios must be three positive numbers, got {ratios}")):
        split_users(_corpus(10), ratios, seed=0)


def test_split_rejects_empty_part():
    with pytest.raises(SplitError):
        split_users(_corpus(3), (0.98, 0.01, 0.01), seed=0)


# --- sample preparation -------------------------------------------------------

def test_prepare_sample_worked_example():
    user = UserRecord("a", ((1, 2), (2,), (2, 4)))
    s = prepare_sample(user, 3, 12)
    assert list(s.universe) == [1, 2]
    assert np.array_equal(s.membership, [[0, 1, 0], [0, 1, 1]])
    y = target_multihot(s)
    assert y[2] == 1 and y[4] == 1 and y.sum() == 2


def test_prepare_sample_no_padding_when_history_fills_k():
    user = UserRecord("a", ((0,), (1,), (2,)))
    s = prepare_sample(user, 2, 5)
    assert not np.any(np.all(s.membership == 0, axis=0))


def test_prepare_sample_truncates_oldest_history():
    # history (0,), (1,), (2,), (3,) with k=2 keeps only (2,), (3,)
    user = UserRecord("a", ((0,), (1,), (2,), (3,), (4,)))
    s = prepare_sample(user, 2, 6)
    assert list(s.universe) == [2, 3]
    assert np.array_equal(s.membership, [[1, 0], [0, 1]])


def test_prepare_sample_rejects_empty_history():
    with pytest.raises(SampleError):
        prepare_sample(UserRecord("a", ((1, 2),)), 3, 5)


@given(st.integers(0, 2**32 - 1))
def test_membership_ones_count_and_row_support(seed):
    rng = np.random.default_rng(seed)
    vocab = 30
    n_sets = int(rng.integers(2, 7))
    sets = tuple(
        tuple(sorted(int(e) for e in rng.choice(vocab, int(rng.integers(1, 6)), replace=False)))
        for _ in range(n_sets)
    )
    user = UserRecord("u", sets)
    k = int(rng.integers(1, 9))
    s = prepare_sample(user, k, vocab)
    history = sets[:-1][-k:]
    assert s.membership.sum() == sum(len(h) for h in history)
    assert s.universe.size <= sum(len(h) for h in history)
    assert s.universe.size <= vocab
    assert np.all(s.membership.sum(axis=1) >= 1)
    pad = k - len(history)
    for i, eid in enumerate(s.universe):
        support = set(np.flatnonzero(s.membership[i]))
        expected = {pad + j for j, h in enumerate(history) if int(eid) in h}
        assert support == expected


# --- synthetic corpora ---------------------------------------------------------

def test_periodic_every_set_equals_basket():
    spec = SyntheticSpec(users=3, vocab_size=50, pattern="periodic", seed=4, history_len=3)
    corpus = gen_synthetic(spec)
    for user in corpus.users:
        assert len(user.sets) == 4
        assert len(set(user.sets)) == 1
        assert 3 <= len(user.sets[0]) <= 5


def test_synthetic_deterministic():
    spec = SyntheticSpec(users=5, vocab_size=40, pattern="repeat-biased", seed=11)
    assert gen_synthetic(spec) == gen_synthetic(spec)


def test_synthetic_rejects_tiny_vocab():
    with pytest.raises(DataError):
        gen_synthetic(SyntheticSpec(users=1, vocab_size=5, pattern="periodic", seed=0))


# one field of a drawable repeat-biased spec (pool_size 10) changed, and the refusal that names it
SYNTHETIC_REFUSALS = [
    ("pattern", "cyclic", "unknown synthetic pattern 'cyclic'"),
    ("users", 0, "synthetic corpora need at least one user, got 0"),
    ("history_len", 0, "history_len must be >= 1"),
    ("repeat_prob", 1.5, "repeat_prob must lie in [0, 1], got 1.5"),
    ("repeat_prob", -0.1, "repeat_prob must lie in [0, 1], got -0.1"),
    ("basket_max", 11, "basket_max cannot exceed pool_size for repeat-biased corpora"),
    ("basket_min", 0, "basket_min must be >= 1, got 0"),
    ("basket_min", 6, "basket_min 6 exceeds basket_max 5"),
    ("basket_max", 41, "basket_max 41 exceeds vocab_size 40"),
    ("pool_size", 41, "pool_size 41 exceeds vocab_size 40"),
    ("pool_size", 36, "basket_max 5 exceeds the 4 items outside a pool of 36"),
]


@pytest.mark.parametrize("field, value, error", SYNTHETIC_REFUSALS, ids=[f"{f}={v}" for f, v, _ in SYNTHETIC_REFUSALS])
def test_synthetic_refuses_a_spec_it_cannot_draw(field, value, error):
    spec = SyntheticSpec(users=3, vocab_size=40, pattern="repeat-biased", seed=0)
    with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
        gen_synthetic(replace(spec, **{field: value}))


def test_repeat_biased_pool_rate_monte_carlo():
    # ~0.8 of generated item incidences come from the user's personal pool
    spec = SyntheticSpec(
        users=180, vocab_size=100, pattern="repeat-biased", seed=3,
        history_len=15, basket_min=3, basket_max=5,
    )
    corpus, pools = gen_synthetic_with_pools(spec)
    in_pool = 0
    total = 0
    for user in corpus.users:
        pool = set(pools[user.user_id])
        for s in user.sets:
            total += len(s)
            in_pool += sum(1 for e in s if e in pool)
    assert total >= 10_000
    assert 0.78 <= in_pool / total <= 0.82


# --- converters ----------------------------------------------------------------

def test_convert_table_csv(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "user,order,item\n"
        "alice,2,apple\n"
        "alice,1,pear\n"
        "alice,1,apple\n"
        "bob,1,pear\n"
        "bob,2,fig\n"
    )
    corpus, report, vocab_map = convert_table(raw, "user", "order", "item")
    assert vocab_map["items"] == ["apple", "fig", "pear"]
    assert corpus.vocab_size == 3
    alice = next(u for u in corpus.users if u.user_id == "alice")
    # order key 1 (pear, apple) before order key 2 (apple)
    assert alice.sets == ((0, 2), (0,))


def test_convert_table_missing_column(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="missing column"):
        convert_table(raw, "user", "order", "item")


def test_convert_table_refuses_an_empty_file(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("")
    with pytest.raises(DataError, match=f"^{re.escape(str(raw))}: empty file$"):
        convert_table(raw, "user", "order", "item")


@pytest.mark.parametrize("delimiter", [";;", "", b","], ids=["two", "empty", "bytes"])
def test_convert_table_refuses_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,order,item\nu,1,p\nu,2,q\n")
    with pytest.raises(DataError, match=f"^delimiter {re.escape(repr(delimiter))} is not one character$"):
        convert_table(raw, "user", "order", "item", delimiter=delimiter)


def test_convert_json_dump_with_splits(tmp_path):
    raw = tmp_path / "dump.json"
    raw.write_text(json.dumps({
        "train": {"u1": [["5", "7"], ["7"]]},
        "test": {"u2": [[5], [9], [7]]},
    }))
    corpus, report, vocab_map = convert_json_dump(raw)
    assert corpus.vocab_size == 3
    assert {u.user_id for u in corpus.users} == {"u1", "u2"}
    assert max_history_len(corpus) == 2


_TABLE_USERS = ["a", "b", "10", "9", "é", ""]
_TABLE_KEYS = ["1", "2", "10", "1.0", " 3", "-2", "1e1", "inf", "nan", "x", ""]
_TABLE_ITEMS = ["p", "q", "10", "9", "p q", "", "é"]


@st.composite
def raw_tables(draw):
    """A header naming the three columns and one more, in any order, then rows of drawn cells;
    some rows are cut short and some lines are blank."""
    header = draw(st.permutations(["user", "order", "item", "note"]))
    cells = {"user": st.sampled_from(_TABLE_USERS), "order": st.sampled_from(_TABLE_KEYS),
             "item": st.sampled_from(_TABLE_ITEMS), "note": st.just("n")}
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        row = [draw(cells[col]) for col in header]
        rows.append(row[: draw(st.sampled_from([len(row)] * 6 + [0, 1, 2, 3]))])
    return header, rows


@settings(max_examples=150)
@given(raw_tables(), st.sampled_from([",", "\t"]))
@example((["user", "order", "item", "note"], [["a", "2", "p", "n"], ["a", "nan", "q", "n"], ["a", "1", "p", "n"]]),
         ",")
def test_convert_table_matches_the_one_row_at_a_time_oracle(tmp_path_factory, table, delimiter):
    header, rows = table
    path = tmp_path_factory.mktemp("table") / "raw.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter).writerows([header, *rows])
    want = _outcome(oracle_convert_table, path, "user", "order", "item", delimiter)
    assert _outcome(convert_table, path, "user", "order", "item", delimiter) == want


_JSON_UIDS = ["u", "v", "7", "test:u", "train:v", "valid:u", "test:test:u"]
_JSON_ITEMS = st.one_of(st.integers(-2, 12), st.sampled_from(["5", "07", "a", "b:c", "", "10"]))
_JSON_SEQS = st.one_of(st.lists(st.lists(_JSON_ITEMS, max_size=4), max_size=4),
                       st.sampled_from([5, "u", None, [[1], 2], {"a": [1]}]))
_JSON_USERS = st.dictionaries(st.sampled_from(_JSON_UIDS), _JSON_SEQS, max_size=5)


def json_dumps():
    """A flat object of users, an object of splits (some of them not objects of users), or no object."""
    splits = st.dictionaries(st.sampled_from(JSON_SPLITS), st.one_of(_JSON_USERS, _JSON_USERS,
                             st.sampled_from([[[1, 2]], "u", None, 3])), min_size=1, max_size=3)
    return st.one_of(_JSON_USERS, splits, splits, st.sampled_from([[], [{"u": [[1]]}], 5, None, "u"]))


@settings(max_examples=200)
@given(json_dumps())
@example({"train": [[1, 2]], "test": {"u": [[1], [2]]}})
@example({"train": {"u": [[1], [2]], "test:u": [[2], [3]]}, "test": {"u": [[3], [4]]}})
@example({"train": {"u": [[1], [2]], "v": [[1, 5.0]]}, "test": {"u": [[True], [None]]}})
@example({"u": [["a"], [[1]]], "v": "u"})
def test_convert_json_dump_matches_the_one_user_at_a_time_oracle(tmp_path_factory, dump):
    path = tmp_path_factory.mktemp("dump") / "dump.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    want = _outcome(oracle_convert_json_dump, path)
    assert _outcome(convert_json_dump, path) == want


def test_convert_json_dump_names_a_split_that_is_not_an_object(tmp_path):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps({"train": [[1, 2]], "test": {"u": [[1], [2]]}}))
    with pytest.raises(DataError, match="split 'train' is a list, not an object of users"):
        convert_json_dump(path)


def test_convert_json_dump_refuses_a_merged_name_another_user_has(tmp_path):
    """Renaming the test split's 'u' to 'test:u' would silently replace the train user of that name."""
    path = tmp_path / "dump.json"
    path.write_text(json.dumps({"train": {"u": [[1], [2]], "test:u": [[2], [3]]}, "test": {"u": [[3], [4]]}}))
    with pytest.raises(DataError, match="split 'test' repeats user 'u', and its merged name 'test:u' is another"):
        convert_json_dump(path)


def test_convert_table_treats_an_empty_cell_as_missing_and_counts_skipped_rows(tmp_path):
    """An empty item was the item "" and a row without the cell was dropped uncounted."""
    raw = tmp_path / "raw.csv"
    raw.write_text("user,order,item\nu,1,\nu,2,p\nu,3,q\nv,1\n,1,p\nw,,p\nw,1,p\nw,2,q\n\n")
    corpus, report, vocab_map = convert_table(raw, "user", "order", "item")
    assert vocab_map["items"] == ["p", "q"]
    assert [(u.user_id, u.sets) for u in corpus.users] == [("u", ((0,), (1,))), ("w", ((0,), (1,)))]
    assert report.rows_skipped == 4


@pytest.mark.parametrize(
    "text, message",
    [('{"u": [[1], [2]], "u": [[3], [4]]}', "user 'u' appears twice"),
     ('{"train": {"u": [[1], [2]]}, "test": {"w": [[1], [2]], "w": [[2], [1]]}}',
      "user 'w' appears twice in split 'test'"),
     ('{"train": {"u": [[1], [2]]}, "train": {"w": [[1], [2]]}}', "split 'train' appears twice")],
    ids=["flat", "in-a-split", "split"],
)
def test_convert_json_dump_refuses_a_repeated_key(tmp_path, text, message):
    """``json.load`` keeps the last of repeated keys, which silently dropped the earlier user."""
    path = tmp_path / "dump.json"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        convert_json_dump(path)


@pytest.mark.parametrize("item", [5.0, True, None, [1], {"a": 1}], ids=["float", "bool", "null", "list", "object"])
@pytest.mark.parametrize("split", [None, "test"])
def test_convert_json_dump_refuses_an_item_that_is_not_a_string_or_an_integer(tmp_path, item, split):
    """``str()`` made 5.0, True and None vocabulary entries beside 5."""
    users = {"u": [["a"], [5]], "v": [[5], [item, "a"]]}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(users if split is None else {"train": {"w": [[1], [2]]}, split: users}))
    owner = "user 'v'" if split is None else f"user 'v' in split '{split}'"
    with pytest.raises(DataError, match=re.escape(f"{owner} has the item {json.dumps(item)}, which is neither")):
        convert_json_dump(path)
