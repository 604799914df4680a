import json
from dataclasses import dataclass

import numpy as np
import pytest

import pietsp.cli
from oracle import oracle_checkpoint_bytes
from pietsp.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from pietsp.cli import TRAIN_SETTINGS, main
from pietsp.data import load_corpus, prepare_all
from pietsp.metrics import top_k
from pietsp.model import forward
from test_train import BAD_SETTING_ERRORS, BAD_SETTINGS


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synthetic_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "syn.json"
    code = run_cli(
        "gen-synthetic", "--pattern", "periodic", "--users", "30", "--vocab", "60",
        "--out", str(path), "--seed", "3",
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synthetic_file):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(
        "train", "--data", str(synthetic_file), "--out", str(out),
        "--seed", "7", "--epochs", "8", "--dim", "8", "--patience", "8",
    )
    assert code == 0
    return out


def test_gen_synthetic_writes_valid_corpus(synthetic_file):
    obj = json.loads(synthetic_file.read_text())
    assert obj["vocab_size"] == 60
    assert len(obj["users"]) == 30


def test_gen_synthetic_deterministic(tmp_path, synthetic_file):
    other = tmp_path / "again.json"
    run_cli("gen-synthetic", "--pattern", "periodic", "--users", "30", "--vocab", "60",
            "--out", str(other), "--seed", "3")
    assert other.read_bytes() == synthetic_file.read_bytes()


def test_train_writes_artifacts(trained):
    assert (trained / "checkpoint-best.json").exists()
    assert (trained / "checkpoint-latest.json").exists()
    assert (trained / "effective-config.json").exists()
    history = (trained / "history.jsonl").read_text().strip().splitlines()
    assert len(history) == 8
    first = json.loads(history[0])
    assert {"epoch", "lr", "train_loss"} <= first.keys()


def test_rerun_from_effective_config_bit_exact(tmp_path, trained, synthetic_file):
    out2 = tmp_path / "rerun"
    code = run_cli(
        "train", "--config", str(trained / "effective-config.json"),
        "--data", str(synthetic_file), "--out", str(out2),
    )
    assert code == 0
    assert (out2 / "checkpoint-best.json").read_bytes() == (trained / "checkpoint-best.json").read_bytes()


@pytest.mark.parametrize("extra",
                         [{"l2": 0.5}, {"decay_fusion": True}, {"l2": 0.0, "decay_fusion": False}, {"l2": 0.0}],
                         ids=["l2", "decay_fusion", "old-defaults", "seed-era-l2"])
def test_train_config_with_a_removed_setting(tmp_path, trained, synthetic_file, capsys, extra):
    """A --config that sets a removed setting is refused by name; one at the old defaults replays exactly
    (the first effective-config.json files wrote "l2": 0.0)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads((trained / "effective-config.json").read_text()) | extra))
    out = tmp_path / "rerun"
    code = run_cli("train", "--config", str(config), "--data", str(synthetic_file), "--out", str(out))
    err = capsys.readouterr().err
    if not any(extra.values()):
        assert code == 0
        assert (out / "checkpoint-best.json").read_bytes() == (trained / "checkpoint-best.json").read_bytes()
    else:
        (key,) = extra
        assert code == 1 and not out.exists()
        assert err.startswith(f"pietsp train: {config}: setting '{key}'") and err.count("\n") == 1


def test_resume_refuses_a_removed_setting_that_eval_and_predict_still_load(tmp_path, trained, synthetic_file, capsys):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("effective-config.json", "checkpoint-latest.json"):
        (run / name).write_bytes((trained / name).read_bytes())
    ck = load_checkpoint(run / "checkpoint-latest.json")
    ckpt = run / "checkpoint-latest.json"
    save_checkpoint(ckpt, ck.params, seed=ck.seed, config=ck.config | {"l2_coeff": 0.5},
                    opt_state=ck.opt_state, train_state=ck.train_state)
    code = run_cli("train", "--config", str(run / "effective-config.json"), "--data", str(synthetic_file),
                   "--out", str(run), "--resume")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"pietsp train: {ckpt}: setting 'l2_coeff' = 0.5 was removed")
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(synthetic_file)) == 0
    assert run_cli("predict", "--ckpt", str(ckpt), "--data", str(synthetic_file), "--top", "3") == 0


@pytest.mark.parametrize("refusal", ["changed-setting", "removed-setting"])
def test_refused_resume_leaves_the_effective_config_as_it_was(tmp_path, synthetic_file, capsys, refusal):
    run = tmp_path / "run"
    flags = ("--data", str(synthetic_file), "--out", str(run), "--epochs", "3", "--patience", "3", "--dim", "8")
    assert run_cli("train", *flags) == 0
    ckpt = run / "checkpoint-latest.json"
    if refusal == "removed-setting":
        ck = load_checkpoint(ckpt)
        save_checkpoint(ckpt, ck.params, seed=ck.seed, config=ck.config | {"l2_coeff": 0.5},
                        opt_state=ck.opt_state, train_state=ck.train_state)
    before = (run / "effective-config.json").read_bytes()
    capsys.readouterr()
    assert run_cli("train", *flags, "--lr", "0.5", "--resume") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pietsp train: {ckpt}: ") and err.count("\n") == 1
    assert ("['base_lr']" if refusal == "changed-setting" else "'l2_coeff' = 0.5 was removed") in err
    assert (run / "effective-config.json").read_bytes() == before


def test_resume_on_a_corpus_with_another_vocabulary_is_refused(tmp_path, synthetic_file, capsys):
    run = tmp_path / "run"
    flags = ("--out", str(run), "--epochs", "3", "--patience", "3", "--dim", "8")
    assert run_cli("train", "--data", str(synthetic_file), *flags) == 0
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(json.loads(synthetic_file.read_text()) | {"vocab_size": 75}))
    before = (run / "effective-config.json").read_bytes()
    capsys.readouterr()
    assert run_cli("train", "--data", str(wider), *flags, "--resume") == 1
    assert capsys.readouterr().err == (f"pietsp train: {run / 'checkpoint-latest.json'}: checkpoint was trained on"
                                       f" vocab_size 60, but the corpus has vocab_size 75\n")
    assert (run / "effective-config.json").read_bytes() == before


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_a_split_of_a_checkpoint_without_a_config_is_refused(tmp_path, trained, synthetic_file, capsys, command,
                                                             split):
    """The split depends on the run's seed and ratios: a checkpoint that records no config cannot give it."""
    ckpt = tmp_path / "bare.json"
    save_checkpoint(ckpt, load_checkpoint(trained / "checkpoint-best.json").params)
    capsys.readouterr()
    assert run_cli(command, "--ckpt", str(ckpt), "--data", str(synthetic_file), "--split", split) == 1
    assert capsys.readouterr().err == (f"pietsp {command}: {ckpt} records no training config, so its '{split}'"
                                       f" split is unknown; use --split all\n")
    assert run_cli(command, "--ckpt", str(ckpt), "--data", str(synthetic_file), "--split", "all") == 0


def test_resume_with_other_split_ratios_is_refused(tmp_path, synthetic_file, capsys):
    run = tmp_path / "run"
    flags = ("--data", str(synthetic_file), "--out", str(run), "--epochs", "3", "--patience", "3", "--dim", "8")
    assert run_cli("train", *flags, "--split-ratios", "0.7,0.1,0.2") == 0
    before = (run / "effective-config.json").read_bytes()
    capsys.readouterr()
    assert run_cli("train", *flags, "--split-ratios", "0.5,0.3,0.2", "--resume") == 1
    err = capsys.readouterr().err
    assert err == f"pietsp train: {run / 'checkpoint-latest.json'}: checkpoint was trained with different settings:" \
                  f" ['split_ratios']\n"
    assert (run / "effective-config.json").read_bytes() == before


@pytest.mark.parametrize("field,value", BAD_SETTINGS, ids=[f"{f}={v!r}" for f, v in BAD_SETTINGS])
def test_train_config_value_of_the_wrong_type_is_one_line(tmp_path, synthetic_file, capsys, field, value):
    (key,) = [key for key, name in TRAIN_SETTINGS.items() if name == field]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(config), "--data", str(synthetic_file), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pietsp train: {BAD_SETTING_ERRORS[field]} ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [True, 3.5, 0, ["syn.json"]], ids=repr)
def test_train_config_data_that_is_not_a_string_is_one_line(tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": value}))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(config), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"pietsp train: data must be a string, got {value!r}\n"
    assert not out.exists()


BAD_BENCH_SETTINGS = [
    ({"batch": "3"}, "batch must be an integer, got '3'"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"runs": 4.5}, "runs must be an integer, got 4.5"),
    ({"runs": True}, "runs must be an integer, got True"),
    ({"dtype": "float16"}, "dtype must be float32 or float64, got 'float16'"),
    ({"grid": 5}, "grid must be a string, got 5"),
    ({"data": 5}, "data must be a string or null, got 5"),
    ({"ckpt": ["c.json"]}, "ckpt must be a string or null, got ['c.json']"),
]


@pytest.mark.parametrize("setting,error", BAD_BENCH_SETTINGS, ids=[json.dumps(s) for s, _ in BAD_BENCH_SETTINGS])
def test_bench_config_value_of_the_wrong_type_is_one_line(tmp_path, capsys, setting, error):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"runs": 5, "batch": 2, "grid": "N=4"} | setting))
    out = tmp_path / "run"
    assert run_cli("bench", "--config", str(config), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"pietsp bench: {error}\n"
    assert not out.exists()


# integers the bench cannot use: a batch with no request to time, a seed numpy refuses
BENCH_OUT_OF_RANGE = [("batch", 0, "batch must be at least 1, got 0"), ("batch", -3, "batch must be at least 1, got -3"),
                      ("seed", -1, "seed must be non-negative, got -1")]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key,value,error", BENCH_OUT_OF_RANGE, ids=[f"{k}={v}" for k, v, _ in BENCH_OUT_OF_RANGE])
def test_bench_batch_below_one_or_a_negative_seed_is_one_line(tmp_path, capsys, via, key, value, error):
    out = tmp_path / "run"
    if via == "flag":
        args = ("--runs", "6", "--grid", "N=4", f"--{key}", str(value))
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"runs": 6, "grid": "N=4", key: value}))
        args = ("--config", str(config))
    assert run_cli("bench", *args, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"pietsp bench: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_with_a_negative_seed_is_one_line_naming_it(tmp_path, synthetic_file, capsys, via):
    out = tmp_path / "run"
    if via == "flag":
        args = ("--seed", "-1")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        args = ("--config", str(config))
    assert run_cli("train", *args, "--data", str(synthetic_file), "--out", str(out)) == 1
    assert capsys.readouterr().err == "pietsp train: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_train_with_a_nan_split_ratio_is_one_line_naming_the_ratios(tmp_path, synthetic_file, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--data", str(synthetic_file), "--out", str(out), "--split-ratios", "nan,0.5,0.5") == 1
    assert capsys.readouterr().err == "pietsp train: ratios must be three positive numbers, got (nan, 0.5, 0.5)\n"
    assert not out.exists()


def test_gen_synthetic_with_a_negative_seed_is_one_line_naming_it(tmp_path, capsys):
    out = tmp_path / "syn.json"
    assert run_cli("gen-synthetic", "--pattern", "periodic", "--users", "5", "--vocab", "30", "--seed", "-2",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == "pietsp gen-synthetic: seed must be non-negative, got -2\n"
    assert not out.exists()


def test_patience_above_epochs_names_both_values_and_the_flag(tmp_path, synthetic_file, capsys):
    code = run_cli("train", "--data", str(synthetic_file), "--out", str(tmp_path / "run"), "--epochs", "3")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("pietsp train: patience must lie in [1, max_epochs], got patience 10 with max_epochs 3")
    assert "--patience" in err and err.count("\n") == 1


def test_eval_prints_table(trained, synthetic_file, capsys):
    code = run_cli("eval", "--ckpt", str(trained / "checkpoint-best.json"),
                   "--data", str(synthetic_file), "--split", "test")
    assert code == 0
    out = capsys.readouterr().out
    assert "Recall" in out and "@10" in out and "@40" in out


def test_eval_writes_metrics_json(tmp_path, trained, synthetic_file):
    out = tmp_path / "evalrun"
    code = run_cli("eval", "--ckpt", str(trained / "checkpoint-best.json"),
                   "--data", str(synthetic_file), "--split", "test", "--out", str(out))
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "recall" in metrics and "10" in metrics["recall"]


def test_predict_emits_jsonl(tmp_path, trained, synthetic_file):
    out = tmp_path / "preds.jsonl"
    code = run_cli("predict", "--ckpt", str(trained / "checkpoint-best.json"),
                   "--data", str(synthetic_file), "--split", "test", "--top", "5",
                   "--out", str(out))
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 6  # 20% of 30 users
    for record in lines:
        assert len(record["items"]) == 5
        assert len(set(record["items"])) == 5


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_predict_with_no_users_writes_nothing(tmp_path, trained, capsys, to_file):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vocab_size": 60, "users": []}))
    out = tmp_path / "preds.jsonl"
    assert run_cli("predict", "--ckpt", str(trained / "checkpoint-best.json"), "--data", str(empty),
                   "--split", "all", *(["--out", str(out)] if to_file else [])) == 0
    assert capsys.readouterr().out == ""
    assert not to_file or out.read_bytes() == b""


def _per_user_predictions(ckpt, data, top):
    """The JSONL of ranking each user's own forward pass with ``top_k``, one user at a time."""
    params = load_checkpoint(ckpt).params
    corpus, _ = load_corpus(data)
    lines = []
    for sample in prepare_all(corpus, params.k_max):
        ids = top_k(forward(sample, params).logits, top)
        lines.append(json.dumps({"user_id": sample.user_id, "items": [int(i) for i in ids]}))
    return "\n".join(lines) + "\n"


def test_predict_matches_the_per_user_loop(tmp_path, trained, synthetic_file):
    many = tmp_path / "many.json"  # 150 users: three engine calls of at most 64
    assert run_cli("gen-synthetic", "--pattern", "repeat-biased", "--users", "150", "--vocab", "60",
                   "--out", str(many), "--seed", "5") == 0
    ckpt = trained / "checkpoint-best.json"
    for data in (synthetic_file, many):
        for top in (5, 60, 75):  # 75 > |E|: every item, ranked
            out = tmp_path / f"{data.stem}-{top}.jsonl"
            assert run_cli("predict", "--ckpt", str(ckpt), "--data", str(data), "--split", "all",
                           "--top", str(top), "--out", str(out)) == 0
            assert out.read_text() == _per_user_predictions(ckpt, data, top)


def test_bench_grid_prints_reports(tmp_path, capsys):
    out = tmp_path / "benchrun"
    code = run_cli("bench", "--grid", "N=8,16", "--runs", "5", "--batch", "4",
                   "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("N=") >= 2
    reports = json.loads((out / "bench.json").read_text())
    assert len(reports) == 2
    assert (out / "effective-config.json").exists()


def test_bench_replays_its_effective_config(tmp_path):
    first, second = tmp_path / "A", tmp_path / "B"
    assert run_cli("bench", "--grid", "N=4", "--runs", "5", "--batch", "2", "--out", str(first)) == 0
    assert run_cli("bench", "--config", str(first / "effective-config.json"), "--out", str(second)) == 0
    assert (second / "effective-config.json").read_bytes() == (first / "effective-config.json").read_bytes()


def test_bench_replays_a_config_written_without_data_and_ckpt(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "bench", "grid": "N=4", "runs": 5, "batch": 2, "seed": 0,
                                  "dtype": "float64"}))
    assert run_cli("bench", "--config", str(config), "--out", str(tmp_path / "run")) == 0
    written = json.loads((tmp_path / "run" / "effective-config.json").read_text())
    assert written == json.loads(config.read_text()) | {"data": None, "ckpt": None}


def test_bench_on_a_corpus_replays_its_effective_config(tmp_path, trained, synthetic_file, capsys):
    first, second = tmp_path / "A", tmp_path / "B"
    assert run_cli("bench", "--data", str(synthetic_file), "--ckpt", str(trained / "checkpoint-best.json"),
                   "--runs", "5", "--batch", "3", "--out", str(first)) == 0
    capsys.readouterr()
    assert run_cli("bench", "--config", str(first / "effective-config.json"), "--out", str(second)) == 0
    assert (second / "effective-config.json").read_bytes() == (first / "effective-config.json").read_bytes()
    users = len(load_corpus(synthetic_file)[0].users)
    [row] = capsys.readouterr().out.splitlines()[1:]
    assert row.startswith(f"syn.json (3 of {users} users) ")
    [report] = json.loads((second / "bench.json").read_text())
    assert report["batch_size"] == 3 and report["vocab_size"] == 60


def test_bench_records_grid_and_seed_only_for_a_grid_run(tmp_path, trained, synthetic_file):
    grid_run, corpus_run = tmp_path / "grid", tmp_path / "corpus"
    assert run_cli("bench", "--grid", "N=4", "--runs", "5", "--batch", "2", "--seed", "3", "--out", str(grid_run)) == 0
    assert run_cli("bench", "--data", str(synthetic_file), "--ckpt", str(trained / "checkpoint-best.json"),
                   "--runs", "5", "--batch", "2", "--out", str(corpus_run)) == 0
    recorded = json.loads((grid_run / "effective-config.json").read_text())
    assert recorded["grid"] == "N=4" and recorded["seed"] == 3
    assert set(json.loads((corpus_run / "effective-config.json").read_text())) == {
        "command", "runs", "batch", "dtype", "data", "ckpt"}


def test_bench_on_a_corpus_without_users_is_one_line(tmp_path, trained, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vocab_size": 60, "users": []}))
    out = tmp_path / "run"
    assert run_cli("bench", "--data", str(empty), "--ckpt", str(trained / "checkpoint-best.json"),
                   "--runs", "5", "--batch", "3", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"pietsp bench: {empty} has no users to time\n"
    assert not out.exists()


def test_bench_on_corpus_with_checkpoint(trained, synthetic_file, capsys):
    code = run_cli("bench", "--data", str(synthetic_file), "--ckpt",
                   str(trained / "checkpoint-best.json"), "--runs", "5", "--batch", "4")
    assert code == 0
    assert "samples/sec" in capsys.readouterr().out


def test_convert_csv_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,order,item\nu1,1,a\nu1,2,b\nu2,1,b\nu2,2,c\n")
    out = tmp_path / "corpus.json"
    code = run_cli("convert", "--input", str(raw), "--out", str(out))
    assert code == 0
    corpus = json.loads(out.read_text())
    assert corpus["vocab_size"] == 3
    vocab = json.loads((tmp_path / "vocab.json").read_text())
    assert vocab["items"] == ["a", "b", "c"]


@pytest.mark.parametrize("delimiter", [";;", ""], ids=["two", "empty"])
def test_convert_with_a_delimiter_that_is_not_one_character_is_one_line(tmp_path, capsys, delimiter):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,order,item\nu1,1,a\nu1,2,b\n")
    out = tmp_path / "corpus.json"
    assert run_cli("convert", "--input", str(raw), "--out", str(out), "--delimiter", delimiter) == 1
    assert capsys.readouterr().err == f"pietsp convert: delimiter {delimiter!r} is not one character\n"
    assert not out.exists()


def test_convert_reads_a_json_dump_by_its_suffix(tmp_path, capsys):
    raw = tmp_path / "dump.json"
    raw.write_text(json.dumps({"u1": [["a"], ["b", "a"]], "u2": [["c"], ["a"]]}))
    out = tmp_path / "corpus.json"
    assert run_cli("convert", "--input", str(raw), "--out", str(out)) == 0
    assert "converted 2 users, vocabulary 3" in capsys.readouterr().out
    assert json.loads(out.read_text()) == {"vocab_size": 3, "users": [{"user_id": "u1", "sets": [[0], [0, 1]]},
                                                                      {"user_id": "u2", "sets": [[2], [0]]}]}
    assert json.loads((tmp_path / "vocab.json").read_text()) == {"items": ["a", "b", "c"]}


def test_convert_prints_the_skipped_rows(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,order,item\nu,1,p\nu,2,\nu,2,q\nu,3\n")
    assert run_cli("convert", "--input", str(raw), "--out", str(tmp_path / "corpus.json")) == 0
    assert "2 rows skipped" in capsys.readouterr().out


def test_missing_data_file_is_single_line_error(tmp_path, capsys):
    code = run_cli("eval", "--ckpt", str(tmp_path / "nope.json"), "--data", str(tmp_path / "x.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # one diagnostic line


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required --out
    assert exc.value.code == 2


def test_variant_flag_trains(tmp_path, synthetic_file):
    out = tmp_path / "noee"
    code = run_cli("train", "--data", str(synthetic_file), "--out", str(out),
                   "--seed", "7", "--epochs", "2", "--dim", "8", "--patience", "2",
                   "--variant", "no-ee")
    assert code == 0
    assert load_checkpoint(out / "checkpoint-best.json").config["variant"] == "no-ee"


@pytest.fixture(scope="module")
def other_vocab_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "vocab50.json"
    code = run_cli(
        "gen-synthetic", "--pattern", "periodic", "--users", "30", "--vocab", "50",
        "--out", str(path), "--seed", "3",
    )
    assert code == 0
    return path


@pytest.mark.parametrize("command", [["eval"], ["predict"], ["bench", "--runs", "5", "--batch", "4"]],
                         ids=lambda c: c[0])
def test_vocabulary_mismatch_fails_loudly(trained, other_vocab_file, capsys, command):
    code = run_cli(command[0], "--ckpt", str(trained / "checkpoint-best.json"),
                   "--data", str(other_vocab_file), *command[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().count("\n") == 0 and "vocab_size 50" in captured.err


def test_predict_top_zero_is_an_error(trained, synthetic_file, capsys):
    code = run_cli("predict", "--ckpt", str(trained / "checkpoint-best.json"),
                   "--data", str(synthetic_file), "--top", "0")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "pietsp predict: --top must be at least 1, got 0\n"


@pytest.mark.parametrize("argv, error", [
    (["predict", "--top", "0"], "pietsp predict: --top must be at least 1, got 0"),
    (["predict", "--top", "-2"], "pietsp predict: --top must be at least 1, got -2"),
    (["eval", "--k", "0"], "pietsp eval: k_list must be non-empty and its entries integers of at least 1: got (0,)"),
    (["eval", "--k", "10,-1,20"],
     "pietsp eval: k_list must be non-empty and its entries integers of at least 1: got (10, -1, 20)"),
], ids=["top-0", "top-negative", "k-0", "k-list"])
def test_a_rank_count_below_one_is_refused_before_anything_loads(tmp_path, capsys, argv, error):
    # neither file exists: a refusal that came after a load would name the missing file instead
    code = run_cli(*argv, "--ckpt", str(tmp_path / "missing.ckpt"), "--data", str(tmp_path / "missing.json"))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == error + "\n"


@pytest.mark.parametrize("argv, error", [
    (["eval", "--k", "10,10", "--ckpt", "{missing}", "--data", "{missing}"],
     "pietsp eval: evaluate: k_list repeats k = 10; give each k once"),
    (["train", "--split-ratios", "0.5,0.5,0.5", "--data", "{missing}", "--out", "{out}"],
     "pietsp train: ratios must sum to 1, got 1.5"),
    (["train", "--split-ratios", "0.5,-0.5,1", "--data", "{missing}", "--out", "{out}"],
     "pietsp train: ratios must be three positive numbers, got (0.5, -0.5, 1.0)"),
    (["bench", "--runs", "3", "--data", "{missing}", "--ckpt", "{missing}", "--out", "{out}"],
     "pietsp bench: runs=3 must exceed warmup=3"),
], ids=["eval-repeated-k", "train-ratio-sum", "train-ratio-sign", "bench-runs"])
def test_a_bad_setting_is_refused_before_any_file_is_read(tmp_path, capsys, argv, error):
    # no named file exists: a refusal that came after a read would name the missing file instead
    paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "out")}
    code = run_cli(*(arg.format(**paths) for arg in argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not (tmp_path / "out").exists()
    assert captured.err == error + "\n"


@pytest.mark.parametrize("argv, code, error", [
    (["eval", "--k", "10,,20", "--ckpt", "{missing}", "--data", "{missing}"], 2,
     "pietsp eval: error: argument --k: invalid _int_list value: '10,,20'"),
    (["train", "--k", "10,20,", "--data", "{missing}", "--out", "{out}"], 2,
     "pietsp train: error: argument --k: invalid _int_list value: '10,20,'"),
    (["train", "--split-ratios", "0.7,,0.1,0.2", "--data", "{missing}", "--out", "{out}"], 2,
     "pietsp train: error: argument --split-ratios: invalid _float_list value: '0.7,,0.1,0.2'"),
    (["bench", "--grid", "N=4,,8", "--runs", "5", "--batch", "4", "--out", "{out}"], 1,
     "pietsp bench: grid axis 'N' takes integers, got '4,,8'"),
], ids=["eval-k", "train-k", "train-split-ratios", "bench-grid"])
def test_an_empty_item_of_a_list_flag_is_refused_before_any_file_is_read(tmp_path, capsys, argv, code, error):
    """Dropped, the empty item let "--k 10,,20" run as @10 @20 and "--split-ratios 0.7,,0.1,0.2" as three ratios."""
    paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "out")}
    try:
        got = run_cli(*(arg.format(**paths) for arg in argv))
    except SystemExit as exc:  # argparse's usage error
        got = exc.code
    captured = capsys.readouterr()
    assert got == code and captured.out == "" and not (tmp_path / "out").exists()
    assert captured.err.splitlines()[-1] == error


def test_eval_and_predict_read_a_recorded_repeated_k_once(tmp_path, trained, synthetic_file, capsys):
    """A checkpoint written when ``train --k 10,20,10`` was accepted still evaluates, each k once."""
    ck = load_checkpoint(trained / "checkpoint-best.json")
    ckpt = tmp_path / "repeats.json"
    save_checkpoint(ckpt, ck.params, seed=ck.seed, config=ck.config | {"k_list": [10, 20, 10]})
    capsys.readouterr()
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(synthetic_file)) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["@10", "@20"]
    assert run_cli("predict", "--ckpt", str(ckpt), "--data", str(synthetic_file), "--top", "3") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_repeated_k_is_refused_before_any_file_is_written(tmp_path, trained, synthetic_file, capsys, command):
    out = tmp_path / "out"
    source = ("--ckpt", str(trained / "checkpoint-best.json")) if command == "eval" else ()
    code = run_cli(command, *source, "--data", str(synthetic_file), "--k", "10,20,10", "--out", str(out))
    captured = capsys.readouterr()
    where = "TrainConfig" if command == "train" else "evaluate"
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == f"pietsp {command}: {where}: k_list repeats k = 10; give each k once\n"


def test_train_defaults_come_from_trainconfig(tmp_path, synthetic_file, monkeypatch):
    @dataclass
    class Quick(pietsp.cli.TrainConfig):
        max_epochs: int = 3
        patience: int = 2
        dim: int = 4
        batch_size: int = 16
        base_lr: float = 0.002

    monkeypatch.setattr(pietsp.cli, "TrainConfig", Quick)
    out = tmp_path / "defaults"
    assert run_cli("train", "--data", str(synthetic_file), "--out", str(out)) == 0
    written = json.loads((out / "effective-config.json").read_text())
    expected = Quick().to_dict()
    # effective-config.json key -> TrainConfig field; the key names stay so old --config files replay
    keys = {"seed": "seed", "epochs": "max_epochs", "batch_size": "batch_size", "dim": "dim",
            "lr": "base_lr", "weight_decay": "weight_decay", "patience": "patience",
            "k": "k_list", "variant": "variant", "split_ratios": "split_ratios"}
    assert {key: written[key] for key in keys} == {key: expected[field] for key, field in keys.items()}
    assert len((out / "history.jsonl").read_text().splitlines()) == 3


@pytest.mark.parametrize("fmt", [1, 2], ids=["v1", "v2"])
def test_inspect_prints_header_shapes_and_norms(tmp_path, trained, capsys, fmt):
    ck = load_checkpoint(trained / "checkpoint-latest.json")
    path = tmp_path / "ck.json"
    if fmt == 1:
        path.write_bytes(oracle_checkpoint_bytes(ck.params, seed=ck.seed, config=ck.config,
                                                 opt_state=ck.opt_state, train_state=ck.train_state))
    else:
        path.write_bytes((trained / "checkpoint-latest.json").read_bytes())
        assert path.read_bytes().startswith(MAGIC)
    assert run_cli("inspect", "--ckpt", str(path)) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["format_version"] == fmt
    assert header["config"] == ck.config and header["seed"] == 7
    assert header["trainer"]["history"] == ck.train_state["history"]
    assert header["optimizer"]["step"] == ck.opt_state.step
    tables = {"params": (header["params"], ck.params),
              "m": (header["optimizer"]["m"], ck.opt_state.m),
              "v": (header["optimizer"]["v"], ck.opt_state.v),
              "best_params": (header["trainer"]["best_params"], ck.train_state["best_params"])}
    for table, (shown, params) in tables.items():
        assert shown == {name: {"shape": list(arr.shape), "l2_norm": float(np.linalg.norm(arr))}
                         for name, arr in params.slots()}, table


@pytest.mark.parametrize("content", [b"", b"{not json", MAGIC + b'{"kind": "pietsp-checkpoint"}', None],
                         ids=["empty", "not-json", "no-terminator", "directory"])
def test_inspect_bad_file_is_single_line_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert run_cli("inspect", "--ckpt", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pietsp inspect: ") and captured.err.strip().count("\n") == 0


@pytest.mark.parametrize("command", ["eval", "train", "config"])
def test_a_directory_for_a_file_is_a_single_line_error(tmp_path, trained, synthetic_file, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "eval": ["eval", "--ckpt", str(trained / "checkpoint-best.json"), "--data", str(folder)],
        "train": ["train", "--data", str(folder), "--out", str(tmp_path / "run")],
        "config": ["train", "--config", str(folder), "--data", str(synthetic_file), "--out", str(tmp_path / "run")],
    }[command]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "run").exists()
    assert captured.err.startswith(f"pietsp {argv[0]}: ") and str(folder) in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "bench"])
def test_config_key_that_no_setting_reads_is_refused_by_name(tmp_path, synthetic_file, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epoch": 1, "dim": 8, "patience": 1} if command == "train" else {"run": 5}))
    out = tmp_path / "run"
    assert run_cli(command, "--config", str(config), "--data", str(synthetic_file), "--out", str(out),
                   *(["--ckpt", str(config)] if command == "bench" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pietsp {command}: {config}: unknown setting ") and err.count("\n") == 1
    assert ("'epoch'" if command == "train" else "'run'") in err
    assert not out.exists()


# an input file that does not decode: its flag, its name, its bytes, and the start of the error after its path
UNDECODABLE = [
    ("train", "--data", "corpus.json", b'{"vocab_size": \xff}', "not valid JSON ('utf-8' codec can't decode byte 0xff"),
    ("train", "--config", "config.json", b"", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    ("convert", "--input", "dump.json", b"{oops", "not valid JSON (Expecting property name"),
    ("convert", "--input", "table.csv", b"user,order,item\nu\xff,1,2\n", "not UTF-8 text ('utf-8' codec can't decode"),
]


@pytest.mark.parametrize("command, flag, name, raw, error", UNDECODABLE, ids=[u[2] for u in UNDECODABLE])
def test_an_input_file_that_does_not_decode_is_one_line_naming_it(tmp_path, synthetic_file, capsys,
                                                                  command, flag, name, raw, error):
    path = tmp_path / name
    path.write_bytes(raw)
    out = tmp_path / "out"
    args = {"--data": str(synthetic_file)} if command == "train" else {}
    args |= {flag: str(path), "--out": str(out)}
    assert run_cli(command, *[tok for pair in args.items() for tok in pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pietsp {command}: {path}: {error}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_a_config_that_is_not_an_object_is_one_line(tmp_path, synthetic_file, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([["dim", 8]]))
    out = tmp_path / "run"
    assert run_cli(command, "--config", str(config), "--data", str(synthetic_file), "--out", str(out),
                   *(["--ckpt", str(config)] if command == "bench" else [])) == 1
    assert capsys.readouterr().err == f"pietsp {command}: {config}: settings must be a JSON object\n"
    assert not out.exists()


def test_train_without_data_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out)) == 2
    assert capsys.readouterr().err == "train: --data is required\n"
    assert not out.exists()


def test_train_prints_what_the_load_dropped(tmp_path, synthetic_file, capsys):
    raw = json.loads(synthetic_file.read_text())
    raw["users"][0]["sets"][0] += raw["users"][0]["sets"][0][:1]  # one duplicate id
    raw["users"][1]["sets"].insert(1, [])  # one empty set
    raw["users"].append({"user_id": "one-set", "sets": [[0, 1]]})  # one user without history
    data = tmp_path / "dropped.json"
    data.write_text(json.dumps(raw))
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "run"),
                   "--epochs", "1", "--patience", "1", "--dim", "4") == 0
    assert capsys.readouterr().out.startswith("load: kept 30 users (dropped 1 users, 1 empty sets, 1 duplicate ids)\n")


@pytest.mark.parametrize("saved", [10, 5])
def test_resume_accepts_early_stop_k_only_at_ten(tmp_path, trained, synthetic_file, capsys, saved):
    run = tmp_path / "run"
    run.mkdir()
    (run / "effective-config.json").write_bytes((trained / "effective-config.json").read_bytes())
    ck = load_checkpoint(trained / "checkpoint-latest.json")
    ckpt = run / "checkpoint-latest.json"
    save_checkpoint(ckpt, ck.params, seed=ck.seed, config=ck.config | {"early_stop_k": saved},
                    opt_state=ck.opt_state, train_state=ck.train_state)
    code = run_cli("train", "--config", str(run / "effective-config.json"), "--data", str(synthetic_file),
                   "--out", str(run), "--resume")
    if saved == 10:
        assert code == 0
        assert (run / "checkpoint-best.json").read_bytes() == (trained / "checkpoint-best.json").read_bytes()
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith(f"pietsp train: {ckpt}: setting 'early_stop_k' = 5 was removed")
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(synthetic_file)) == 0


@pytest.mark.parametrize("given", ["--data", "--ckpt"])
def test_bench_data_and_ckpt_come_as_a_pair(trained, synthetic_file, capsys, given):
    path = synthetic_file if given == "--data" else trained / "checkpoint-best.json"
    assert run_cli("bench", given, str(path), "--runs", "5", "--batch", "4") == 2
    captured = capsys.readouterr()
    missing = "--ckpt" if given == "--data" else "--data"
    assert captured.out == "" and captured.err == f"bench: {given} needs {missing}\n"


@pytest.mark.parametrize("given", ["data", "ckpt"])
def test_bench_data_and_ckpt_from_a_config_come_as_a_pair(tmp_path, capsys, given):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"runs": 5, "batch": 2, given: str(tmp_path / "missing.json")}))
    assert run_cli("bench", "--config", str(config)) == 2
    captured = capsys.readouterr()
    missing = "ckpt" if given == "data" else "data"
    assert captured.out == "" and captured.err == f"bench: --{given} needs --{missing}\n"


def test_bench_grid_axis_without_values_is_an_error(capsys):
    assert run_cli("bench", "--grid", "N=", "--runs", "5", "--batch", "4") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "pietsp bench: grid axis 'N' has no values\n"


@pytest.mark.parametrize("grid, error", [("N=4 K", "bad grid clause 'K' (expected KEY=v1,v2,...)"),
                                         ("N=4;B=2", "unknown grid key 'B' (N, K, E, D)")],
                         ids=["no-equals", "unknown-key"])
def test_bench_grid_clause_it_cannot_read_is_one_line(capsys, grid, error):
    assert run_cli("bench", "--grid", grid, "--runs", "5", "--batch", "4") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"pietsp bench: {error}\n"


# grid values the bench cannot time, each refused by its axis before any case is built
UNTIMEABLE_GRIDS = [("N=4,x", "grid axis 'N' takes integers, got '4,x'"),
                    ("K=2.5", "grid axis 'K' takes integers, got '2.5'"),
                    ("N=-3", "grid axis 'N' must be at least 1, got -3"),
                    ("N=4 D=8,0", "grid axis 'D' must be at least 1, got 0"),
                    ("N=4 n=9", "grid axis 'N' is given twice")]


@pytest.mark.parametrize("grid, error", UNTIMEABLE_GRIDS, ids=[g for g, _ in UNTIMEABLE_GRIDS])
def test_bench_grid_value_it_cannot_time_is_one_line_naming_the_axis(capsys, grid, error):
    assert run_cli("bench", "--grid", grid, "--runs", "5", "--batch", "4") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"pietsp bench: {error}\n"


def test_bench_grid_shapes_take_turns(monkeypatch, capsys):
    import pietsp.bench

    seen = []
    real_forward = pietsp.bench.forward

    def recording_forward(sample, params, variant="full"):
        seen.append((sample.n_elements, params.dim))
        return real_forward(sample, params, variant)

    monkeypatch.setattr(pietsp.bench, "forward", recording_forward)
    assert run_cli("bench", "--grid", "N=4,6 D=4,8", "--runs", "4", "--batch", "1") == 0
    # one forward per timed batch; the four shapes take turns, run by run, in the table's order
    assert seen == [(4, 4), (4, 8), (6, 4), (6, 8)] * 4
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:4] for row in rows] == [["N=4", "K=8", "E=1024", "D=4"], ["N=4", "K=8", "E=1024", "D=8"],
                                                 ["N=6", "K=8", "E=1024", "D=4"], ["N=6", "K=8", "E=1024", "D=8"]]
