"""Every TrainConfig field has one train flag and replay key, every bench setting is a bench flag, and the
resume guard names only real fields."""

import json
from dataclasses import fields

from pietsp.checkpoint import save_checkpoint
from pietsp.cli import TRAIN_SETTINGS, build_parser, main
from pietsp.data import SyntheticSpec, gen_synthetic, save_corpus
from pietsp.model import init_params
from pietsp.train import RESUME_MAY_CHANGE, TrainConfig


def test_train_settings_map_onto_every_trainconfig_field_once():
    assert sorted(TRAIN_SETTINGS.values()) == sorted(f.name for f in fields(TrainConfig))


def test_resume_may_change_names_only_trainconfig_fields():
    assert set(RESUME_MAY_CHANGE) <= {f.name for f in fields(TrainConfig)}


def test_every_bench_setting_is_a_bench_flag_that_takes_its_recorded_value(tmp_path):
    corpus, ckpt = tmp_path / "corpus.json", tmp_path / "ckpt.json"
    save_corpus(gen_synthetic(SyntheticSpec(users=4, vocab_size=20, pattern="periodic")), corpus)
    save_checkpoint(ckpt, init_params(20, 4, 8, seed=0))
    for mode, argv in [("grid", ["--grid", "N=4"]), ("corpus", ["--data", str(corpus), "--ckpt", str(ckpt)])]:
        out = tmp_path / mode
        assert main(["bench", *argv, "--runs", "5", "--batch", "2", "--out", str(out)]) == 0
        written = json.loads((out / "effective-config.json").read_text())
        assert written.pop("command") == "bench" and written
        for key, value in written.items():
            # a null setting is the flag left out
            args = build_parser().parse_args(["bench"] if value is None else ["bench", f"--{key}={value}"])
            assert getattr(args, key) == value, (mode, key)
