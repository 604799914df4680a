"""Every TrainConfig field has one train flag and replay key, every bench setting is a bench flag, and the
resume guard names only real fields."""

import json
from dataclasses import fields

from pietsp.cli import TRAIN_SETTINGS, build_parser, main
from pietsp.train import RESUME_MAY_CHANGE, TrainConfig


def test_train_settings_map_onto_every_trainconfig_field_once():
    assert sorted(TRAIN_SETTINGS.values()) == sorted(f.name for f in fields(TrainConfig))


def test_resume_may_change_names_only_trainconfig_fields():
    assert set(RESUME_MAY_CHANGE) <= {f.name for f in fields(TrainConfig)}


def test_every_bench_setting_is_a_bench_flag_that_takes_its_recorded_value(tmp_path):
    assert main(["bench", "--grid", "N=4", "--runs", "5", "--batch", "2", "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "effective-config.json").read_text())
    assert written.pop("command") == "bench" and written
    for key, value in written.items():
        args = build_parser().parse_args(["bench", f"--{key}={value}"])
        assert getattr(args, key) == value, key
