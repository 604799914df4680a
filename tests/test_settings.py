"""Every TrainConfig field has one train flag and replay key, and the resume guard names only real fields."""

from dataclasses import fields

from pietsp.cli import TRAIN_SETTINGS
from pietsp.train import RESUME_MAY_CHANGE, TrainConfig


def test_train_settings_map_onto_every_trainconfig_field_once():
    assert sorted(TRAIN_SETTINGS.values()) == sorted(f.name for f in fields(TrainConfig))


def test_resume_may_change_names_only_trainconfig_fields():
    assert set(RESUME_MAY_CHANGE) <= {f.name for f in fields(TrainConfig)}
