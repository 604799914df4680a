import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pietsp
from pietsp import heap
from pietsp.heap import keep_freed_heap

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def _minor_faults_of(work) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    work()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc malloc's")
def test_freed_engine_sized_arrays_are_reused_without_page_faults():
    # An engine call's shape: several mid-sized arrays, all freed together.  With glibc's
    # default thresholds each round hands them back to the OS and faults them in again
    # (~1,000 faults a round, 19,840 for these 20 rounds in a fresh process).
    def rounds():
        for _ in range(20):
            blocks = [np.ones(1 << 16) for _ in range(8)]  # 8 x 512 KiB
            del blocks

    assert keep_freed_heap()
    rounds()  # the first round may grow the heap
    assert _minor_faults_of(rounds) < 100


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc malloc's")
def test_checkpoint_loads_in_a_fresh_process_reuse_their_tables_without_page_faults(tmp_path):
    # A process that loads before any engine call (eval, predict, inspect): each load of a full
    # state at |E| = 12,000 mapped its four 3 MB tables afresh, ~3,200 faults a load, unless the
    # thresholds were set where the tables are allocated.
    script = """
import resource, sys
from pietsp.checkpoint import load_checkpoint, save_checkpoint
from pietsp.model import init_params
from pietsp.optim import AdamState

params = init_params(12000, 32, 4, seed=0)
opt = AdamState.init(params)
train_state = {"epoch": 0, "best_metric": 0.0, "best_epoch": 0, "bad_epochs": 0, "history": [],
               "best_params": params.copy()}
save_checkpoint(sys.argv[1], params, seed=0, config={}, opt_state=opt, train_state=train_state)
del params, opt, train_state
load_checkpoint(sys.argv[1])
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    load_checkpoint(sys.argv[1])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults))
"""
    src = str(Path(pietsp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "ck.json")], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 50


class _Musl:
    """A C library without glibc's ``gnu_get_libc_version``."""


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("platform_name, cdll",
                         [("darwin", None), ("linux", _no_libc), ("linux", lambda name: _Musl())],
                         ids=["not-linux", "no-libc", "not-glibc"])
def test_the_thresholds_are_left_alone_off_glibc(monkeypatch, platform_name, cdll):
    # the uncached function: the process's own call has already set the thresholds
    monkeypatch.setattr(heap.sys, "platform", platform_name)
    if cdll is not None:
        monkeypatch.setattr(heap.ctypes, "CDLL", cdll)
    assert keep_freed_heap.__wrapped__() is False
