import platform
import resource
import sys

import numpy as np
import pytest

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
