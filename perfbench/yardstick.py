"""A fixed plain-numpy workload that measures how fast the machine runs at a given moment.

The benchmark's machine is shared, and its speed moves with the load of
other tenants: the same pinned loop runs up to ~1.8x slower for stretches
of several seconds to minutes.  The yardstick is the reference forward of
``reference.py`` on fixed random users and parameters of the workload's
shape, so it runs the same kind of code as pietsp (small dense products,
ELUs, a vocabulary-wide product and Python overhead) but none of pietsp's
code: a change to pietsp cannot move it.  ``bench.py`` times it between
the phases of every cycle and divides each timing by the yardstick's mean
over the run, which takes the machine's speed out of the metrics.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

from reference import reference_logits

SEED = 0x79617264
USERS = 16


class Yardstick:
    def __init__(self, vocab_size: int, universe: int, history_len: int, dim: int = 32):
        rng = np.random.default_rng(SEED)

        def w(*shape):
            return rng.standard_normal(shape) * 0.1

        kd = history_len + dim
        self.params = SimpleNamespace(
            emb=w(vocab_size, dim), pe_w_global=w(kd, dim), pe_w_local=w(kd, dim), pe_bias=w(dim),
            ee_w1=w(dim, dim), ee_b1=w(dim), ee_w2=w(dim), ee_b2=w(),
            pi_w1=w(dim, dim), pi_b1=w(dim), pi_w2=w(dim, dim), pi_b2=w(dim), pi_w3=w(dim, dim), pi_b3=w(dim),
            fuse_global=w(vocab_size), fuse_local=w(vocab_size),
        )
        self.history_len = history_len
        self.users = []
        for _ in range(USERS):
            pool = rng.choice(vocab_size, size=universe, replace=False)
            home = rng.integers(0, history_len, size=universe)  # every pool item is in at least one set
            extra = rng.random((history_len, universe)) < 0.2
            sets = [set(pool[(home == k) | extra[k]].tolist()) for k in range(history_len)]
            self.users.append(sets + [set()])  # the last set is the target, which the forward ignores

    def __call__(self) -> float:
        """Seconds of one pass over the fixed users: USERS times the median user's time.

        The median keeps a short interruption that hits one or two users out of
        the reading, so a pass gives the machine's speed, not its hiccups.
        """
        times = []
        for sets in self.users:
            t0 = time.perf_counter()
            reference_logits(sets, self.params, self.history_len)
            times.append(time.perf_counter() - t0)
        return USERS * statistics.median(times)
