"""Benchmark workloads: corpus shapes, training length and traced work per workload.

Every corpus is a merge of ``gen_synthetic(pattern="repeat-biased")``
corpora, one per user group, so that the universe size N varies across
users.  All users have 16 history sets (K = 16) and the model uses the
default embedding width D = 32.  The corpus is a function of the workload
and the seed alone; the program under test only ever sees the written file.

User counts are chosen so that the 70 % training split is a whole number
of batches of 64, which makes the per-step counters repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HISTORY_LEN = 16


@dataclass(frozen=True)
class UserGroup:
    users: int
    basket_min: int
    basket_max: int
    pool_size: int
    repeat_prob: float


@dataclass(frozen=True)
class Workload:
    name: str
    vocab_size: int
    groups: tuple[UserGroup, ...]
    epochs: int             # epochs per training round; train_loss and the evaluated model come from round 1
    trace_eval_passes: int  # fixed work of a traced run, so its counts repeat exactly
    trace_requests: int
    trace_ckpt_cycles: int
    universe: int = 24          # the yardstick's universe size N, near the corpus's mean N
    yardstick_ms: float = 1.0   # nominal yardstick pass: the machine speed the timings are scaled to

    @property
    def users(self) -> int:
        return sum(g.users for g in self.groups)


def _small_n(n1: int, n2: int) -> tuple[UserGroup, ...]:
    """Groups with N ~ 21 and N ~ 30 on average; together N spans roughly 15-45."""
    return UserGroup(n1, 2, 6, 12, 0.85), UserGroup(n2, 3, 7, 14, 0.75)


def _wide_n(n1: int, n2: int, n3: int) -> tuple[UserGroup, ...]:
    """Groups with N ~ 95, ~230 and ~300 on average: mean above 200, spread 80-330."""
    return UserGroup(n1, 4, 10, 10, 0.2), UserGroup(n2, 10, 24, 24, 0.2), UserGroup(n3, 14, 30, 30, 0.2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dc-like",
            vocab_size=217,
            groups=_small_n(458, 457),
            epochs=3,
            trace_eval_passes=10,
            trace_requests=2000,
            trace_ckpt_cycles=10,
            universe=27,
            yardstick_ms=2.4,
        ),
        Workload(
            name="large-vocab",
            vocab_size=12000,
            groups=_small_n(92, 91),
            epochs=2,
            trace_eval_passes=20,
            trace_requests=2000,
            trace_ckpt_cycles=5,
            universe=28,
            yardstick_ms=6.0,
        ),
        Workload(
            name="wide",
            vocab_size=2048,
            groups=_wide_n(92, 182, 92),
            epochs=3,
            trace_eval_passes=10,
            trace_requests=2000,
            trace_ckpt_cycles=10,
            universe=212,
            yardstick_ms=14.0,
        ),
    )
}


def make_corpus(workload: Workload, seed: int):
    """The workload's corpus for ``seed``: one synthetic corpus per user group, merged."""
    from pietsp.data import Corpus, SyntheticSpec, UserRecord, gen_synthetic

    group_seeds = np.random.SeedSequence([int(seed), 0x7065]).generate_state(len(workload.groups))
    users = []
    for g_idx, (group, g_seed) in enumerate(zip(workload.groups, group_seeds)):
        spec = SyntheticSpec(
            users=group.users,
            vocab_size=workload.vocab_size,
            pattern="repeat-biased",
            seed=int(g_seed),
            history_len=HISTORY_LEN,
            basket_min=group.basket_min,
            basket_max=group.basket_max,
            pool_size=group.pool_size,
            repeat_prob=group.repeat_prob,
        )
        for user in gen_synthetic(spec).users:
            users.append(UserRecord(f"g{g_idx}-{user.user_id}", user.sets))
    return Corpus(vocab_size=workload.vocab_size, users=tuple(users))
