"""Inference latency harness and empirical complexity checks.

Times forward passes only (no metric computation) with a monotonic clock,
one batch per run, discarding warmup runs.  A batch is B separate one-user
``forward`` calls, one request each, not one engine call, so the figures are
request latency.  Per-sample time is batch wall time divided by B; the
reported statistics are taken over the timed runs.  ``time_cases``, the one
timing loop, times (params, batch) cases in turns (run r of every case, then
run r + 1), so a change in machine speed spreads over every case instead of
skewing some; ``measure_axis`` and ``pietsp bench`` (synthetic shapes or a
corpus with its checkpoint) both time through it, with the defaults
``RUNS``, ``BATCH`` and ``SHAPE``.
Scaling helpers fit runtime against one shape axis (universe size N, history
length K, or vocabulary size) to verify the linear-cost design empirically.
The harness runs with whatever BLAS thread count the process started with;
for single-thread numbers, set ``OPENBLAS_NUM_THREADS=1`` (and
``OMP_NUM_THREADS=1``, ``MKL_NUM_THREADS=1``) before launching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Corpus, PreparedSample, UserRecord, prepare_all
from .errors import PietspError
from .model import ModelParams, forward, init_params

WARMUP_RUNS = 3
RUNS = 100   # timed batches per case, warmup included
BATCH = 64   # one-user forward calls per batch
SHAPE = {"N": 256, "K": 8, "E": 1024, "D": 32}  # universe size, history length, vocabulary, embedding dim


@dataclass
class BenchReport:
    mean_sample_time_s: float
    p99_sample_time_s: float
    samples_per_sec: float
    runs_timed: int
    batch_size: int
    n_min: int
    n_mean: float
    n_max: int
    k_max: int
    dim: int
    vocab_size: int
    dtype: str
    total_samples: int
    total_time_s: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def format_table(reports: list[BenchReport], labels: list[str]) -> str:
    """Aligned text table: one row per report, its label, then latency and throughput columns.  The label
    column is as wide as the longest label, and at least 28 characters."""
    width = max([28, *map(len, labels)])
    head = f"{'config':<{width}}{'mean sample time (s)':>22}{'p99 sample time (s)':>21}{'samples/sec':>13}"
    lines = [head]
    for label, r in zip(labels, reports):
        lines.append(
            f"{label:<{width}}{r.mean_sample_time_s:>22.6f}{r.p99_sample_time_s:>21.6f}{r.samples_per_sec:>13.2f}"
        )
    return "\n".join(lines)


def synthetic_samples(
    n_elements: int,
    k_max: int,
    vocab_size: int,
    count: int,
    seed: int,
) -> list[PreparedSample]:
    """Random samples of a fixed shape: N distinct ids, Bernoulli(0.3) bool membership
    (every row forced non-empty), small random target.  Each draw becomes a user of ``k_max``
    history sets (column j of the membership is set j) and the target, prepared by ``prepare_all``."""
    if n_elements > vocab_size:
        raise PietspError(f"cannot draw {n_elements} distinct ids from a vocabulary of {vocab_size}")
    rng = np.random.default_rng(seed)
    users = []
    for i in range(count):
        universe = np.sort(rng.choice(vocab_size, n_elements, replace=False))
        membership = rng.random((n_elements, k_max)) < 0.3
        membership[np.arange(n_elements), rng.integers(0, k_max, size=n_elements)] = True
        target = np.sort(rng.choice(vocab_size, min(5, vocab_size), replace=False))
        sets = [tuple(universe[column].tolist()) for column in membership.T]
        users.append(UserRecord(f"bench{i:04d}", (*sets, tuple(target.tolist()))))
    return prepare_all(Corpus(vocab_size, tuple(users)), k_max)


def shape_case(n: int, k: int, vocab: int, dim: int, batch_size: int, seed: int, sample_seed: int,
               dtype=np.float64) -> tuple[ModelParams, list[PreparedSample]]:
    """One synthetic case: parameters drawn from ``seed`` and ``batch_size`` samples drawn from
    ``sample_seed``, the vocabulary raised to ``n`` when smaller (a universe must fit)."""
    vocab = max(vocab, n)
    params = init_params(vocab, dim, k, seed=seed).astype(dtype)
    return params, synthetic_samples(n, k, vocab, batch_size, seed=sample_seed)


def _report(timed: np.ndarray, batch: list[PreparedSample], params: ModelParams) -> BenchReport:
    batch_size = len(batch)
    total_time = float(timed.sum() * batch_size)
    n_sizes = np.array([s.n_elements for s in batch])
    return BenchReport(
        mean_sample_time_s=float(timed.mean()),
        p99_sample_time_s=float(np.percentile(timed, 99)),
        samples_per_sec=float(timed.size * batch_size / total_time),
        runs_timed=int(timed.size),
        batch_size=batch_size,
        n_min=int(n_sizes.min()),
        n_mean=float(n_sizes.mean()),
        n_max=int(n_sizes.max()),
        k_max=params.k_max,
        dim=params.dim,
        vocab_size=params.vocab_size,
        dtype=str(params.emb.dtype),
        total_samples=int(timed.size * batch_size),
        total_time_s=total_time,
    )


def check_runs(runs: int) -> None:
    """Raise unless ``runs`` leaves a timed run after the ``WARMUP_RUNS`` discarded ones."""
    if runs <= WARMUP_RUNS:
        raise PietspError(f"runs={runs} must exceed warmup={WARMUP_RUNS}")


def time_cases(cases: list[tuple[ModelParams, list[PreparedSample]]], runs: int) -> list[BenchReport]:
    """One BenchReport per (params, batch) case, its first ``WARMUP_RUNS`` of ``runs`` batches discarded.

    The cases take turns: run r of every case, then run r + 1.
    """
    check_runs(runs)
    if not all(batch for _, batch in cases):
        raise PietspError("every case needs a batch of at least one sample")
    per_sample = np.empty((len(cases), runs))
    for r in range(runs):
        for i, (params, batch) in enumerate(cases):
            t0 = time.perf_counter()
            for sample in batch:
                forward(sample, params)
            per_sample[i, r] = (time.perf_counter() - t0) / len(batch)
    return [_report(per_sample[i, WARMUP_RUNS:], batch, params) for i, (params, batch) in enumerate(cases)]


def linear_fit_r2(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ a + b x; returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise PietspError("linear_fit_r2 needs at least three points")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), r2


def measure_axis(
    axis: str,
    values: list[int],
    n_elements: int = SHAPE["N"],
    k_max: int = SHAPE["K"],
    vocab_size: int = SHAPE["E"],
    dim: int = SHAPE["D"],
    runs: int = 12,
    batch_size: int = 16,
    seed: int = 0,
) -> list[BenchReport]:
    """One BenchReport per value of the swept axis ('n', 'k', or 'vocab'), timed in turns by
    ``time_cases``.  Every value's parameters are drawn from ``seed``, its samples from ``seed + value``."""
    if axis not in ("n", "k", "vocab"):
        raise PietspError(f"unknown axis '{axis}'")
    shape = {"n": n_elements, "k": k_max, "vocab": vocab_size}
    cases = [shape_case(**(shape | {axis: value}), dim=dim, batch_size=batch_size, seed=seed, sample_seed=seed + value)
             for value in values]
    return time_cases(cases, runs)
