"""Inference latency harness and empirical complexity checks.

Times forward passes only (no metric computation) with a monotonic clock,
one batch per run, discarding warmup runs.  A batch is B separate one-user
``forward`` calls, one request each, not one engine call, so the figures are
request latency.  Per-sample time is batch wall time divided by B; the
reported statistics are taken over the timed runs.  Scaling helpers fit runtime against one shape axis
(universe size N, history length K, or vocabulary size) to verify the
linear-cost design empirically, and a coarse memory probe checks that the
footprint tracks the vocabulary size.  The harness runs with whatever BLAS
thread count the process started with; for single-thread numbers, set
``OPENBLAS_NUM_THREADS=1`` (or ``PIETSP_THREADS=1`` for the CLI) before
launching.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .data import PreparedSample
from .errors import PietspError
from .model import ModelParams, forward, init_params

WARMUP_RUNS = 3


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def format_table(reports: list[BenchReport], labels: list[str] | None = None) -> str:
    """Aligned text table: one row per report, latency and throughput columns."""
    labels = labels or [f"N={r.n_max} K={r.k_max} D={r.dim} E={r.vocab_size}" for r in reports]
    head = f"{'config':<28}{'mean sample time (s)':>22}{'p99 sample time (s)':>21}{'samples/sec':>13}"
    lines = [head]
    for label, r in zip(labels, reports):
        lines.append(
            f"{label:<28}{r.mean_sample_time_s:>22.6f}{r.p99_sample_time_s:>21.6f}{r.samples_per_sec:>13.2f}"
        )
    return "\n".join(lines)


def synthetic_samples(
    n_elements: int,
    k_max: int,
    vocab_size: int,
    count: int,
    seed: int,
    dtype=np.float64,
    density: float = 0.3,
) -> list[PreparedSample]:
    """Random samples of a fixed shape: N distinct ids, Bernoulli membership
    (every row forced non-empty), small random target."""
    if n_elements > vocab_size:
        raise PietspError(f"cannot draw {n_elements} distinct ids from a vocabulary of {vocab_size}")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        universe = np.sort(rng.choice(vocab_size, n_elements, replace=False)).astype(np.int64)
        membership = (rng.random((n_elements, k_max)) < density).astype(dtype)
        forced = rng.integers(0, k_max, size=n_elements)
        membership[np.arange(n_elements), forced] = 1
        target = np.sort(rng.choice(vocab_size, min(5, vocab_size), replace=False)).astype(np.int64)
        samples.append(
            PreparedSample(
                user_id=f"bench{i:04d}",
                universe=universe,
                membership=membership,
                target_ids=target,
                vocab_size=vocab_size,
            )
        )
    return samples


def _time_batch(batch: list[PreparedSample], params: ModelParams, variant: str) -> float:
    """Wall time of one batch of forward passes, per sample."""
    t0 = time.perf_counter()
    for sample in batch:
        forward(sample, params, variant)
    return (time.perf_counter() - t0) / len(batch)


def _report(per_sample: np.ndarray, warmup: int, batch: list[PreparedSample], params: ModelParams) -> BenchReport:
    timed = per_sample[warmup:]
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


def bench_inference(
    samples: list[PreparedSample],
    params: ModelParams,
    runs: int = 100,
    batch_size: int = 64,
    warmup: int = WARMUP_RUNS,
    variant: str = "full",
) -> BenchReport:
    """Time ``runs`` batches of ``batch_size`` one-user ``forward`` calls and report per-request latency."""
    if not samples:
        raise PietspError("bench_inference: no samples")
    if runs <= warmup:
        raise PietspError(f"bench_inference: runs={runs} must exceed warmup={warmup}")
    batch = [samples[i % len(samples)] for i in range(batch_size)]
    per_sample = np.array([_time_batch(batch, params, variant) for _ in range(runs)])
    return _report(per_sample, warmup, batch, params)


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
    n_elements: int = 256,
    k_max: int = 8,
    vocab_size: int = 1024,
    dim: int = 32,
    runs: int = 12,
    batch_size: int = 16,
    seed: int = 0,
    dtype=np.float64,
) -> list[BenchReport]:
    """One BenchReport per value of the swept axis ('n', 'k', or 'vocab').

    The timed batches run round-robin across the values (run r of every
    value, then run r + 1), so a change in machine speed during the sweep
    spreads over every value instead of skewing the ones timed during it.
    """
    if axis not in ("n", "k", "vocab"):
        raise PietspError(f"unknown axis '{axis}'")
    if runs <= WARMUP_RUNS:
        raise PietspError(f"measure_axis: runs={runs} must exceed warmup={WARMUP_RUNS}")
    cases = []
    for value in values:
        n = value if axis == "n" else n_elements
        k = value if axis == "k" else k_max
        vocab = value if axis == "vocab" else vocab_size
        vocab = max(vocab, n)  # universe must fit
        params = init_params(vocab, dim, k, seed=seed).astype(dtype)
        cases.append((params, synthetic_samples(n, k, vocab, batch_size, seed=seed + value, dtype=dtype)))
    per_sample = np.empty((len(cases), runs))
    for r in range(runs):
        for i, (params, batch) in enumerate(cases):
            per_sample[i, r] = _time_batch(batch, params, "full")
    return [_report(per_sample[i], WARMUP_RUNS, batch, params) for i, (params, batch) in enumerate(cases)]


def memory_highwater_bytes(vocab_size: int, dim: int, k_max: int, n_elements: int, seed: int = 0) -> int:
    """Peak traced allocation while building a model and running one forward."""
    tracemalloc.start()
    try:
        params = init_params(vocab_size, dim, k_max, seed=seed)
        sample = synthetic_samples(n_elements, k_max, vocab_size, 1, seed=seed)[0]
        forward(sample, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)
