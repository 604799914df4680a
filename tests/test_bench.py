import tracemalloc

import numpy as np
import pytest

from pietsp.bench import (
    WARMUP_RUNS,
    BenchReport,
    format_table,
    linear_fit_r2,
    measure_axis,
    synthetic_samples,
    time_cases,
)
from pietsp.errors import PietspError
from pietsp.model import forward, init_params


def test_synthetic_samples_invariants():
    samples = synthetic_samples(12, 5, 40, 3, seed=0)
    for s in samples:
        assert s.universe.size == 12
        assert np.unique(s.universe).size == 12
        assert s.membership.shape == (12, 5) and s.membership.dtype == bool
        assert np.all(s.membership.any(axis=1))


def test_time_cases_refuses_an_empty_batch():
    params = init_params(20, 4, 3, seed=0)
    samples = synthetic_samples(5, 3, 20, 2, seed=1)
    for cases in ([(params, [])], [(params, samples), (params, [])]):
        with pytest.raises(PietspError, match="^every case needs a batch of at least one sample$"):
            time_cases(cases, runs=6)


def test_synthetic_samples_reject_universe_larger_than_vocab():
    with pytest.raises(PietspError):
        synthetic_samples(50, 4, 40, 1, seed=0)


def test_bench_report_arithmetic_identity():
    params = init_params(64, 8, 4, seed=1)
    samples = synthetic_samples(6, 4, 64, 8, seed=2)
    [report] = time_cases([(params, samples)], runs=10)
    assert report.runs_timed == 10 - WARMUP_RUNS == 7
    assert report.total_samples == 7 * 8
    # samples/sec equals timed samples over total time (well within 1%)
    implied = report.total_samples / report.total_time_s
    assert abs(report.samples_per_sec - implied) / implied < 0.01
    # and the mean is consistent with throughput
    assert abs(report.mean_sample_time_s * report.samples_per_sec - 1.0) < 0.01
    assert report.p99_sample_time_s >= 0.0
    assert report.dtype == "float64"


def test_bench_float32_mode():
    params = init_params(64, 8, 4, seed=1).astype(np.float32)
    samples = synthetic_samples(6, 4, 64, 8, seed=2)
    [report] = time_cases([(params, samples[:4])], runs=6)
    assert report.dtype == "float32"
    assert forward(samples[0], params).logits.dtype == np.float32  # bool membership enters Z as float32


def test_bench_rejects_runs_not_exceeding_warmup():
    params = init_params(64, 8, 4, seed=1)
    samples = synthetic_samples(6, 4, 64, 4, seed=2)
    with pytest.raises(PietspError, match=f"^runs={WARMUP_RUNS} must exceed warmup={WARMUP_RUNS}$"):
        time_cases([(params, samples)], runs=WARMUP_RUNS)
    [report] = time_cases([(params, samples)], runs=WARMUP_RUNS + 1)
    assert report.runs_timed == 1


def test_linear_fit_r2_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, r2 = linear_fit_r2(x, 3.0 * x + 1.0)
    assert abs(slope - 3.0) < 1e-12
    assert abs(intercept - 1.0) < 1e-12
    assert r2 > 1.0 - 1e-12


def test_linear_fit_r2_needs_three_points():
    with pytest.raises(PietspError):
        linear_fit_r2([1.0, 2.0], [1.0, 2.0])


def test_measure_axis_shapes():
    reports = measure_axis("n", [8, 16], k_max=4, vocab_size=64, dim=8, runs=5, batch_size=4)
    assert [r.n_max for r in reports] == [8, 16]
    table = format_table(reports, [f"N={r.n_max}" for r in reports])
    assert "samples/sec" in table and len(table.splitlines()) == 3


def test_format_table_sizes_the_label_column_to_its_longest_label():
    report = BenchReport(0.001234, 0.002345, 810.37, 97, 4, 8, 8.0, 8, 4, 8, 64, "float64", 388, 0.48)
    short = "N=8 K=4 E=64 D=8"
    figures = f"{0.001234:>22.6f}{0.002345:>21.6f}{810.37:>13.2f}"
    head = f"{'mean sample time (s)':>22}{'p99 sample time (s)':>21}{'samples/sec':>13}"
    assert format_table([report], [short]) == f"{'config':<28}{head}\n{short:<28}{figures}"  # a grid table
    long = "tafeng-converted-corpus.json (60 of 60 users)"
    assert len(long) == 45
    lines = format_table([report, report], [long, short]).splitlines()
    assert lines == [f"{'config':<45}{head}", f"{long}{figures}", f"{short:<45}{figures}"]
    assert len({len(line) for line in lines}) == 1


def test_measure_axis_refuses_an_unknown_axis():
    with pytest.raises(PietspError, match="^unknown axis 'd'$"):
        measure_axis("d", [8, 16])


def test_measure_axis_runs_round_robin(monkeypatch):
    import pietsp.bench

    seen = []
    real_forward = pietsp.bench.forward

    def recording_forward(sample, params, variant="full"):
        seen.append(params.vocab_size)
        return real_forward(sample, params, variant)

    monkeypatch.setattr(pietsp.bench, "forward", recording_forward)
    measure_axis("vocab", [64, 128, 256], n_elements=4, k_max=2, dim=4, runs=5, batch_size=2)
    # each timed batch is one value's 2 forwards; the values take turns, run by run
    assert seen[::2] == [64, 128, 256] * 5
    assert seen[1::2] == seen[::2]


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


def test_memory_highwater_tracks_vocab():
    small = memory_highwater_bytes(vocab_size=8192, dim=32, k_max=4, n_elements=16)
    large = memory_highwater_bytes(vocab_size=16384, dim=32, k_max=4, n_elements=16)
    assert 1.5 <= large / small <= 2.5
