"""Unit tests of the benchmark's own code.  Run: python3 -m pytest perfbench/tests"""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

import bench
import stats
from reference import ids_match, logits_match, reference_logits
from tracing import Tracer, union_ns
from workloads import HISTORY_LEN, WORKLOADS, UserGroup, Workload, make_corpus
from yardstick import Yardstick

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = Workload(
    name="tiny",
    vocab_size=60,
    groups=(UserGroup(46, 2, 6, 12, 0.85), UserGroup(46, 3, 7, 14, 0.75)),
    epochs=2,
    trace_eval_passes=2,
    trace_requests=20,
    trace_ckpt_cycles=2,
)


# -- names --------------------------------------------------------------------

def test_metric_and_workload_names_match_the_pattern():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert stats.check_name(name) == name
    for bad in ("", "a b", "x/y", "-lead", "a" * 65):
        with pytest.raises(ValueError):
            stats.check_name(bad)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture
def tiny_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, TINY.name, TINY)
    corpus = tmp_path / "corpus.json"
    bench.cmd_generate(argparse.Namespace(workload=TINY.name, seed=5, out=str(corpus)))

    def run(trace: int) -> tuple[dict, dict]:
        args = argparse.Namespace(workload=TINY.name, seed=5, seconds=0.5, trace=trace,
                                  corpus=str(corpus), workdir=str(tmp_path))
        assert bench.cmd_run(args, cpu=0, affinity_before={0}) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        report = json.loads(lines[-2].removeprefix("report "))
        return json.loads(lines[-1]), report

    return run


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(tiny_run, trace, group):
    result, report = tiny_run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert report["manifest"]["thread_env"] is not None
    if trace:
        metrics = result["metrics"]
        assert metrics["model.zeros_like.calls_per_step"]["value"] == 65  # batch 64, one full batch per step
        assert metrics["optim.adam_step.calls"]["value"] == TINY.epochs
        assert report["counts"]["predict_requests"] == TINY.trace_requests


def test_one_reference_mismatch_moves_pass_rate_past_its_bound(tiny_run, monkeypatch):
    calls = []

    def shifted_once(*args):
        ref = reference_logits(*args)
        calls.append(1)
        return ref + 1e-6 if len(calls) == 1 else ref   # a uniform shift: logits differ, the ranking does not

    monkeypatch.setattr(bench, "reference_logits", shifted_once)
    result, report = tiny_run(0)
    assert not result["correct"] and result["failed"] == 1
    assert report["checks"]["reference_logits"] == {"attempted": bench.CHECK_USERS, "failed": 1}
    assert report["checks"]["predict"]["attempted"] >= stats.samples_needed(99)
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "pass_rate")
    assert result["metrics"]["pass_rate"]["value"] == 1.0 - 1.0 / bench.CHECK_USERS < 1.0 - bound


def test_every_timing_is_paired_with_the_yardstick_around_it(tiny_run):
    result, report = tiny_run(0)
    unscaled = report["yardstick"]["unscaled_metrics"]
    assert set(unscaled) == set(result["metrics"])
    for name in ("peak_rss_mb", "train_loss", "pass_rate"):
        assert result["metrics"][name]["value"] == unscaled[name]
    assert report["unbounded_metrics"]["predict_p99_ms"]["value"] > 0
    assert report["counts"]["yardstick_passes"] == 1 + 5 * report["counts"]["setup_repeats"]

    p = bench.Phases(eval_s=[1.0, 2.0, 4.0])
    p.yard_at["eval_s"] = [2.0, 2.0, 8.0]
    assert p.scaled("eval_s", 1.0) == [0.5, 1.0, 0.5]
    assert p.scaled("eval_s", None) == [1.0, 2.0, 4.0]


def test_yardstick_is_fixed_and_uses_no_pietsp_code():
    import yardstick

    w = WORKLOADS["wide"]
    a, b = Yardstick(w.vocab_size, w.universe, HISTORY_LEN), Yardstick(w.vocab_size, w.universe, HISTORY_LEN)
    assert a.users == b.users and np.array_equal(a.params.emb, b.params.emb)
    assert len(a.users) == yardstick.USERS
    assert all(len(set().union(*sets)) == w.universe for sets in a.users)
    assert a() > 0.0
    source = Path(yardstick.__file__).read_text()
    assert "import pietsp" not in source and "from pietsp" not in source


def test_traced_counts_repeat_exactly(tiny_run):
    counts = ("optim.adam_step.calls", "model.zeros_like.calls_per_step", "linalg.check_finite.calls_per_user",
              "checkpoint.bytes", "model.forward.mflop_per_user")
    first, _ = tiny_run(1)
    second, _ = tiny_run(1)
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


# -- percentile rule ------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(99) == 1000
    assert stats.samples_needed(50) == 20
    assert stats.percentile(range(1, 1001), 99) == 990
    with pytest.raises(ValueError):
        stats.percentile(range(999), 99)
    for n in (20, 57, 1000, 1234):
        values = list(range(n))
        for q in (50, 90, 99):
            if n >= stats.samples_needed(q):
                p = stats.percentile(values, q)
                assert sum(v > p for v in values) >= stats.MIN_BEYOND
            else:
                with pytest.raises(ValueError):
                    stats.percentile(values, q)


def test_window_percentiles_take_each_whole_window():
    clean = [1.0] * 980 + [2.0] * 20
    noisy = [1.0] * 900 + [9.0] * 100        # a burst of slow requests
    assert stats.window_percentiles(clean * 2 + noisy, 99, 1000) == [2.0, 2.0, 9.0]
    assert stats.window_percentiles(clean + noisy[:999], 99, 1000) == [2.0]   # a partial last window is left out
    assert stats.window_percentiles(clean + noisy, 50, 1000) == [1.0, 1.0]
    with pytest.raises(ValueError):
        stats.window_percentiles(clean[:999], 99, 1000)
    with pytest.raises(ValueError):
        stats.window_percentiles(clean, 99, 500)          # a 500-sample window has no p99


def test_quartile_spread_is_iqr_over_median():
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


# -- spans ----------------------------------------------------------------------

def test_union_of_children_clipped_to_parent():
    assert union_ns([], 0, 100) == 0
    assert union_ns([(10, 20), (15, 30), (50, 60)], 0, 100) == 30
    assert union_ns([(10, 20), (12, 18)], 0, 100) == 10
    assert union_ns([(-5, 5), (95, 120)], 0, 100) == 10


def test_self_time_is_duration_minus_union_of_children():
    tracer = Tracer()
    tracer.names, tracer.starts, tracer.ends, tracer.parents = map(list, zip(
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 30, 50, 0),     # overlaps a: union of a and b is 10..50
        ("a.inner", 12, 20, 1),
        ("c", 70, 80, 0),
    ))
    agg = tracer.aggregate()
    assert agg[("root", "root")].self_ns == 100 - 40 - 10
    assert agg[("root", "a")].self_ns == 30 - 8
    assert agg[("root", "a.inner")].self_ns == 8
    assert agg[("root", "c")].total_ns == 10


def test_install_wraps_every_lookup_name_and_uninstall_restores():
    import pietsp.model
    import pietsp.train

    original = pietsp.model.forward
    assert pietsp.train.forward is original
    tracer = Tracer()
    tracer.install()
    try:
        assert pietsp.model.forward is not original
        assert pietsp.train.forward is pietsp.model.forward
        with tracer.span("phase"):
            pietsp.model.ModelParams.zeros_like(pietsp.model.init_params(20, 4, 3, seed=0))
    finally:
        tracer.uninstall()
    assert pietsp.model.forward is original and pietsp.train.forward is original
    assert tracer.counts == {("phase", "phase", "model.zeros_like"): 1}
    assert tracer.names == ["phase", "model.init_params"]
    assert tracer.parents == [-1, 0]


# -- workloads ------------------------------------------------------------------

def test_workload_generation_is_deterministic_in_its_seed():
    w = WORKLOADS["dc-like"]
    first, again, other = make_corpus(w, 3), make_corpus(w, 3), make_corpus(w, 4)
    assert first == again
    assert first != other
    assert len(first.users) == w.users and first.vocab_size == w.vocab_size
    assert {len(u.sets) for u in first.users} == {17}


def test_training_split_is_whole_batches():
    for w in WORKLOADS.values():
        assert int(w.users * 0.7 + 1e-9) % 64 == 0, w.name


# -- reference --------------------------------------------------------------------

def test_reference_matches_the_model_and_ties_are_tolerated():
    from pietsp.data import prepare_sample
    from pietsp.metrics import top_k
    from pietsp.model import forward, init_params

    corpus = make_corpus(TINY, 1)
    params = init_params(corpus.vocab_size, 8, 16, seed=1)
    for user in corpus.users[:5]:
        got = forward(prepare_sample(user, 16, corpus.vocab_size), params).logits
        ref = reference_logits(user.sets, params, 16)
        assert logits_match(got, ref)
        assert ids_match(top_k(got, 10), ref, 10)
        assert not logits_match(got + 1e-6, ref)
    scores = np.array([3.0, 1.0, 2.0, 2.0, 0.0])
    assert ids_match([0, 3], scores, 2)          # 2 and 3 tie for second place
    assert not ids_match([0, 1], scores, 2)
    assert not ids_match([0, 0], scores, 2)
