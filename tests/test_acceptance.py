"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Criteria 5 and 6 need the public DC corpus (217 items, 9,010 users) as a
corpus-format JSON file; set PIETSP_DC to its path or place it at data/dc.json.
They skip with an explicit notice when the file is absent (this sandbox cannot
download it).
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_all_slots, make_instance
from reference_metrics import ref_hit, ref_ndcg, ref_recall
from pietsp.bench import linear_fit_r2, measure_axis, synthetic_samples
from pietsp.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from pietsp.data import (
    SyntheticSpec,
    gen_synthetic,
    load_corpus,
    prepare_all,
    split_users,
)
from pietsp.metrics import ndcg_at_k, recall_at_k, top_k
from pietsp.model import forward, init_params, pe_forward, pi_forward
from pietsp.seeding import spawn_seed
from pietsp.train import TrainConfig, evaluate, fit
from test_model import permuted_sample

DC_PATH = Path(os.environ.get("PIETSP_DC", Path(__file__).resolve().parent.parent / "data" / "dc.json"))


@contextmanager
def criterion(capsys, num, desc):
    info = {}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {num} FAIL - {desc}" + _detail(info))
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num} PASS - {desc}" + _detail(info))


def _detail(info):
    return f" ({info['detail']})" if info.get("detail") else ""


# -------------------------------------------------------------------------------
# 1. permutation properties
# -------------------------------------------------------------------------------

def test_criterion_1_permutation_properties(capsys):
    with criterion(capsys, 1, "equivariance/invariance over 1000 random instances") as info:
        rng = np.random.default_rng(2024)
        worst_pe = worst_pi = worst_fwd = 0.0
        vocab = 64
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            k = int(rng.integers(1, 17))
            d = int(rng.integers(1, 17))
            params = init_params(vocab, d, k, seed=int(rng.integers(2**31)))
            perm = rng.permutation(n)

            z = rng.normal(size=(n, k + d))
            pe_delta = np.abs(pe_forward(z, params)[perm] - pe_forward(z[perm], params)).max()
            zt = rng.normal(size=(n, d))
            pi_delta = np.abs(pi_forward(zt, params)[0] - pi_forward(zt[perm], params)[0]).max()

            sample = synthetic_samples(n, k, vocab, 1, seed=int(rng.integers(2**31)))[0]
            fwd_delta = np.abs(
                forward(permuted_sample(sample, perm), params).logits - forward(sample, params).logits
            ).max()

            worst_pe = max(worst_pe, pe_delta)
            worst_pi = max(worst_pi, pi_delta)
            worst_fwd = max(worst_fwd, fwd_delta)
        info["detail"] = f"max deltas: pe {worst_pe:.1e}, pi {worst_pi:.1e}, forward {worst_fwd:.1e}"
        assert worst_pe < 1e-12
        assert worst_pi < 1e-12
        assert worst_fwd < 1e-9


# -------------------------------------------------------------------------------
# 2. gradient correctness
# -------------------------------------------------------------------------------

def test_criterion_2_gradient_correctness(capsys):
    with criterion(capsys, 2, "analytic backward vs central differences, all slots") as info:
        t0 = time.monotonic()
        sample, params, d_logits = make_instance(vocab=12, dim=5, k_max=3, n_elements=4)
        results = check_all_slots(sample, params, d_logits, tol=1e-5)
        sample2, params2, d2 = make_instance(vocab=20, dim=6, k_max=4, n_elements=7, start_seed=300)
        results2 = check_all_slots(sample2, params2, d2, tol=1e-5)
        sample3, params3, d3 = make_instance(vocab=30, dim=8, k_max=6, n_elements=12, start_seed=600)
        results3 = check_all_slots(sample3, params3, d3, tol=1e-5)
        elapsed = time.monotonic() - t0
        all_results = (results, results2, results3)
        worst = max(err for res in all_results for err, _ in res.values())
        # dual-path coverage: every instance leaves vocabulary rows outside the universe
        for inst_sample, inst_params in ((sample, params), (sample2, params2), (sample3, params3)):
            assert inst_sample.universe.size < inst_params.vocab_size
        for res in all_results:
            for slot, (_, fd_max) in res.items():
                assert fd_max > 1e-7, f"slot '{slot}' never receives gradient"
        info["detail"] = f"worst rel err {worst:.2e}, {elapsed:.1f}s"
        assert elapsed < 60.0


# -------------------------------------------------------------------------------
# 3. metric oracles
# -------------------------------------------------------------------------------

def test_criterion_3_metric_oracles(capsys):
    with criterion(capsys, 3, "recall/ndcg/phr vs brute force on 10,000 instances") as info:
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(10_000):
            n = int(rng.integers(5, 120))
            scores = np.round(rng.normal(size=n), 2)  # coarse grid keeps ties frequent
            truth = set(int(t) for t in rng.choice(n, int(rng.integers(1, min(6, n) + 1)), replace=False))
            k = int(rng.integers(1, n + 1))
            ranked = top_k(scores, k)
            worst = max(worst, abs(recall_at_k(ranked, truth) - ref_recall(scores, truth, k)))
            worst = max(worst, abs(ndcg_at_k(ranked, truth, k) - ref_ndcg(scores, truth, k)))
            assert any(int(i) in truth for i in ranked) == ref_hit(scores, truth, k)
        assert worst < 1e-12
        spot = ndcg_at_k([7, 3], {3}, 2)
        assert ndcg_at_k([3, 7], {3}, 1) == 1.0
        assert round(spot, 5) == 0.63093 and abs(spot - 1 / math.log2(3)) < 1e-15
        info["detail"] = f"max |diff| {worst:.1e} over 10k instances"


# -------------------------------------------------------------------------------
# 4. learnability on the periodic synthetic corpus
# -------------------------------------------------------------------------------

def test_criterion_4_learnability_periodic(capsys):
    with criterion(capsys, 4, "periodic corpus, defaults: Recall@10>=0.99, PHR@10=1.0 by epoch 20") as info:
        t0 = time.monotonic()
        corpus = gen_synthetic(
            SyntheticSpec(users=50, vocab_size=100, pattern="periodic", seed=0,
                          basket_min=3, basket_max=5)
        )
        config = TrainConfig(seed=7)  # defaults: batch 64, D 32, lr 1e-3, wd 1e-2, cosine/100, patience 10
        train_c, val_c, test_c = split_users(corpus, config.split_ratios, spawn_seed(config.seed, "split"))
        k_max = max(len(u.sets) - 1 for u in train_c.users)
        val_samples = prepare_all(val_c, k_max)
        test_samples = prepare_all(test_c, k_max)
        per_epoch = []

        def eval_hook(params, epoch):
            # record held-out metrics after every epoch; early stopping still
            # watches the real validation metric
            report = evaluate(test_samples, params, (10,))
            per_epoch.append((report.recall[10], report.phr[10]))
            return evaluate(val_samples, params, (10,)).ndcg[10]

        fit(train_c, val_c, config, stop_after_epoch=19, eval_fn=eval_hook)
        elapsed = time.monotonic() - t0
        best_recall = max(r for r, _ in per_epoch)
        reached = any(r >= 0.99 and p == 1.0 for r, p in per_epoch)
        info["detail"] = (
            f"best test recall@10 over epochs 1-20: {best_recall:.3f},"
            f" final phr@10 {per_epoch[-1][1]:.2f}, {elapsed:.1f}s"
        )
        assert elapsed < 120.0
        assert per_epoch[-1][1] == 1.0
        assert reached, (
            f"no epoch <= 20 reaches recall@10 >= 0.99 (best {best_recall:.3f}); every history "
            "prefix of the 35 training users is an instance, 140 in all, so an epoch is 3 optimizer "
            "steps of up to 64 at lr 1e-3, and a working model reaches recall@10 1.000 at epoch 18: "
            "a shortfall is a fault in training, not a limit of this corpus"
        )


# -------------------------------------------------------------------------------
# 5./6. DC corpus reproduction and convergence speed
# -------------------------------------------------------------------------------

_dc_cache = {}


def _dc_fit():
    if "result" in _dc_cache:
        return _dc_cache["result"]
    corpus, _ = load_corpus(DC_PATH)
    config = TrainConfig(seed=7)
    train_c, val_c, test_c = split_users(corpus, config.split_ratios, spawn_seed(config.seed, "split"))
    result = fit(train_c, val_c, config)
    test_samples = prepare_all(test_c, result.k_max)
    report = evaluate(test_samples, result.params, (10,))
    _dc_cache["result"] = (result, report, test_samples)
    return _dc_cache["result"]


def _personal_frequency_scorer(sample):
    scores = np.zeros(sample.vocab_size)
    n_cols = sample.membership.shape[1]
    counts = sample.membership.sum(axis=1)
    scores[sample.universe] = counts / (n_cols + 1.0)
    return scores


_DC_MISSING = f"DC corpus not found at {DC_PATH} (set PIETSP_DC); downloads are blocked in this sandbox"


@pytest.mark.skipif(not DC_PATH.exists(), reason=_DC_MISSING)
def test_criterion_5_dc_reproduction(capsys):
    with criterion(capsys, 5, "DC test metrics in the published band (or beat frequency baseline)") as info:
        result, report, test_samples = _dc_fit()
        baseline = evaluate(test_samples, result.params, (10,), score_fn=_personal_frequency_scorer)
        in_band = abs(report.ndcg[10] - 0.3463) <= 0.025 and abs(report.recall[10] - 0.4635) <= 0.025
        relative_gain = (report.ndcg[10] - baseline.ndcg[10]) / baseline.ndcg[10]
        info["detail"] = (
            f"ndcg@10 {report.ndcg[10]:.4f} (band 0.3463±0.025), recall@10 {report.recall[10]:.4f}"
            f" (band 0.4635±0.025), +{100 * relative_gain:.1f}% ndcg vs personal-frequency baseline"
        )
        assert in_band or relative_gain >= 0.10


@pytest.mark.skipif(not DC_PATH.exists(), reason=_DC_MISSING)
def test_criterion_6_dc_convergence(capsys):
    with criterion(capsys, 6, "early stopping on DC fires within 25 epochs") as info:
        result, _, _ = _dc_fit()
        info["detail"] = f"stopped after {result.epochs_run} epochs (best epoch {result.best_epoch + 1})"
        assert result.epochs_run <= 25


# -------------------------------------------------------------------------------
# 7. complexity scaling
# -------------------------------------------------------------------------------

def test_criterion_7_complexity_scaling(capsys):
    with criterion(capsys, 7, "runtime linear in N and K; doubling |E| costs <= 2.4x") as info:
        grid = [64, 128, 256, 512, 1024, 2048, 4096]

        n_reports = measure_axis("n", grid, k_max=64, vocab_size=1024, dim=32, runs=12, batch_size=8, seed=0)
        n_times = [r.mean_sample_time_s for r in n_reports]
        _, _, r2_n = linear_fit_r2(grid, n_times)
        doubling = n_times[-1] / n_times[-2]

        k_reports = measure_axis("k", grid, n_elements=256, vocab_size=512, dim=32, runs=12, batch_size=8, seed=1)
        k_times = [r.mean_sample_time_s for r in k_reports]
        _, _, r2_k = linear_fit_r2(grid, k_times)
        k_doubling = k_times[-1] / k_times[-2]

        e_reports = measure_axis("vocab", [4096, 8192], n_elements=256, k_max=8, dim=32, runs=20, batch_size=16, seed=2)
        e_factor = e_reports[1].mean_sample_time_s / e_reports[0].mean_sample_time_s

        info["detail"] = (
            f"R2(N) {r2_n:.4f}, R2(K) {r2_k:.4f}, N-doubling {doubling:.2f}x, |E|-doubling {e_factor:.2f}x"
        )
        assert r2_n >= 0.95
        assert r2_k >= 0.95
        assert 1.6 <= doubling <= 2.4
        assert k_doubling <= 2.4
        assert e_factor <= 2.4


# -------------------------------------------------------------------------------
# 8. ablation direction
# -------------------------------------------------------------------------------

def test_criterion_8_ablation_direction(capsys):
    with criterion(capsys, 8, "full >= element-only >= global-only recall on periodic corpus") as info:
        # variant labels name the evaluator that remains; the removed-branch
        # models are trained to convergence before comparing
        corpus = gen_synthetic(SyntheticSpec(users=200, vocab_size=100, pattern="periodic", seed=0))
        split_seed = spawn_seed(7, "split")
        train_c, val_c, test_c = split_users(corpus, (0.7, 0.1, 0.2), split_seed)
        recalls = {}
        for label, variant in (("full", "full"), ("element-only", "no-ge"), ("global-only", "no-ee")):
            config = TrainConfig(seed=7, max_epochs=60, patience=60, variant=variant)
            result = fit(train_c, val_c, config)
            report = evaluate(prepare_all(test_c, result.k_max), result.params, (10,), variant)
            recalls[label] = report.recall[10]
        info["detail"] = ", ".join(f"{k} {v:.4f}" for k, v in recalls.items())
        assert recalls["full"] >= recalls["element-only"] >= recalls["global-only"]
        assert recalls["global-only"] > 0.0


# -------------------------------------------------------------------------------
# 9. determinism and persistence
# -------------------------------------------------------------------------------

def test_criterion_9_determinism_and_persistence(capsys, tmp_path):
    with criterion(capsys, 9, "bit-identical reruns, checkpoint round-trip, resume equivalence") as info:
        corpus = gen_synthetic(SyntheticSpec(users=30, vocab_size=60, pattern="periodic", seed=1))
        config = TrainConfig(dim=8, max_epochs=8, patience=8, seed=13)
        train_c, val_c, _ = split_users(corpus, config.split_ratios, spawn_seed(config.seed, "split"))

        # two fresh runs, byte-compared through the serialized envelope
        blobs = []
        for run_dir in ("a", "b"):
            path = tmp_path / f"best-{run_dir}.json"
            fit(train_c, val_c, config, best_path=path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        # save -> load -> save is byte-identical
        ck = load_checkpoint(tmp_path / "best-a.json")
        resaved = tmp_path / "resaved.json"
        save_checkpoint(resaved, ck.params, seed=ck.seed, config=ck.config)
        assert resaved.read_bytes() == blobs[0]

        # resuming an interrupted run reproduces the uninterrupted parameters
        straight = fit(train_c, val_c, config)
        latest = tmp_path / "latest.json"
        fit(train_c, val_c, config, stop_after_epoch=3, latest_path=latest)
        resumed = fit(train_c, val_c, config, resume_from=latest)
        worst = max(
            float(np.abs(a - b).max())
            for (_, a), (_, b) in zip(straight.params.slots(), resumed.params.slots())
        )
        info["detail"] = f"rerun identical, resume max |delta| {worst:.1e}"
        assert worst < 1e-12
        assert checkpoint_bytes(straight.params) == checkpoint_bytes(resumed.params)
