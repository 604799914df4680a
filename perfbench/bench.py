"""One benchmark run: pietsp's train / eval / predict / checkpoint pipeline on one workload.

``run.py`` starts this file twice, in child processes whose BLAS thread
variables are already set: ``generate`` writes the workload's corpus, and
``run`` measures the pipeline on that file alone.  The pipeline calls the
public library functions in the order a user would:

* set-up: ``load_corpus`` -> ``split_users`` -> ``prepare_all`` -> ``init_params``
  (``setup_s`` is the median over the set-ups of a run);
* training rounds of ``workload.epochs`` epochs of ``train_epoch``, each from the
  same initialisation, so every round repeats round 1 bit for bit;
* ``evaluate`` on the test split at k = 10, 20, 30, 40 with round-1 parameters;
* a closed-loop predict stream with one caller: ``forward`` then ``top_k(., 10)``
  for one user (every prepared user in turn), the next request sent when the
  previous one returns;
* checkpoint cycles: ``save_checkpoint`` of the full resumable state that ``fit``
  writes every epoch, then ``load_checkpoint``.

Untraced (``--trace 0``), after round 1 and a warm-up cycle the phases take
turns until ``--seconds`` is used, with a pass of ``yardstick.py`` between any
two phases.  The end-to-end metrics are printed, every timing scaled by the
yardstick passes around it to the workload's nominal machine speed.  Traced
(``--trace 1``), the phases do a fixed amount of work, untraced before and
after one pass with spans around every layer's functions; the per-layer
metrics and the tracing overhead are printed.  Correctness checks run in
both modes and count towards ``failed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean

from envinfo import manifest, pin_to_one_cpu
from reference import ids_match, logits_match, reference_logits
from stats import check_name, median, samples_needed, window_percentiles
from tracing import Tracer
from workloads import HISTORY_LEN, WORKLOADS, make_corpus
from yardstick import Yardstick

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "pietsp"

K_LIST = (10, 20, 30, 40)
TOP = 10
TRACE_SETUP_REPEATS = 3
PHASE_SHARES = {"train": 0.4, "eval": 0.2, "predict": 0.25, "ckpt": 0.15}  # of each cycle's time
PHASE_MINIMUM = {"eval": 1, "predict": 1, "ckpt": 2}  # per cycle; two checkpoint cycles outrun the share on large-vocab
MIN_EVAL_PASSES = 5
MIN_CKPT_CYCLES = 5
CHECK_USERS = 16
WINDOW = samples_needed(99)  # predict requests per latency window: 1000, so each window has a p99
TAIL_WINDOW = samples_needed(95)  # 200, the window of the bounded tail metric, predict_p95_ms


def _import_pietsp():
    import pietsp

    if Path(pietsp.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"pietsp was imported from {pietsp.__file__}, not from this checkout's src/")
    from pietsp import checkpoint, data, metrics, model, optim, seeding, train

    return checkpoint, data, metrics, model, optim, seeding, train


class Checks:
    """Correctness checks, counted by kind.

    A run makes thousands of predict checks but only 16 reference checks, so a
    pass rate over all of them would hide a reference or checkpoint mismatch.
    ``pass_rate`` is therefore the lowest pass rate of any kind.
    """

    def __init__(self):
        self.tried: Counter[str] = Counter()
        self.missed: Counter[str] = Counter()

    def __call__(self, kind: str, ok: bool, what: str) -> None:
        self.tried[kind] += 1
        if not ok:
            self.missed[kind] += 1
            print(f"check failed: {what}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(self.tried.values())

    @property
    def failed(self) -> int:
        return sum(self.missed.values())

    def pass_rate(self) -> float:
        return min(1.0 - self.missed[kind] / n for kind, n in self.tried.items())

    def by_kind(self) -> dict:
        return {kind: {"attempted": n, "failed": self.missed[kind]} for kind, n in sorted(self.tried.items())}


@dataclass
class Setup:
    train_corpus: object
    test_corpus: object
    k_max: int
    train: list
    test: list
    params: object

    def __post_init__(self):
        self.served = self.train + self.test  # the predict stream cycles over every prepared user


SAMPLES = ("epoch_s", "eval_s", "predict_s", "save_s", "load_s", "setup_s")  # the timed operations
PHASE_SAMPLES = {"train": ("epoch_s",), "eval": ("eval_s",), "predict": ("predict_s",),
                 "ckpt": ("save_s", "load_s")}


@dataclass
class Phases:
    """What one pass through the pipeline measured."""

    epoch_s: list[float] = field(default_factory=list)
    round1_losses: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    report: object = None
    predict_s: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    ckpt_bytes: int = 0
    setup_s: list[float] = field(default_factory=list)
    yard_s: list[float] = field(default_factory=list)  # yardstick passes, one between any two phases
    # For each sample list above, the mean of the two yardstick passes around each sample's phase.
    yard_at: dict[str, list[float]] = field(default_factory=lambda: {name: [] for name in SAMPLES})
    wall_s: dict[str, float] = field(default_factory=dict)
    flops: int = 0          # forward FLOPs, from the shapes of every user passed through forward
    forward_calls: int = 0
    zeros_like_calls: int = 0

    def clear_timings(self) -> None:
        for name in SAMPLES:
            getattr(self, name).clear()
            self.yard_at[name].clear()
        del self.yard_s[:-1]  # the last pass opens the next phase
        self.wall_s.clear()

    def scaled(self, name: str, nominal_s: float | None) -> list[float]:
        """Samples ``name``, each times ``nominal_s`` over the yardstick around it; as measured if None."""
        samples = getattr(self, name)
        if nominal_s is None:
            return list(samples)
        return [t * nominal_s / y for t, y in zip(samples, self.yard_at[name], strict=True)]


def forward_flops(n: int, k: int, d: int, vocab: int) -> int:
    """Multiply-adds (x2) of the forward's products: PE, EE, PI, GE, plus fusion."""
    return 4 * n * (k + d) * d + 2 * n * d * d + 2 * n * d + 6 * d * d + 2 * vocab * d + 2 * vocab + 2 * n


class Bench:
    def __init__(self, workload, corpus_path: Path, workdir: Path):
        (self.checkpoint, self.data, self.metrics, self.model, self.optim, self.seeding,
         self.train) = _import_pietsp()
        self.workload = workload
        self.corpus_path = corpus_path
        self.workdir = workdir
        # The default config, seed included: --seed varies the corpus, not the initialisation.
        self.config = self.train.TrainConfig()
        self.check = Checks()
        self.yardstick = Yardstick(workload.vocab_size, workload.universe, HISTORY_LEN, self.config.dim)

    def _flops(self, sample) -> int:
        n, k = sample.membership.shape
        return forward_flops(n, k, self.config.dim, sample.vocab_size)

    # -- set-up -----------------------------------------------------------
    def setup(self) -> tuple[float, Setup]:
        data, cfg = self.data, self.config
        t0 = time.perf_counter()
        corpus, _ = data.load_corpus(self.corpus_path)
        train_c, _val_c, test_c = data.split_users(corpus, cfg.split_ratios, self.seeding.spawn_seed(cfg.seed, "split"))
        k_max = data.max_history_len(train_c)
        train_s = data.prepare_all(train_c, k_max)
        test_s = data.prepare_all(test_c, k_max)
        params = self.model.init_params(corpus.vocab_size, cfg.dim, k_max, self.seeding.spawn_seed(cfg.seed, "init"))
        return time.perf_counter() - t0, Setup(train_c, test_c, k_max, train_s, test_s, params)

    # -- operations (each appends its timing to ``out``) ----------------------
    def train_epoch(self, s: Setup, rounds: "Rounds", out: Phases) -> None:
        """The next epoch of the current training round; a new round starts from the same init."""
        cfg, epochs = self.config, self.workload.epochs
        epoch = rounds.done % epochs
        if rounds.done and epoch == 0:
            rounds.params = self.model.init_params(s.params.vocab_size, cfg.dim, s.k_max,
                                                   self.seeding.spawn_seed(cfg.seed, "init"))
            rounds.opt = self.optim.AdamState.init(rounds.params)
        t0 = time.perf_counter()
        loss = self.train.train_epoch(s.train, rounds.params, rounds.opt, cfg, epoch)
        out.epoch_s.append(time.perf_counter() - t0)
        out.flops += rounds.epoch_flops
        out.forward_calls += len(s.train)
        if rounds.done < epochs:
            out.round1_losses.append(loss)
        self.check("train_repeat", loss == out.round1_losses[epoch],
                   f"round {rounds.done // epochs + 1} epoch {epoch} repeats round 1")
        rounds.done += 1
        if rounds.done == epochs:
            rounds.round1 = (rounds.params, rounds.opt)

    def eval_pass(self, s: Setup, params, out: Phases) -> None:
        t0 = time.perf_counter()
        report = self.train.evaluate(s.test, params, K_LIST)
        out.eval_s.append(time.perf_counter() - t0)
        out.flops += sum(self._flops(x) for x in s.test)
        out.forward_calls += len(s.test)
        if out.report is None:
            out.report = report
        self.check("eval_repeat", report.to_dict() == out.report.to_dict(), "evaluate repeats on unchanged parameters")

    def predict_request(self, s: Setup, params, out: Phases) -> None:
        """One closed-loop request: the next user's forward, then its top 10."""
        i = len(out.predict_s)
        sample = s.served[i % len(s.served)]
        t0 = time.perf_counter()
        ids = self.metrics.top_k(self.model.forward(sample, params).logits, TOP)
        out.predict_s.append(time.perf_counter() - t0)
        out.flops += self._flops(sample)
        out.forward_calls += 1
        self.check("predict", len(set(ids.tolist())) == TOP and 0 <= ids.min() and ids.max() < params.vocab_size,
                   f"request {i} returned {TOP} distinct in-vocabulary ids")

    def ckpt_cycle(self, rounds: "Rounds", out: Phases) -> None:
        """Save the resumable state ``fit`` writes after round 1's last epoch, then load it back."""
        params, opt = rounds.round1
        cfg = self.config
        if rounds.ckpt_state is None:
            history = [
                {"epoch": e, "lr": self.optim.cosine_lr(e, cfg.max_epochs, cfg.base_lr), "train_loss": loss}
                for e, loss in enumerate(out.round1_losses)
            ]
            rounds.ckpt_state = {
                "seed": cfg.seed,
                "config": cfg.to_dict(),
                "opt_state": opt,
                "train_state": {
                    "epoch": len(history) - 1,
                    "best_metric": out.report.ndcg[10],
                    "best_epoch": len(history) - 1,
                    "bad_epochs": 0,
                    "history": history,
                    "best_params": params.copy(),
                },
            }
        path = self.workdir / "checkpoint-latest.json"
        t0 = time.perf_counter()
        self.checkpoint.save_checkpoint(path, params, **rounds.ckpt_state)
        t1 = time.perf_counter()
        loaded = self.checkpoint.load_checkpoint(path)
        t2 = time.perf_counter()
        out.save_s.append(t1 - t0)
        out.load_s.append(t2 - t1)
        out.ckpt_bytes = path.stat().st_size
        self.check("checkpoint", _same_checkpoint(loaded, params, rounds.ckpt_state),
                   "checkpoint save -> load is bit-exact")

    def reference_checks(self, s: Setup, params) -> None:
        """Logits and top-10 of a fixed subset of test users against the plain-numpy reference."""
        for user, sample in list(zip(s.test_corpus.users, s.test))[:CHECK_USERS]:
            ref = reference_logits(user.sets, params, s.k_max)
            got = self.model.forward(sample, params).logits
            self.check("reference_logits", logits_match(got, ref), f"user {user.user_id}: logits match the reference")
            ids = self.metrics.top_k(got, TOP)
            self.check("reference_top10", ids_match(ids, ref, TOP),
                       f"user {user.user_id}: top-{TOP} matches the reference")

    # -- the pipeline -----------------------------------------------------------
    def pipeline(self, s: Setup, budget_s: float, fixed: bool, tracer=None, check: bool = True) -> Phases:
        """Round 1 of training, the reference checks, then evaluate, predict and checkpoint.

        ``fixed`` does the workload's fixed traced work, one phase after the
        other.  Otherwise the pipeline runs cycles: one more training epoch,
        then evaluate passes, predict requests, checkpoint cycles and one
        set-up, each for its PHASE_SHARES share of the cycle.  The first cycle
        is a warm-up; the others are timed until ``budget_s`` is used.
        Interleaving spreads every metric's samples over the whole run, so a
        burst of machine noise cannot fall on one phase alone.  In the timed
        cycles a yardstick pass runs between any two phases, and each sample
        is paired with the mean of the two passes around it (``yard_at``).
        With a ``tracer``, each phase runs inside root spans named after it.
        """
        w = self.workload
        out = Phases()
        rounds = Rounds(s.params, self.optim.AdamState.init(s.params), sum(self._flops(x) for x in s.train))

        def run(phase, op, budget, minimum=1) -> float:
            t0 = time.perf_counter()
            with tracer.span(f"bench.{phase}") if tracer else nullcontext():
                done = 0
                while done < minimum or time.perf_counter() - t0 < budget:
                    op()
                    done += 1
            elapsed = time.perf_counter() - t0
            out.wall_s[phase] = out.wall_s.get(phase, 0.0) + elapsed
            return elapsed

        train_op = lambda: self.train_epoch(s, rounds, out)  # noqa: E731
        ops = {
            "eval": lambda: self.eval_pass(s, rounds.round1[0], out),
            "predict": lambda: self.predict_request(s, rounds.round1[0], out),
            "ckpt": lambda: self.ckpt_cycle(rounds, out),
        }

        def between_yardsticks(names, body, *args):
            """Run ``body``, then a yardstick pass; pair the samples it added with the passes around it."""
            sizes = [len(getattr(out, name)) for name in names]
            result = body(*args)
            out.yard_s.append(self.yardstick())
            around = (out.yard_s[-2] + out.yard_s[-1]) / 2
            for name, size in zip(names, sizes):
                out.yard_at[name].extend([around] * (len(getattr(out, name)) - size))
            return result

        run("train", train_op, 0.0, w.epochs)
        if check:
            self.reference_checks(s, rounds.round1[0])
        if fixed:
            for phase, minimum in (("eval", w.trace_eval_passes), ("predict", w.trace_requests),
                                   ("ckpt", w.trace_ckpt_cycles)):
                run(phase, ops[phase], 0.0, minimum)
            return out
        out.yard_s.append(self.yardstick())
        for cycle in itertools.count():
            epoch_s = between_yardsticks(PHASE_SAMPLES["train"], run, "train", train_op, 0.0)
            for phase, op in ops.items():
                budget = epoch_s * PHASE_SHARES[phase] / PHASE_SHARES["train"]
                between_yardsticks(PHASE_SAMPLES[phase], run, phase, op, budget, PHASE_MINIMUM[phase])
            between_yardsticks(("setup_s",), lambda: out.setup_s.append(self.setup()[0]))
            if cycle == 0:
                # Warm-up: the first large frees (checkpoint buffers) move glibc's mmap
                # threshold, after which |E|-sized zero tables stop page-faulting and
                # training speeds up for the rest of the process.
                out.clear_timings()
                start = time.perf_counter()
            elif (time.perf_counter() - start >= budget_s and len(out.eval_s) >= MIN_EVAL_PASSES
                    and len(out.predict_s) >= WINDOW and len(out.save_s) >= MIN_CKPT_CYCLES):
                return out


@dataclass
class Rounds:
    """Training state: rounds of ``workload.epochs`` epochs, each from the same initialisation."""

    params: object
    opt: object
    epoch_flops: int
    done: int = 0                  # epochs run so far, over all rounds
    round1: tuple | None = None    # (params, optimizer state) after round 1
    ckpt_state: dict | None = None


def _same_checkpoint(loaded, params, state) -> bool:
    def same_params(a, b) -> bool:
        return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                   for (_, x), (_, y) in zip(a.slots(), b.slots()))

    opt, ts = state["opt_state"], state["train_state"]
    lts = loaded.train_state or {}
    return (
        same_params(loaded.params, params)
        and loaded.seed == state["seed"]
        and loaded.config == state["config"]
        and loaded.opt_state is not None
        and loaded.opt_state.step == opt.step
        and same_params(loaded.opt_state.m, opt.m)
        and same_params(loaded.opt_state.v, opt.v)
        and {k: v for k, v in lts.items() if k != "best_params"}
        == {k: v for k, v in ts.items() if k != "best_params"}
        and lts.get("best_params") is not None
        and same_params(lts["best_params"], ts["best_params"])
    )


# -- metrics ------------------------------------------------------------------

def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(bench: Bench, s: Setup, p: Phases, scaled: bool = True) -> dict:
    """The end-to-end metrics, each timing scaled to the workload's nominal machine speed.

    Every timed operation is multiplied by ``yardstick_ms`` over the mean of
    the two yardstick passes around its phase.  ``scaled=False`` gives the
    timings as measured, which the report line also lists.
    """
    nominal = bench.workload.yardstick_ms / 1e3 if scaled else None
    epoch_s, eval_s, predict_s, save_s, load_s, setup_s = (p.scaled(name, nominal) for name in SAMPLES)
    return {
        "setup_s": _m(median(setup_s), "s"),
        "train_users_per_s": _m(len(s.train) / fmean(epoch_s), "users/s"),
        "eval_users_per_s": _m(p.report.users_evaluated / fmean(eval_s), "users/s"),
        "predict_p50_ms": _m(1e3 * fmean(window_percentiles(predict_s, 50, WINDOW)), "ms"),
        "predict_p95_ms": _m(1e3 * fmean(window_percentiles(predict_s, 95, TAIL_WINDOW)), "ms"),
        "ckpt_save_ms": _m(1e3 * fmean(save_s), "ms"),
        "ckpt_load_ms": _m(1e3 * fmean(load_s), "ms"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_loss": _m(p.round1_losses[-1], "nats"),
        "pass_rate": _m(bench.check.pass_rate(), "ratio"),
    }


def per_layer_metrics(stats, s: Setup, p: Phases, plain: list[Phases], setups: int) -> dict:
    """Per-layer metrics of a traced pass ``p``; ``plain`` holds passes of the same work untraced."""

    def total(name, phase=None, attr="total_ns"):
        return sum(getattr(v, attr) for (ph, n), v in stats.items() if n == name and phase in (None, ph))

    def calls(name, phase=None):
        return sum(v.calls for (ph, n), v in stats.items() if n == name and phase in (None, ph))

    def per_call_us(name, attr="total_ns"):
        c = calls(name)
        return total(name, attr=attr) / c / 1e3 if c else 0.0

    trained = len(p.epoch_s) * len(s.train)
    evaluated = len(p.eval_s) * p.report.users_evaluated
    prepared = setups * (len(s.train) + len(s.test))
    steps = calls("optim.adam_step", "bench.train")
    fwd_ns = total("model.forward")
    m = {
        "model.forward.us_per_user": _m(per_call_us("model.forward"), "us"),
        "model.forward.self_us_per_user": _m(per_call_us("model.forward", "self_ns"), "us"),
    }
    for fn in ("pe_forward", "ee_forward", "pi_forward", "ge_forward", "fuse_scores", "backward"):
        m[f"model.{fn}.us_per_user"] = _m(per_call_us(f"model.{fn}"), "us")
    m.update({
        "train.bce_loss.us_per_user": _m(per_call_us("train.bce_loss"), "us"),
        "train.train_epoch.self_us_per_user": _m(total("train.train_epoch", attr="self_ns") / trained / 1e3, "us"),
        "optim.adam_step.us_per_step": _m(per_call_us("optim.adam_step"), "us"),
        "optim.adam_step.calls": _m(steps, "count"),
        "metrics.top_k.us_per_user": _m(per_call_us("metrics.top_k"), "us"),
        "metrics.ndcg_at_k.us_per_user": _m(total("metrics.ndcg_at_k", "bench.eval") / evaluated / 1e3, "us"),
        "metrics.recall_at_k.us_per_user": _m(total("metrics.recall_at_k", "bench.eval") / evaluated / 1e3, "us"),
        "train.evaluate.self_us_per_user": _m(total("train.evaluate", attr="self_ns") / evaluated / 1e3, "us"),
        "checkpoint.checkpoint_bytes.ms": _m(per_call_us("checkpoint.checkpoint_bytes") / 1e3, "ms"),
        "checkpoint.save_checkpoint.self_ms": _m(per_call_us("checkpoint.save_checkpoint", "self_ns") / 1e3, "ms"),
        "checkpoint.load_checkpoint.ms": _m(per_call_us("checkpoint.load_checkpoint") / 1e3, "ms"),
        "checkpoint.bytes": _m(p.ckpt_bytes, "bytes"),
        "data.load_corpus.ms": _m(per_call_us("data.load_corpus") / 1e3, "ms"),
        "data.prepare_all.us_per_user": _m(total("data.prepare_all") / prepared / 1e3, "us"),
        "linalg.check_finite.calls_per_user": _m(calls("linalg.check_finite", "bench.train") / trained, "count"),
        "linalg.check_finite.us_per_user": _m(total("linalg.check_finite", "bench.train") / trained / 1e3, "us"),
        "model.zeros_like.calls_per_step": _m(p.zeros_like_calls / steps if steps else 0.0, "count"),
        "model.forward.mflop_per_user": _m(p.flops / p.forward_calls / 1e6, "MFLOP"),
        "model.forward.gflop_per_s": _m(p.flops / fwd_ns if fwd_ns else 0.0, "GFLOP/s"),
    })
    base = {phase: min(q.wall_s[phase] for q in plain) for phase in p.wall_s}
    for phase in p.wall_s:
        m[f"trace.{phase}.overhead_pct"] = _m(100.0 * (p.wall_s[phase] / base[phase] - 1.0), "%")
    m["trace.overhead_pct"] = _m(100.0 * (sum(p.wall_s.values()) / sum(base.values()) - 1.0), "%")
    return m


def _process_usage() -> dict:
    """CPU time and page faults of this process; wall time beyond CPU time is time spent waiting."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": time.perf_counter() - _START,
        "user_s": ru.ru_utime,
        "sys_s": ru.ru_stime,
        "minor_faults": ru.ru_minflt,
        "major_faults": ru.ru_majflt,
        "involuntary_switches": ru.ru_nivcsw,
    }


# -- entry points -------------------------------------------------------------

def cmd_generate(args) -> int:
    _import_pietsp()
    from pietsp.data import save_corpus

    save_corpus(make_corpus(WORKLOADS[args.workload], args.seed), args.out)
    return 0


def cmd_run(args, cpu: int, affinity_before: set[int]) -> int:
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, Path(args.corpus), Path(args.workdir))
    if args.trace:
        # Untraced passes before and after the traced one; the faster sets the overhead base.
        _, s = bench.setup()
        plain = [bench.pipeline(s, 0.0, fixed=True)]
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                for _ in range(TRACE_SETUP_REPEATS):
                    _, s = bench.setup()
            phases = bench.pipeline(s, 0.0, fixed=True, tracer=tracer, check=False)
        finally:
            tracer.uninstall()
        _, s_after = bench.setup()
        plain.append(bench.pipeline(s_after, 0.0, fixed=True, check=False))
        # Calls the library makes while training; the benchmark's own AdamState.init is left out.
        phases.zeros_like_calls = sum(
            n for (phase, caller, name), n in tracer.counts.items()
            if (phase, name) == ("bench.train", "model.zeros_like") and caller != phase
        )
        metrics = per_layer_metrics(tracer.aggregate(), s, phases, plain, TRACE_SETUP_REPEATS)
        counts = {"spans": len(tracer.names), "setup_repeats": TRACE_SETUP_REPEATS}
        yardstick = None
        unbounded = {}
    else:
        _, s = bench.setup()
        phases = bench.pipeline(s, float(args.seconds), fixed=False)
        metrics = end_to_end_metrics(bench, s, phases)
        counts = {"setup_repeats": len(phases.setup_s), "yardstick_passes": len(phases.yard_s)}
        # p99 is reported but not bounded: its spread follows how often other tenants interrupt.
        scaled_predict_s = phases.scaled("predict_s", workload.yardstick_ms / 1e3)
        unbounded = {"predict_p99_ms": _m(1e3 * fmean(window_percentiles(scaled_predict_s, 99, WINDOW)), "ms")}
        yardstick = {
            "nominal_ms": workload.yardstick_ms,
            "mean_ms": 1e3 * fmean(phases.yard_s),
            "unscaled_metrics": {n: m["value"] for n, m in end_to_end_metrics(bench, s, phases, False).items()},
        }
    counts.update({
        "train_users": len(s.train),
        "test_users": len(s.test),
        "epochs": len(phases.epoch_s),
        "eval_passes": len(phases.eval_s),
        "predict_requests": len(phases.predict_s),
        "ckpt_cycles": len(phases.save_s),
    })
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": counts,
        "manifest": manifest(ROOT, PACKAGE_DIR, cpu, affinity_before),
        "metrics": metrics,
        "checks": bench.check.by_kind(),
        "yardstick": yardstick,
        "unbounded_metrics": unbounded,
        "evaluate": phases.report.to_dict(),
        "process": _process_usage(),
    }
    for name, m in metrics.items():
        print(f"{check_name(name):<40} {m['value']:>14.6g} {m['unit']}")
    for name, m in unbounded.items():
        print(f"{check_name(name):<40} {m['value']:>14.6g} {m['unit']} (report only, not bounded)")
    print(f"predict requests: {counts['predict_requests']}, epochs: {counts['epochs']}, "
          f"eval passes: {counts['eval_passes']}, checkpoint cycles: {counts['ckpt_cycles']}, "
          f"checks failed: {bench.check.failed} of {bench.check.attempted} operations")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bench.check.failed == 0,
        "attempted": bench.check.attempted,
        "failed": bench.check.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--corpus", required=True)
    run.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    affinity_before = os.sched_getaffinity(0)
    cpu = pin_to_one_cpu()
    if args.cmd == "generate":
        return cmd_generate(args)
    return cmd_run(args, cpu, affinity_before)


if __name__ == "__main__":
    sys.exit(main())
