"""Training loop: multi-label loss, batched epochs, early stopping, evaluation.

A training instance is a prefix of a user's history (``fit``), and a
minibatch is ``batch_size`` instances of the shuffled order.  It runs through
the model's ragged-batch engine (no padding: the users' universes are
stacked), one training call (``model.bce_gradients``) per ``model.batches``
run of it, each adding into one gradient buffer per minibatch, which is
averaged and applied in a single optimizer step; the one gradient buffer of
an epoch is zeroed and averaged in one pass each.  A training call takes
the forward pass, the loss and the backward pass one item block at a time,
so it holds no B x |E| block.  Its d_logits have the bits of ``bce_loss``,
the public reference loss, which runs on a whole logit block; its losses
agree with ``bce_loss``'s to a few units in the last place, because it sums
log(1 + exp(-|y|)) through products (``linalg.sum_log``) and the rows block
by block.  So a fit differs from one through ``bce_loss`` in the last bits.
An engine call's ground truth for evaluation is one B x |E| bool block,
``Batch.truth``.
``ranked_batches`` ranks each engine call's score block at once: evaluation
looks its top ids up in the truth block and scores those hits with
``metrics.hit_metrics``, and ``pietsp predict`` writes the ids.  The
per-epoch shuffle is keyed by (seed, epoch), so resuming from a checkpoint
replays the identical stream; a run that has met its patience resumes to
no further epoch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real

import numpy as np

from . import seeding
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import Corpus, PreparedSample, UserRecord, check_split_ratios, max_history_len, prepare_all
from .errors import PietspError
from .linalg import NumericsError, exp_neg_abs, logistic_from, softplus_from
from .metrics import MetricReport, hit_metrics, top_k_rows
from .model import LOSS_RUN, MappingError, ModelParams, VARIANTS, batches, bce_gradients, forward, forward_batch, init_params  # noqa: F401  forward stays importable from here
from .optim import AdamState, OptimizerError, adam_step, cosine_lr

EARLY_STOP_K = 10  # early stopping watches validation NDCG at this k
# removed setting -> the one value runs used
REMOVED_SETTINGS = {"l2": 0.0, "l2_coeff": 0.0, "decay_fusion": False, "early_stop_k": EARLY_STOP_K}
# the TrainConfig fields a resume may change: neither changes any epoch's update; every other field must match
RESUME_MAY_CHANGE = ("patience", "k_list")
# the trainer state's "instances": what ``fit`` trains on; a checkpoint without it trained on each user's last set
INSTANCES = "every-prefix"
SEQUENCES = (list, tuple, np.ndarray)  # what k_list and split_ratios may be given as


def _is_a(value, kind) -> bool:
    """``isinstance(value, kind)`` for a ``numbers`` class (numpy scalars included), never true of a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    batch_size: int = 64
    dim: int = 32
    base_lr: float = 0.001
    weight_decay: float = 0.01     # decoupled, on the weight slots only
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    k_list: tuple[int, ...] = (10, 20, 30, 40)
    variant: str = "full"
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)

    def __post_init__(self):
        for name in ("batch_size", "dim", "max_epochs", "patience", "seed"):
            if not _is_a(getattr(self, name), Integral):
                raise PietspError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("batch_size", "dim", "max_epochs"):
            if getattr(self, name) < 1:
                raise PietspError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise PietspError(f"seed must be non-negative, got {self.seed}")
        for name in ("base_lr", "weight_decay"):
            if not _is_a(getattr(self, name), Real):
                raise PietspError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise PietspError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise PietspError(f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        if not 1 <= self.patience <= self.max_epochs:
            raise PietspError(f"patience must lie in [1, max_epochs], got patience {self.patience} with max_epochs"
                              f" {self.max_epochs}: lower --patience or raise --epochs")
        if self.variant not in VARIANTS:
            raise PietspError(f"unknown variant '{self.variant}'")
        self.k_list, ratios = checked_k_list(self.k_list, "TrainConfig"), self.split_ratios
        if not (isinstance(ratios, SEQUENCES) and len(ratios) == 3 and all(_is_a(r, Real) for r in ratios)):
            raise PietspError(f"split_ratios must be three numbers, got {ratios!r}")
        self.split_ratios = tuple(float(r) for r in ratios)
        check_split_ratios(self.split_ratios)

    def to_dict(self) -> dict:
        return asdict(self) | {"k_list": list(self.k_list), "split_ratios": list(self.split_ratios)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config a checkpoint records, its k_list read with each k once, in first-seen order: a
        checkpoint written before a repeated k was refused still evaluates and predicts."""
        fields = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        ks = fields.get("k_list")
        if isinstance(ks, SEQUENCES):  # compared, not hashed: an entry that is a list is refused by name
            fields["k_list"] = [k for i, k in enumerate(ks) if k not in ks[:i]]
        return cls(**fields)


def checked_k_list(k_list, where: str) -> tuple[int, ...]:
    """``k_list`` as a tuple of ints, the one check of a k list (``TrainConfig``, ``evaluate``, ``pietsp eval
    --k``): a list, tuple or 1-D array, non-empty, every k an integer (not a bool) of at least 1, none given twice.

    A repeated k, whose metrics a report would add twice, is refused naming ``where`` and every such k.
    """
    if not (isinstance(k_list, SEQUENCES) and getattr(k_list, "ndim", 1) == 1 and len(k_list)
            and all(_is_a(k, Integral) and k >= 1 for k in k_list)):
        raise PietspError(f"k_list must be non-empty and its entries integers of at least 1: got {k_list!r}")
    k_list = tuple(int(k) for k in k_list)
    repeated = sorted({k for k in k_list if k_list.count(k) > 1})
    if repeated:
        raise PietspError(f"{where}: k_list repeats k = {', '.join(map(str, repeated))}; give each k once")
    return k_list


def reject_removed_settings(saved: dict, where) -> None:
    """Raise naming the key if ``saved`` gives a removed setting anything but the value runs used."""
    for key, value in REMOVED_SETTINGS.items():
        if key in saved and saved[key] != value:
            raise PietspError(f"{where}: setting '{key}' = {saved[key]!r} was removed; only {value!r} is accepted")


def bce_loss(logits: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Mean binary cross-entropy over the vocabulary, per row of logits, in stable logit form: the
    reference for the training call's loss pass (``model.bce_gradients``).

    ``targets`` indexes the positive entries, ``logits[targets]``: for a
    (B, |E|) block the pair (user rows, item ids), or a boolean mask shaped
    like ``logits``.  Per row,
    loss = mean_j [softplus(y_j) - t_j * y_j], and
    d loss / d y_j = (sigmoid(y_j) - t_j) / |E|.
    Returns (the loss of every row, d_logits); ``logits`` is left as it was.
    The rows of its copy are taken in chunks of whole rows, each at most
    ``LOSS_RUN`` elements (one row when a row is longer), so every temporary
    is chunk-sized.  Per chunk, one exp(-|y|) serves the softplus terms
    (``log1p``), whose rows are summed, and then the logistic, written over
    the chunk's logits.  Each row is still one pairwise ``sum``, so the bits
    are those of the whole block taken at once.
    """
    d_logits = np.array(logits, order="C")
    marks = np.zeros(d_logits.shape, dtype=bool)  # the targets, one byte a logit
    try:
        marks[targets] = True
    except IndexError as exc:
        raise PietspError(f"bce_loss: targets do not index logits of shape {logits.shape}: {exc}") from None
    n = d_logits.shape[-1]
    rows, marks = d_logits.reshape(-1, n), marks.reshape(-1, n)
    loss = np.empty(rows.shape[0], d_logits.dtype)
    step = max(1, LOSS_RUN // max(n, 1))
    for start in range(0, rows.shape[0], step):
        y, hit = rows[start : start + step], np.flatnonzero(marks[start : start + step])
        e = exp_neg_abs(y)
        terms = softplus_from(y, e)
        terms.flat[hit] -= y.flat[hit]
        loss[start : start + step] = terms.sum(axis=-1) / n
        logistic_from(y, e, out=y)
        y.flat[hit] -= 1
        y /= n
    return loss.reshape(d_logits.shape[:-1])[()], d_logits  # a scalar loss for 1-D logits


def add_gradients(samples: list[PreparedSample], params: ModelParams, variant: str, grads: ModelParams) -> list[float]:
    """Add the BCE gradients of every sample, summed, into ``grads``; returns each sample's loss.

    One ``bce_gradients`` call per ``batches`` run of the samples.
    """
    losses = []
    for batch in batches(samples, params.vocab_size):
        losses.extend(bce_gradients(batch, params, variant, grads).tolist())
    return losses


def train_epoch(
    samples: list[PreparedSample],
    params: ModelParams,
    opt_state: AdamState,
    config: TrainConfig,
    epoch: int,
) -> float:
    """One pass over the samples; returns the mean training loss.

    A ``NumericsError``, ``MappingError`` or ``OptimizerError`` raised by a
    minibatch keeps its type and message and gains "epoch E, step S", S
    counting the epoch's optimizer steps from 0.
    """
    if not samples:
        raise PietspError("train_epoch: no samples")
    order = seeding.rng(config.seed, "shuffle", epoch).permutation(len(samples))
    lr = cosine_lr(epoch, config.max_epochs, config.base_lr)
    total_loss = 0.0
    grads = params.zeros_like()
    for step, start in enumerate(range(0, len(order), config.batch_size)):
        try:
            chunk = [samples[i] for i in order[start : start + config.batch_size]]
            grads.flat.fill(0)
            for loss in add_gradients(chunk, params, config.variant, grads):
                total_loss += loss
            grads.flat *= 1.0 / len(chunk)
            adam_step(params, grads, opt_state, lr, config.weight_decay)
        except (NumericsError, MappingError, OptimizerError) as exc:
            exc.args = (f"{exc} (epoch {epoch}, step {step})",)
            raise
    return total_loss / len(samples)


def _checked_scores(score_fn, sample: PreparedSample, vocab_size: int) -> np.ndarray:
    scores = np.asarray(score_fn(sample))
    if scores.shape != (vocab_size,):
        raise PietspError(
            f"evaluate: score_fn gave user '{sample.user_id}' scores of shape {scores.shape}, expected ({vocab_size},)"
        )
    if not np.isfinite(scores).all():
        raise NumericsError(f"evaluate: score_fn gave user '{sample.user_id}' non-finite scores")
    return scores


def ranked_batches(samples: list[PreparedSample], params: ModelParams, k: int, variant: str = "full", score_fn=None):
    """Each engine call's ``Batch`` (``model.batches``) and the ids of its users' top ``k`` items, one row a
    user (``top_k_rows``), ranked from the model's logits or, given ``score_fn``, from its checked scores."""
    for batch in batches(samples, params.vocab_size):
        if score_fn is None:
            scores = forward_batch(batch, params, variant).logits
        else:
            scores = np.stack([_checked_scores(score_fn, s, params.vocab_size) for s in batch.samples])
        yield batch, top_k_rows(scores, k)


def evaluate(
    samples: list[PreparedSample],
    params: ModelParams,
    k_list: tuple[int, ...] = TrainConfig.k_list,
    variant: str = "full",
    score_fn=None,
) -> MetricReport:
    """Rank every user's vocabulary scores and average the metrics.

    Read-only with respect to ``params``.  ``score_fn`` (sample -> scores)
    replaces the model forward when given; used for baselines and tests.
    Each of its score vectors must be finite and shaped (|E|,), or the
    ``PietspError`` (``NumericsError`` for a non-finite score) names the
    user.  Users with an empty target are skipped.  ``ranked_batches`` ranks
    each engine call's score block at once, whose top ids are looked up in
    the call's ``Batch.truth``; ``hit_metrics`` scores those hits in rank
    order at every k, and the report averages its rows.  A ``k_list`` that
    ``checked_k_list`` refuses raises its ``PietspError`` before any engine call.
    """
    k_list = checked_k_list(k_list, "evaluate")
    scored = [s for s in samples if s.target_ids.size]
    if not scored:
        raise PietspError("evaluate: no users with non-empty targets")
    sums = np.zeros((len(k_list), 3))  # recall, NDCG and hits summed over users, one row a k
    for batch, ranked in ranked_batches(scored, params, max(k_list), variant, score_fn):
        truth = batch.truth(params.vocab_size)
        n_truth = np.count_nonzero(truth, axis=1)
        hits = truth[np.arange(batch.size)[:, None], ranked]
        for row, k in zip(sums, k_list):
            row += [part.sum() for part in hit_metrics(hits, n_truth, k)]
    used = len(scored)
    recall, ndcg, phr = (dict(zip(k_list, column.tolist())) for column in (sums / used).T)
    return MetricReport(k_list=k_list, recall=recall, ndcg=ndcg, phr=phr, users_evaluated=used,
                        users_skipped=len(samples) - used)


@dataclass
class FitResult:
    params: ModelParams            # best-validation parameters
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("nan")
    epochs_run: int = 0
    k_max: int = 1


def resumable_checkpoint(path, config: TrainConfig, vocab_size: int) -> Checkpoint:
    """The checkpoint at ``path``, checked to continue a run of ``config`` on a corpus of ``vocab_size``
    items: it holds the optimizer and trainer state, was trained on every history prefix (``INSTANCES``) and on
    that vocabulary size, records its config, sets no removed setting in it, and matches every setting but
    ``RESUME_MAY_CHANGE``."""
    ck = load_checkpoint(path)
    if ck.opt_state is None or ck.train_state is None:
        raise PietspError(f"{path}: checkpoint has no training state to resume")
    if ck.train_state.get("instances") != INSTANCES:
        raise PietspError(f"{path}: checkpoint was trained on each user's last set only, and training now takes every"
                          " history prefix, so it cannot be resumed; it still evaluates and predicts")
    if ck.params.vocab_size != vocab_size:
        raise PietspError(f"{path}: checkpoint was trained on vocab_size {ck.params.vocab_size}, but the corpus"
                          f" has vocab_size {vocab_size}")
    if ck.config is None:
        raise PietspError(f"{path} records no training config, so its settings cannot be checked")
    reject_removed_settings(ck.config, path)
    mismatched = [key for key, value in config.to_dict().items()
                  if key not in RESUME_MAY_CHANGE and ck.config.get(key) != value]
    if mismatched:
        raise PietspError(f"{path}: checkpoint was trained with different settings: {mismatched}")
    return ck


def fit(
    train_corpus: Corpus,
    val_corpus: Corpus,
    config: TrainConfig,
    resume_from=None,
    stop_after_epoch: int | None = None,
    eval_fn=None,
    latest_path=None,
    best_path=None,
) -> FitResult:
    """Train with early stopping on validation NDCG@EARLY_STOP_K.

    Every history prefix of a training user is a training instance: for
    each t >= 2, its first t - 1 sets predict set t.  The model's history
    width is still the longest training history.  Keeps the best-so-far
    parameters and stops after ``patience`` epochs without improvement,
    tested before each epoch, so resuming a run that met its patience
    trains no epoch.  ``latest_path``, when given, receives
    a resumable checkpoint after every epoch; ``resume_from`` (its path, or
    the ``Checkpoint`` that ``resumable_checkpoint`` returned for that path)
    restores one and continues the same run: its trainer-state dict is the
    run's state, updated in place and saved as it is, every key carried
    forward.  ``stop_after_epoch`` ends the loop early after that epoch
    completes (used to exercise resume).  ``eval_fn(params, epoch) -> float``
    overrides the validation metric (tests); a ``PietspError`` it raises
    gains "(epoch E, validation)".
    """
    if not train_corpus.users or not val_corpus.users:
        raise PietspError("fit: train and validation corpora must be non-empty")
    if train_corpus.vocab_size != val_corpus.vocab_size:
        raise PietspError("fit: train/validation vocabularies disagree")

    if resume_from is not None:
        ck = (resume_from if isinstance(resume_from, Checkpoint)
              else resumable_checkpoint(resume_from, config, train_corpus.vocab_size))
        params, opt_state, state = ck.params, ck.opt_state, ck.train_state
        if state.get("best_params") is None:
            state["best_params"] = params.copy()
    else:
        params = init_params(train_corpus.vocab_size, config.dim, max_history_len(train_corpus),
                             seeding.spawn_seed(config.seed, "init"))
        opt_state = AdamState.init(params)
        state = {"epoch": -1, "best_metric": None, "best_epoch": -1, "bad_epochs": 0, "history": [],
                 "best_params": params.copy(), "instances": INSTANCES}

    prefixes = tuple(UserRecord(u.user_id, u.sets[:t]) for u in train_corpus.users for t in range(2, len(u.sets) + 1))
    train_samples = prepare_all(Corpus(train_corpus.vocab_size, prefixes), params.k_max)
    val_samples = prepare_all(val_corpus, params.k_max)

    if eval_fn is None:
        def eval_fn(params, epoch):
            return evaluate(val_samples, params, (EARLY_STOP_K,), config.variant).ndcg[EARLY_STOP_K]

    for epoch in range(state["epoch"] + 1, config.max_epochs):
        if state["bad_epochs"] >= config.patience:
            break
        mean_loss = train_epoch(train_samples, params, opt_state, config, epoch)
        try:
            metric = float(eval_fn(params, epoch))
        except PietspError as exc:
            exc.args = (f"{exc} (epoch {epoch}, validation)",)
            raise
        state["history"].append(
            {
                "epoch": epoch,
                "lr": cosine_lr(epoch, config.max_epochs, config.base_lr),
                "train_loss": mean_loss,
                f"val_ndcg@{EARLY_STOP_K}": metric,
            }
        )
        state["epoch"] = epoch
        if state["best_metric"] is None or metric > state["best_metric"]:
            state.update(best_metric=metric, best_epoch=epoch, best_params=params.copy(), bad_epochs=0)
        else:
            state["bad_epochs"] += 1
        if latest_path is not None:
            save_checkpoint(latest_path, params, seed=config.seed, config=config.to_dict(), opt_state=opt_state,
                            train_state=state)
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            break

    if best_path is not None:
        save_checkpoint(best_path, state["best_params"], seed=config.seed, config=config.to_dict())
    return FitResult(
        params=state["best_params"],
        history=state["history"],
        best_epoch=state["best_epoch"],
        best_metric=float(state["best_metric"]),
        epochs_run=state["epoch"] + 1,
        k_max=params.k_max,
    )


def write_history(history: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
