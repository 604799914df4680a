"""Training loop: multi-label loss, batched epochs, early stopping, evaluation.

A minibatch is ``batch_size`` users of the shuffled order.  It runs through
the model's ragged-batch engine (no padding: the users' universes are
stacked), one call per ``batch_slices`` run of it, each call's backward
adding into one gradient buffer per minibatch, which is averaged and
applied in a single optimizer step.  The loss is evaluated on the B x |E|
logit block with sparse targets.  Evaluation ranks the same engine's
logits.  The per-epoch shuffle is keyed by (seed, epoch), so resuming from
a checkpoint replays the identical stream.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import seeding
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Corpus, PreparedSample, max_history_len, prepare_all
from .errors import PietspError
from .linalg import logistic, softplus
from .metrics import MetricReport, position_weights, top_k
from .model import ModelParams, VARIANTS, backward, batch_slices, forward, forward_batch, init_params, make_batch  # noqa: F401  forward stays importable from here
from .optim import DECAYED_SLOTS, AdamState, adam_step, cosine_lr


@dataclass
class TrainConfig:
    batch_size: int = 64
    dim: int = 32
    base_lr: float = 0.001
    weight_decay: float = 0.01
    l2_coeff: float = 0.0          # explicit penalty added to the loss; decay above is decoupled
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    k_list: tuple[int, ...] = (10, 20, 30, 40)
    early_stop_k: int = 10         # early stopping watches validation NDCG at this k
    variant: str = "full"
    decay_fusion: bool = False
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)

    def __post_init__(self):
        if self.batch_size < 1 or self.dim < 1 or self.max_epochs < 1:
            raise PietspError("batch_size, dim, and max_epochs must be positive")
        if self.base_lr <= 0:
            raise PietspError("base_lr must be positive")
        if not 1 <= self.patience <= self.max_epochs:
            raise PietspError("patience must lie in [1, max_epochs]")
        if self.variant not in VARIANTS:
            raise PietspError(f"unknown variant '{self.variant}'")
        self.k_list = tuple(int(k) for k in self.k_list)
        self.split_ratios = tuple(float(r) for r in self.split_ratios)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["k_list"] = list(self.k_list)
        d["split_ratios"] = list(self.split_ratios)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


def l2_penalty(params: ModelParams) -> float:
    """Sum of squared entries over the decayed weight slots."""
    return float(sum((arr * arr).sum() for name, arr in params.slots() if name in DECAYED_SLOTS))


def bce_loss(
    logits: np.ndarray,
    targets,
    l2_coeff: float = 0.0,
    params: ModelParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean binary cross-entropy over the vocabulary, per row of logits, in stable logit form.

    ``targets`` indexes the positive entries, ``logits[targets]``: for a
    (B, |E|) block the pair (user rows, item ids), or a boolean mask shaped
    like ``logits``.  Per row,
    loss = mean_j [softplus(y_j) - t_j * y_j] (+ l2_coeff * ||W||^2), and
    d loss / d y_j = (sigmoid(y_j) - t_j) / |E|.
    Returns (the loss of every row, d_logits).
    """
    try:
        positives = logits[targets]
    except IndexError as exc:
        raise PietspError(f"bce_loss: targets do not index logits of shape {logits.shape}: {exc}") from None
    n = logits.shape[-1]
    terms = softplus(logits)
    terms[targets] -= positives
    loss = terms.sum(axis=-1) / n
    if l2_coeff:
        if params is None:
            raise PietspError("bce_loss: l2_coeff set but no params given")
        loss += l2_coeff * l2_penalty(params)
    d_logits = logistic(logits)
    d_logits[targets] -= 1
    d_logits /= n
    return loss, d_logits


def add_gradients(samples: list[PreparedSample], params: ModelParams, variant: str, grads: ModelParams) -> list[float]:
    """Add the BCE gradients of every sample, summed, into ``grads``; returns each sample's loss.

    One engine call per ``batch_slices`` run of the samples.
    """
    losses = []
    for part in batch_slices(samples):
        batch = make_batch(part, params.vocab_size)
        trace = forward_batch(batch, params, variant)
        loss, d_logits = bce_loss(trace.logits, batch.targets)
        backward(trace, params, d_logits, grads)
        losses.extend(loss.tolist())
        del trace, d_logits  # freed before the next slice's forward allocates its own
    return losses


def train_epoch(
    samples: list[PreparedSample],
    params: ModelParams,
    opt_state: AdamState,
    config: TrainConfig,
    epoch: int,
) -> float:
    """One pass over the samples; returns the mean training loss."""
    if not samples:
        raise PietspError("train_epoch: no samples")
    order = seeding.rng(config.seed, "shuffle", epoch).permutation(len(samples))
    lr = cosine_lr(epoch, config.max_epochs, config.base_lr)
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        chunk = [samples[i] for i in order[start : start + config.batch_size]]
        grads = params.zeros_like()
        for loss in add_gradients(chunk, params, config.variant, grads):
            total_loss += loss
        inv = 1.0 / len(chunk)
        for _, arr in grads.slots():
            arr *= inv
        if config.l2_coeff:
            total_loss += config.l2_coeff * l2_penalty(params) * len(chunk)
            for name, arr in grads.slots():
                if name in DECAYED_SLOTS:
                    arr += 2.0 * config.l2_coeff * getattr(params, name)
        adam_step(params, grads, opt_state, lr, config.weight_decay, config.decay_fusion)
    return total_loss / len(samples)


def evaluate(
    samples: list[PreparedSample],
    params: ModelParams,
    k_list: tuple[int, ...] = (10, 20, 30, 40),
    variant: str = "full",
    score_fn=None,
) -> MetricReport:
    """Rank every user's vocabulary scores and average the metrics.

    Read-only with respect to ``params``.  ``score_fn`` (sample -> scores)
    replaces the model forward when given; used for baselines and tests.
    Users with an empty target are skipped.  Each row is ranked by
    ``top_k``; recall, NDCG and PHR at every k then come from the matrix of
    hits at each rank, with DCG summed in rank order over ``position_weights``.
    """
    k_list = tuple(int(k) for k in k_list)
    if not k_list:
        raise PietspError("evaluate: empty k_list")
    scored = [s for s in samples if s.target_ids.size]
    if not scored:
        raise PietspError("evaluate: no users with non-empty targets")
    k_top = max(k_list)
    weights = position_weights(k_top)
    ideal = np.cumsum(weights)  # ideal[m - 1]: the DCG of m hits at the top
    recall_acc = dict.fromkeys(k_list, 0.0)
    ndcg_acc = dict.fromkeys(k_list, 0.0)
    hit_acc = dict.fromkeys(k_list, 0)
    for part in batch_slices(scored):
        batch = make_batch(part, params.vocab_size)
        if score_fn is None:
            scores = forward_batch(batch, params, variant).logits
        else:
            scores = np.stack([np.asarray(score_fn(s)) for s in part])
        ranked = np.stack([top_k(row, k_top) for row in scores])
        truth = np.zeros(scores.shape, dtype=bool)
        truth[batch.targets] = True
        n_truth = np.count_nonzero(truth, axis=1)
        hits = truth[np.arange(batch.size)[:, None], ranked]
        found = np.cumsum(hits, axis=1)
        gains = np.cumsum(hits * weights[: ranked.shape[1]], axis=1)
        for k in k_list:
            last = min(k, ranked.shape[1]) - 1
            recall_acc[k] += float((found[:, last] / n_truth).sum())
            ndcg_acc[k] += float((gains[:, last] / ideal[np.minimum(n_truth, last + 1) - 1]).sum())
            hit_acc[k] += int(np.count_nonzero(found[:, last]))
    used = len(scored)
    return MetricReport(
        k_list=k_list,
        recall={k: recall_acc[k] / used for k in k_list},
        ndcg={k: ndcg_acc[k] / used for k in k_list},
        phr={k: hit_acc[k] / used for k in k_list},
        users_evaluated=used,
        users_skipped=len(samples) - used,
    )


@dataclass
class FitResult:
    params: ModelParams            # best-validation parameters
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("nan")
    epochs_run: int = 0
    k_max: int = 1


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
    """Train with early stopping on validation NDCG@early_stop_k.

    Keeps the best-so-far parameters and stops after ``patience`` epochs
    without improvement.  ``latest_path``, when given, receives a resumable
    checkpoint after every epoch; ``resume_from`` restores one and continues
    the same run.  ``stop_after_epoch`` ends the loop early after that epoch
    completes (used to exercise resume).  ``eval_fn(params, epoch) -> float``
    overrides the validation metric (tests).
    """
    if not train_corpus.users or not val_corpus.users:
        raise PietspError("fit: train and validation corpora must be non-empty")
    if train_corpus.vocab_size != val_corpus.vocab_size:
        raise PietspError("fit: train/validation vocabularies disagree")
    vocab = train_corpus.vocab_size

    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if ck.opt_state is None or ck.train_state is None:
            raise PietspError(f"{resume_from}: checkpoint has no training state to resume")
        if ck.config is not None:
            current = config.to_dict()
            mismatched = [
                key
                for key in ("seed", "dim", "batch_size", "base_lr", "weight_decay", "max_epochs", "variant")
                if ck.config.get(key) != current.get(key)
            ]
            if mismatched:
                raise PietspError(
                    f"{resume_from}: checkpoint was trained with different settings: {mismatched}"
                )
        params = ck.params
        opt_state = ck.opt_state
        k_max = params.k_max
        start_epoch = int(ck.train_state["epoch"]) + 1
        best_metric = ck.train_state["best_metric"]
        best_epoch = int(ck.train_state["best_epoch"])
        bad_epochs = int(ck.train_state["bad_epochs"])
        best_params = ck.train_state["best_params"] or params.copy()
        history = list(ck.train_state.get("history", []))
    else:
        k_max = max_history_len(train_corpus)
        params = init_params(vocab, config.dim, k_max, seeding.spawn_seed(config.seed, "init"))
        opt_state = AdamState.init(params)
        start_epoch = 0
        best_metric = None
        best_epoch = -1
        bad_epochs = 0
        best_params = params.copy()
        history = []

    train_samples = prepare_all(train_corpus, k_max)
    val_samples = prepare_all(val_corpus, k_max)

    epochs_run = start_epoch
    for epoch in range(start_epoch, config.max_epochs):
        mean_loss = train_epoch(train_samples, params, opt_state, config, epoch)
        if eval_fn is not None:
            metric = float(eval_fn(params, epoch))
        else:
            metric = evaluate(val_samples, params, (config.early_stop_k,), config.variant).ndcg[
                config.early_stop_k
            ]
        history.append(
            {
                "epoch": epoch,
                "lr": cosine_lr(epoch, config.max_epochs, config.base_lr),
                "train_loss": mean_loss,
                f"val_ndcg@{config.early_stop_k}": metric,
            }
        )
        epochs_run = epoch + 1
        if best_metric is None or metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if latest_path is not None:
            save_checkpoint(
                latest_path,
                params,
                seed=config.seed,
                config=config.to_dict(),
                opt_state=opt_state,
                train_state={
                    "epoch": epoch,
                    "best_metric": best_metric,
                    "best_epoch": best_epoch,
                    "bad_epochs": bad_epochs,
                    "history": history,
                    "best_params": best_params,
                },
            )
        if bad_epochs >= config.patience:
            break
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            break

    if best_path is not None:
        save_checkpoint(best_path, best_params, seed=config.seed, config=config.to_dict())
    return FitResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_metric=float(best_metric),
        epochs_run=epochs_run,
        k_max=k_max,
    )


def write_history(history: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
