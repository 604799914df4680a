"""Adam with decoupled weight decay and a cosine learning-rate schedule.

Weight decay is applied directly to the parameters (not folded into the
gradients) and only to weight matrices/vectors: biases and the two fusion
weight vectors are never decayed (decaying the fusion weights would bias
score blending toward zero), unless ``decay_fusion`` is explicitly set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PietspError
from .model import ModelParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
ADAM_RUN = 32_768  # elements per run of ``adam_step``; its two float64 scratch buffers stay under 1 MB

DECAYED_SLOTS = frozenset(
    {"emb", "pe_w_global", "pe_w_local", "ee_w1", "ee_w2", "pi_w1", "pi_w2", "pi_w3"}
)
FUSION_SLOTS = frozenset({"fuse_global", "fuse_local"})


class OptimizerError(PietspError):
    """Optimizer fed invalid state (e.g. a non-finite gradient)."""


@dataclass
class AdamState:
    step: int
    m: ModelParams
    v: ModelParams

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(step=0, m=params.zeros_like(), v=params.zeros_like())


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """0.5 * (1 + cos(pi * epoch / total)) * base_lr; base at 0, zero at total."""
    if total_epochs < 1:
        raise OptimizerError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise OptimizerError(f"epoch {epoch} outside [0, {total_epochs}]")
    return 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs)) * base_lr


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
    decay_fusion: bool = False,
) -> None:
    """One in-place update: bias-corrected Adam step plus decoupled decay.

    Per slot, in this order: m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    u = (m / bc1) / (sqrt(v / bc2) + eps); p = p - lr u [- lr wd p].  Each
    slot is viewed as 1-D and updated in runs of ``ADAM_RUN`` elements: the
    moments and parameters change in place through two run-sized scratch
    buffers, and each run stays in cache from one pass to the next.  Every
    operation is element-wise, so the result is bit-identical to updating
    the whole slot at once.  Every slot is checked before anything is
    updated, so a non-finite gradient, or a parameter or moment that is not
    C-contiguous, raises ``OptimizerError`` with the parameters, moments and
    step untouched.
    """
    for name, g in grads.slots():
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for parameter '{name}'")
        # p, m and v are flattened to views below: an update made in a copy would be lost.
        if not all(getattr(t, name).flags.c_contiguous for t in (params, state.m, state.v)):
            raise OptimizerError(f"parameter '{name}' or its moments are not C-contiguous")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    size = min(ADAM_RUN, max(p.size for _, p in params.slots()))
    tmp_buf, update_buf = np.empty(size, params.emb.dtype), np.empty(size, params.emb.dtype)
    for name, p in params.slots():
        decayed = name in DECAYED_SLOTS or (decay_fusion and name in FUSION_SLOTS)
        slots = (p, getattr(grads, name), getattr(state.m, name), getattr(state.v, name))
        flat = [a.reshape(-1) for a in slots]
        for i in range(0, p.size, ADAM_RUN):
            p_run, g, m, v = (a[i : i + ADAM_RUN] for a in flat)
            tmp, update = tmp_buf[: p_run.size], update_buf[: p_run.size]
            np.multiply(g, 1.0 - BETA1, out=tmp)
            m *= BETA1
            m += tmp
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v *= BETA2
            v += tmp
            np.divide(m, bc1, out=update)
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            update /= tmp
            update *= lr
            if decayed and weight_decay != 0.0:
                np.multiply(p_run, lr * weight_decay, out=tmp)
                p_run -= update
                p_run -= tmp
            else:
                p_run -= update
