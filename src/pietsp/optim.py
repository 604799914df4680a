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
    u = (m / bc1) / (sqrt(v / bc2) + eps); p = p - lr u [- lr wd p].  The
    moments and parameters are updated in place through two scratch arrays.
    Every gradient is checked before anything is updated, so a non-finite one
    raises ``OptimizerError`` with the parameters, moments and step untouched.
    """
    for name, g in grads.slots():
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in params.slots():
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        tmp = np.empty_like(p)
        update = np.empty_like(p)
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
        decayed = name in DECAYED_SLOTS or (decay_fusion and name in FUSION_SLOTS)
        if decayed and weight_decay != 0.0:
            np.multiply(p, lr * weight_decay, out=tmp)
            p -= update
            p -= tmp
        else:
            p -= update
