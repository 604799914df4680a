"""Adam with decoupled weight decay and a cosine learning-rate schedule.

Weight decay is applied directly to the parameters (not folded into the
gradients) and only to weight matrices/vectors (``DECAYED_SLOTS``): biases
and the two fusion weight vectors are never decayed (decaying the fusion
weights would bias score blending toward zero).  One step is one pass over
each ``ModelParams``' flat buffer, not a loop over its slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PietspError
from .model import DECAYED_SLOTS, ModelParams  # noqa: F401  DECAYED_SLOTS stays importable from here

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
ADAM_RUN = 32_768  # elements per run of ``adam_step``; its two float64 scratch buffers stay under 1 MB


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
) -> None:
    """One in-place update: bias-corrected Adam step plus decoupled decay.

    Per element, in this order: m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    u = (m / bc1) / (sqrt(v / bc2) + eps); p = p - lr u [- lr wd p].  It runs
    over the flat buffers of the parameters, gradients and moments, which
    share one layout, in runs of ``ADAM_RUN`` elements that change in place
    through two run-sized scratch buffers; decay covers the runs of the
    decayed prefix.  Every operation is element-wise, so the result is bit
    for bit the whole-slot update.  A non-finite gradient raises
    ``OptimizerError`` naming its slot, with nothing updated.
    """
    if not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.slots() if not np.isfinite(g).all())
        raise OptimizerError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    flats = (params.flat, grads.flat, state.m.flat, state.v.flat)
    size = min(ADAM_RUN, params.flat.size)
    tmp_buf, update_buf = np.empty(size, params.flat.dtype), np.empty(size, params.flat.dtype)
    split = params.decayed.size
    for lo, hi, decayed in ((0, split, weight_decay != 0.0), (split, params.flat.size, False)):
        for i in range(lo, hi, ADAM_RUN):
            p, g, m, v = (a[i : min(i + ADAM_RUN, hi)] for a in flats)
            tmp, update = tmp_buf[: p.size], update_buf[: p.size]
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
            if decayed:
                np.multiply(p, lr * weight_decay, out=tmp)
                p -= update
                p -= tmp
            else:
                p -= update
