"""Element-wise activations, their gradient companions, and the finiteness check.

The model's affine maps and row reductions are plain numpy (``z @ W + b``,
``.mean(axis=0)``, ``.sum(axis=0)``) written inline in ``model.py``; this
module holds only what has a rule worth naming.  Activation backward
companions take the cached *forward output* (cheap and sufficient, since
ELU' and ReLU' are recoverable from it).

Activations do not check finiteness themselves: ELU and ReLU map -inf to
finite values, so the model checks each pre-activation before applying
them, naming the layer in the ``NumericsError``.  Training and all
verification use float64; the bench harness may feed float32 and every
function preserves the incoming dtype.
"""

from __future__ import annotations

import numpy as np

from .errors import PietspError


class ShapeError(PietspError):
    """Operand shapes do not satisfy the operation's contract."""


class NumericsError(PietspError):
    """A layer produced a non-finite value (NaN or Inf)."""


def check_finite(a: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericsError(f"non-finite values produced by {where}")


def elu(x: np.ndarray) -> np.ndarray:
    """Exponential linear unit: x for x > 0, exp(x) - 1 otherwise."""
    out = np.asarray(x, dtype=x.dtype).copy()
    neg = out < 0
    out[neg] = np.expm1(out[neg])
    return out


def elu_grad(y: np.ndarray) -> np.ndarray:
    """ELU derivative recovered from the forward output: 1 for y > 0, y + 1 otherwise."""
    return np.where(y > 0, np.asarray(1.0, dtype=y.dtype), y + 1)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_grad(y: np.ndarray) -> np.ndarray:
    """ReLU derivative from the forward output: 1 where y > 0 (0 at the kink)."""
    return (y > 0).astype(y.dtype)


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable 1 / (1 + exp(-x)); never overflows for any finite x."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|))."""
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
