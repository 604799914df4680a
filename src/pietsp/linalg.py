"""Element-wise activations, their gradient companions, and the finiteness check.

The model's affine maps and segment reductions are plain numpy written
inline in ``model.py``; this module holds only what has a rule worth
naming.  ``elu`` and ``relu`` take ``out=x`` to overwrite their input, and
no function gathers or scatters through a boolean mask (on large blocks
that costs several times the arithmetic).  Activation backward companions
take the cached *forward output* (cheap and sufficient, since ELU' and
ReLU' are recoverable from it).

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
    if not np.isfinite(a).all():
        raise NumericsError(f"non-finite values produced by {where}")


def elu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exponential linear unit: x for x > 0, exp(x) - 1 otherwise.  ``out=x`` works in place.

    Computed without masks as max(x, expm1(min(x, 0))): for x > 0 the
    second operand is 0, and for x <= 0 expm1(x) >= x.
    """
    neg = np.minimum(x, 0)
    np.expm1(neg, out=neg)
    return np.maximum(x, neg, out=neg if out is None else out)


def elu_grad(y: np.ndarray) -> np.ndarray:
    """ELU derivative recovered from the forward output: 1 for y > 0, y + 1 otherwise."""
    grad = np.minimum(y, 0)
    grad += 1
    return grad


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0).  ``out=x`` works in place."""
    return np.maximum(x, 0, out=out)


def relu_grad(y: np.ndarray) -> np.ndarray:
    """ReLU derivative from the forward output, as a boolean mask: y > 0 (0 at the kink)."""
    return y > 0


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable 1 / (1 + exp(-x)); never overflows for any finite x.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    the same bits as evaluating each branch on its own half.  The numerator
    is max(e, x >= 0), since e <= 1, so no mask is gathered or scattered.
    """
    x = np.asarray(x)
    e = _exp_neg_abs(x)
    out = np.maximum(e, x >= 0)
    e += 1
    out /= e
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x)
    out = _exp_neg_abs(x)
    np.log1p(out, out=out)
    out += np.maximum(x, 0)
    return out


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) in one new array."""
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    return np.exp(out, out=out)
