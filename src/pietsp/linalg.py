"""Element-wise activations, their gradient companions, and the finiteness check.

The model's affine maps and segment reductions are plain numpy written
inline in ``model.py``; this module holds only what has a rule worth
naming.  ``elu``, ``relu`` and ``logistic_from`` take ``out=x`` to
overwrite their input, and no function gathers or scatters through a
boolean mask (on large blocks that costs several times the arithmetic).
Activation backward companions take the cached *forward output* (cheap
and sufficient, since ELU' and ReLU' are recoverable from it).  Every
function keeps its input's memory order (numpy's ``order="K"``), so the
model's column-major blocks stay column-major through them.

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


def exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) in one new array: one exp serves ``softplus_from`` and then ``logistic_from``.

    -|x| is formed in one pass as ``copysign(x, -1)``, the same bits as
    ``negative(abs(x))`` (zeros and NaNs included).
    """
    out = np.copysign(x, -1.0, out=np.empty_like(x))
    return np.exp(out, out=out)


def softplus_from(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """softplus(x) = log(1 + exp(x)) = max(x, 0) + log1p(e) in a new array, given e = exp(-|x|),
    which it leaves intact.

    Its two temporaries are as large as x: the loss calls it on chunks of
    at most ``train.LOSS_RUN`` elements.
    """
    return np.log1p(e) + np.maximum(x, 0)


def logistic_from(x: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """logistic(x) = 1 / (1 + exp(-x)) in a new array, given e = exp(-|x|), which it overwrites.
    ``out=x`` works in place.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    the same bits as evaluating each branch on its own half, and it never
    overflows.  The numerator max(e, x >= 0), since e <= 1, is built in the
    output array, with no boolean temporary for x >= 0 and no mask gathered
    or scattered.
    """
    out = np.greater_equal(x, 0, out=np.empty_like(e) if out is None else out)
    np.maximum(out, e, out=out)
    e += 1
    return np.divide(out, e, out=out)
