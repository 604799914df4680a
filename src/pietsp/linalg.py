"""Element-wise activations, their gradient companions, and the finiteness check.

The model's affine maps and segment reductions are plain numpy written
inline in ``model.py``; this module holds only what has a rule worth
naming.  ``elu``, ``relu`` and ``logistic_from`` take ``out=x`` to
overwrite their input, and no function gathers or scatters through a
boolean mask (on large blocks that costs several times the arithmetic).
``bce_block`` is the training call's loss pass over one item block; the
public ``train.bce_loss`` is its reference, built from ``exp_neg_abs``,
``softplus_from`` and ``logistic_from``.
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

# factors of one product in ``sum_log``: each lies in [1, 2], so a product stays below 2**1000, where 1,024
# factors of 2 would overflow float64
PRODUCT_LIMIT = 1000
LOG_RUN = 64  # products ``sum_log`` takes a row at least, so that its multiplies run along vectors this long


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

    Its two temporaries are as large as x: ``train.bce_loss`` calls it on
    chunks of at most ``model.LOSS_RUN`` elements.
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


def sum_log(f: np.ndarray) -> np.ndarray:
    """(rows,) sum of log(f) along each row of the 2-D block ``f`` of factors in [1, 2]: one log per
    product of at most ``PRODUCT_LIMIT`` factors.

    A row of w factors is cut into k = w // q runs of q consecutive columns,
    q = max(min(w, LOG_RUN), ceil(w / PRODUCT_LIMIT)), and the runs are
    multiplied together column by column (a reduction across runs, so each
    multiply is a vector operation: a product along a row would wait on
    each multiply in turn); the w - k q columns left over multiply into the
    first products.  Each product thus has k or k + 1 <= ``PRODUCT_LIMIT``
    factors.  Every product rounds, so the sum carries an absolute error of
    about u w (u the unit roundoff), where a sum of ``np.log1p`` terms
    carries a relative one.
    """
    rows, w = f.shape
    q = max(min(w, LOG_RUN), -(-w // PRODUCT_LIMIT))
    k = w // q
    products = np.multiply.reduce(f[:, : k * q].reshape(rows, k, q), axis=1)
    products[:, : w - k * q] *= f[:, k * q :]
    return np.log(products, out=products).sum(axis=1)


def bce_block(y: np.ndarray, hits: np.ndarray, n: int, out: np.ndarray, check) -> np.ndarray:
    """(rows,) row sums of the binary cross-entropy terms softplus(y) - t y of the C-ordered logit block
    ``y``; writes d_logits (logistic(y) - t) / n into ``out``, a C-ordered block shaped like ``y``, and
    leaves 1 + exp(-|y|) in ``y``.

    ``hits`` are the flat indices of the block's targets (t = 1; an index
    given twice marks one target), and ``n`` is the length of the full logit
    rows the block is cut from.  Each d_logit has the bits of
    ``train.bce_loss``'s: the numerator max(y >= 0, e) over 1 + e,
    e = exp(-|y|), less 1 at a target, over n.  The sums are taken as
    sum [max(y, 0) - t y] + sum log(1 + e): the first is one dot product of
    each row with its y >= 0 mask, the numerator's first step, less 1 at the
    targets; the second is ``sum_log`` of the denominators.  That dot is
    non-finite exactly when a logit of the row is or the row's sum
    overflows; only then is the block checked, ``check(y)``, which raises
    for a non-finite logit, before it is overwritten.
    """
    np.greater_equal(y, 0, out=out)
    marks = out.reshape(-1)
    marks[hits] -= 1
    sums = np.matmul(y[:, None], out[..., None])[:, 0, 0]
    if not np.isfinite(sums).all():
        check(y)
    marks[hits] += 1
    np.abs(y, out=y)
    np.negative(y, out=y)  # -|y| in two passes: the bits of copysign(y, -1), faster
    np.exp(y, out=y)
    np.maximum(out, y, out=out)
    y += 1
    np.divide(out, y, out=out)
    sums += sum_log(y)
    marks[hits] -= 1
    out /= n
    return sums
