"""Central finite-difference oracle for the hand-written backward pass.

The objective is f(theta) = sum_b logits_b(theta) . d_logits[b] over the
users of one engine call, for a fixed random d_logits; the analytic
gradient of f is exactly what ``backward`` adds into its gradient buffer.
Every function takes one sample (with 1-D d_logits) or a list of samples
(with one d_logits row per sample).
Instances are resampled until every activation sits away from its kink so
the finite differences are trustworthy.
"""

import numpy as np

from pietsp.bench import synthetic_samples
from pietsp.data import PreparedSample
from pietsp.model import backward, forward, forward_batch, init_params, make_batch


def _batch(samples, d_logits):
    if isinstance(samples, PreparedSample):
        samples = [samples]
    return list(samples), np.reshape(d_logits, (len(samples), -1))


def objective(samples, params, d_logits, variant="full"):
    samples, d_logits = _batch(samples, d_logits)
    return float((forward_batch(make_batch(samples, params.vocab_size), params, variant).logits * d_logits).sum())


def activation_margin(sample, params):
    """Smallest |pre-activation| across the ELU and ReLU layers."""
    trace = forward(sample, params)
    per_row = trace.z @ params.pe_w_global + params.pe_bias
    shared = (trace.z @ params.pe_w_local).mean(axis=0)
    margins = [np.abs(per_row - shared).min()]
    margins.append(np.abs(trace.pe_out @ params.ee_w1 + params.ee_b1).min())
    margins.append(np.abs(trace.pooled @ params.pi_w1 + params.pi_b1).min())
    margins.append(np.abs(trace.pi_h1 @ params.pi_w2 + params.pi_b2).min())
    return float(min(margins))


def make_instance(vocab=12, dim=5, k_max=3, n_elements=4, margin=1e-3, start_seed=0):
    """A (sample, params, d_logits) triple whose activations clear `margin`."""
    samples, params, d_logits = make_batch_instance(vocab, dim, k_max, (n_elements,), margin, start_seed)
    return samples[0], params, d_logits[0]


def make_batch_instance(vocab=12, dim=5, k_max=3, sizes=(3, 5, 8), margin=1e-3, start_seed=0):
    """(samples, params, d_logits): one user per universe size in ``sizes``, every activation clearing `margin`.

    The users draw from one vocabulary, so universes overlap once the sizes sum past it.
    """
    for seed in range(start_seed, start_seed + 200):
        params = init_params(vocab, dim, k_max, seed=seed)
        samples = [synthetic_samples(n, k_max, vocab, 1, seed=seed + 1000 + 7 * i)[0] for i, n in enumerate(sizes)]
        if min(activation_margin(s, params) for s in samples) > margin:
            d_logits = np.random.default_rng(seed + 2000).normal(size=(len(sizes), vocab))
            return samples, params, d_logits
    raise AssertionError("no instance with sufficient activation margin found")


def fd_gradient_slot(samples, params, d_logits, slot, h=1e-5, variant="full"):
    """Central finite differences for one parameter slot, entry by entry."""
    arr = getattr(params, slot)
    flat = arr.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = objective(samples, params, d_logits, variant)
        flat[i] = orig - h
        down = objective(samples, params, d_logits, variant)
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return out.reshape(arr.shape)


def relative_error(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((np.abs(a - b) / denom).max())


def analytic_gradient(samples, params, d_logits, variant="full"):
    """``backward``'s gradients for one engine call over the samples, added into a fresh zero buffer."""
    samples, d_logits = _batch(samples, d_logits)
    grads = params.zeros_like()
    backward(forward_batch(make_batch(samples, params.vocab_size), params, variant), params, d_logits, grads)
    return grads


def check_all_slots(samples, params, d_logits, tol=1e-5, variant="full"):
    """Returns {slot: (rel_err, fd_max_abs)} and asserts every slot matches."""
    grads = analytic_gradient(samples, params, d_logits, variant)
    results = {}
    for slot, _ in params.slots():
        fd = fd_gradient_slot(samples, params, d_logits, slot, variant=variant)
        err = relative_error(getattr(grads, slot), fd)
        results[slot] = (err, float(np.abs(fd).max()))
        assert err < tol, f"slot '{slot}': analytic/finite-difference mismatch {err:.3e}"
    return results
