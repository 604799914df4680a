"""Central finite-difference oracle for the hand-written backward pass.

The objective is f(theta) = logits(theta) . d_logits for a fixed random
d_logits; the analytic gradient of f is exactly what ``backward`` adds into
its gradient buffer.
Instances are resampled until every activation sits away from its kink so
the finite differences are trustworthy.
"""

import numpy as np

from pietsp.bench import synthetic_samples
from pietsp.model import backward, forward, init_params


def objective(sample, params, d_logits, variant="full"):
    return float(forward(sample, params, variant).logits @ d_logits)


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
    for seed in range(start_seed, start_seed + 200):
        params = init_params(vocab, dim, k_max, seed=seed)
        sample = synthetic_samples(n_elements, k_max, vocab, 1, seed=seed + 1000)[0]
        if activation_margin(sample, params) > margin:
            d_logits = np.random.default_rng(seed + 2000).normal(size=vocab)
            return sample, params, d_logits
    raise AssertionError("no instance with sufficient activation margin found")


def fd_gradient_slot(sample, params, d_logits, slot, h=1e-5, variant="full"):
    """Central finite differences for one parameter slot, entry by entry."""
    arr = getattr(params, slot)
    flat = arr.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = objective(sample, params, d_logits, variant)
        flat[i] = orig - h
        down = objective(sample, params, d_logits, variant)
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return out.reshape(arr.shape)


def relative_error(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((np.abs(a - b) / denom).max())


def analytic_gradient(sample, params, d_logits, variant="full"):
    """``backward``'s gradients for one sample, added into a fresh zero buffer."""
    grads = params.zeros_like()
    backward(forward(sample, params, variant), params, d_logits, grads)
    return grads


def check_all_slots(sample, params, d_logits, tol=1e-5, variant="full"):
    """Returns {slot: (rel_err, fd_max_abs)} and asserts every slot matches."""
    grads = analytic_gradient(sample, params, d_logits, variant)
    results = {}
    for slot, _ in params.slots():
        fd = fd_gradient_slot(sample, params, d_logits, slot, variant=variant)
        err = relative_error(getattr(grads, slot), fd)
        results[slot] = (err, float(np.abs(fd).max()))
        assert err < tol, f"slot '{slot}': analytic/finite-difference mismatch {err:.3e}"
    return results
