"""Central finite-difference oracle for the hand-written backward pass.

The objective is f(theta) = sum_b logits_b(theta) . d_logits[b] over the
users of one engine call, for a fixed random d_logits; the analytic
gradient of f is exactly what ``backward`` adds into its gradient buffer.
Every function takes one sample (with 1-D d_logits) or a list of samples
(with one d_logits row per sample).
Instances are resampled until every activation sits away from its kink so
the finite differences are trustworthy.

``check_branch`` checks one of ``backward``'s three branch functions on its
own, against central differences of that branch's forward layers alone.
"""

import numpy as np

from pietsp.bench import synthetic_samples
from pietsp.data import PreparedSample
from pietsp import model
from pietsp.model import (
    Segments,
    backward,
    ee_forward,
    forward,
    forward_batch,
    fuse_scores,
    ge_forward,
    init_params,
    make_batch,
    pe_forward,
    pi_forward,
    sfi_concat,
)


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


def fd_gradient(f, arr, h=1e-5):
    """Central finite differences of the scalar ``f()`` in every entry of ``arr``, perturbed in place."""
    flat = arr.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return out.reshape(arr.shape)


def fd_gradient_slot(samples, params, d_logits, slot, h=1e-5, variant="full"):
    """Central finite differences for one parameter slot, entry by entry."""
    return fd_gradient(lambda: objective(samples, params, d_logits, variant), getattr(params, slot), h)


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


def check_branch(branch, samples, params, d_logits, tol=1e-5):
    """Check one branch function of ``backward`` against central differences of its own forward layers.

    ``branch`` is "element" (``_element_backward``: ``ee_forward`` and ``fuse_local``'s half of
    ``fuse_scores``, from pe_out), "global" (``_global_backward``: ``pi_forward``, ``ge_forward`` and
    ``fuse_global``'s half of ``fuse_scores``, from each set's pooled row) or "equivariant"
    (``_equivariant_backward``: the embedding gather, ``sfi_concat`` and ``pe_forward``, against a
    random d pe_out).  The function runs on one engine call's trace into a zero buffer.  Every slot it
    writes and the gradient it returns must match; every other slot must stay zero.
    Returns {slot or "returned": rel_err}.
    """
    samples, d_logits = _batch(samples, d_logits)
    trace = forward_batch(make_batch(samples, params.vocab_size), params)
    batch, grads = trace.batch, params.zeros_like()

    def fused(global_scores, elem_scores):
        logits = fuse_scores(global_scores, elem_scores, batch.ids, params.fuse_global, params.fuse_local, trace.cells)
        return float((logits * d_logits).sum())

    if branch == "element":
        slots = ("fuse_local", "ee_w1", "ee_b1", "ee_w2", "ee_b2")
        given = trace.pe_out.copy()  # the branch's input, whose gradient it returns
        returned = model._element_backward(trace, params, d_logits, grads)

        def f():
            return fused(np.zeros_like(d_logits), ee_forward(given, params)[0])
    elif branch == "global":
        slots = ("fuse_global", "emb", "pi_w1", "pi_b1", "pi_w2", "pi_b2", "pi_w3", "pi_b3")
        given = trace.pooled.copy()
        one_row_sets = Segments(np.arange(batch.size), np.ones(batch.size, dtype=np.intp))  # pooling is the identity
        returned = model._global_backward(trace, params, d_logits, grads)

        def f():
            set_repr = pi_forward(given, params, one_row_sets)[0]
            return fused(ge_forward(set_repr, params.emb), np.zeros(batch.ids.size))
    elif branch == "equivariant":
        slots, given = ("emb", "pe_w_global", "pe_w_local", "pe_bias"), None
        d_pe = np.random.default_rng(len(batch.ids)).normal(size=trace.pe_out.shape)
        model._equivariant_backward(trace, params, d_pe.copy(), grads)  # works in place on its d_pe

        def f():
            z = sfi_concat(params.emb.take(batch.ids, axis=0), [s.membership for s in batch.samples])
            return float((pe_forward(z, params, batch.segs) * d_pe).sum())
    else:
        raise ValueError(f"unknown branch '{branch}'")

    results = {}
    for slot, got in grads.slots():
        if slot not in slots:
            assert not got.any(), f"{branch} branch wrote slot '{slot}'"
            continue
        fd = fd_gradient(f, getattr(params, slot))
        assert np.abs(fd).max() > 1e-7, f"{branch} branch: slot '{slot}' never receives gradient"
        results[slot] = relative_error(got, fd)
    if given is not None:
        results["returned"] = relative_error(returned, fd_gradient(f, given))
    for name, err in results.items():
        assert err < tol, f"{branch} branch: '{name}' analytic/finite-difference mismatch {err:.3e}"
    return results
