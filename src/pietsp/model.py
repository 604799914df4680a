"""The set-prediction network: forward pass and hand-derived backward pass.

One sample is a user's basket history, prepared as a sorted universe of N
distinct item ids, an N x K binary membership matrix C (columns are time
steps), and the vocabulary-wide embedding table M (|E| x D).  Writing M_U
for the universe rows of M gathered in order, the forward pipeline is:

    Z    = [C | M_U]                                     N x (K+D)
    Zt   = ELU(Z Wg + bg  -  mean_i(Z_i Wl))             N x D   (equivariant)
    o_e  = w2 . relu(Zt W1 + b1) + b2                    N       (per-element score)
    s    = sum_i Zt_i
    zbar = V3' ELU(V2' ELU(V1' s + c1) + c2) + c3        D       (invariant summary)
    o_s  = M zbar                                        |E|     (score per vocab item)
    y_j  = a_j o_s[j] + b_j o_e[i]    if universe[i] == j
         = a_j o_s[j]                 otherwise                  (fused logits)

Permuting the universe enumeration permutes Zt and o_e identically and
leaves zbar, o_s, and y unchanged, so predictions never depend on how the
universe was enumerated.

Each layer is plain numpy.  A layer checks each value that can first turn
non-finite (every affine pre-activation before its ELU or ReLU, which would
map -inf to a finite value, and the element scores, the summary, the global
scores and the fused logits) and raises ``NumericsError`` naming itself.
Parameter shapes are checked once, where they enter from outside the
program (``checkpoint.load_checkpoint``).

The backward pass is derived by hand (no autodiff) and adds one sample's
gradients into a caller-owned ``ModelParams`` buffer, so a minibatch sums
into one table.  The embedding table receives gradient through two routes:
the gather into Z (universe rows only) and the global scoring o_s = M zbar
(every row).  Ablation variants drop one scoring branch:

    "no-ee": y = a * o_s          (element scores removed)
    "no-ge": y = b * o_e on universe ids, 0 elsewhere (global scores removed)
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import PreparedSample
from .errors import PietspError
from .linalg import ShapeError, check_finite, elu, elu_grad, relu, relu_grad

CONCAT_LAYOUT = "membership-then-embedding"
VARIANTS = ("full", "no-ee", "no-ge")


class MappingError(PietspError):
    """Universe-to-vocabulary index map is invalid (duplicates or out of range)."""


@dataclass
class ModelParams:
    """All learnable arrays.  Also reused as the container for gradients and
    optimizer moments, which share shapes slot for slot."""

    emb: np.ndarray          # (|E|, D) item embeddings, shared with global scoring
    pe_w_global: np.ndarray  # (K+D, D)
    pe_w_local: np.ndarray   # (K+D, D)
    pe_bias: np.ndarray      # (D,)
    ee_w1: np.ndarray        # (D, D)
    ee_b1: np.ndarray        # (D,)
    ee_w2: np.ndarray        # (D,)
    ee_b2: np.ndarray        # () scalar
    pi_w1: np.ndarray        # (D, D)
    pi_b1: np.ndarray        # (D,)
    pi_w2: np.ndarray        # (D, D)
    pi_b2: np.ndarray        # (D,)
    pi_w3: np.ndarray        # (D, D)
    pi_b3: np.ndarray        # (D,)
    fuse_global: np.ndarray  # (|E|,) per-item weight on the global score
    fuse_local: np.ndarray   # (|E|,) per-item weight on the element score

    @property
    def vocab_size(self) -> int:
        return int(self.emb.shape[0])

    @property
    def dim(self) -> int:
        return int(self.emb.shape[1])

    @property
    def k_max(self) -> int:
        return int(self.pe_w_global.shape[0] - self.emb.shape[1])

    def slots(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.slots()})

    def zeros_like(self) -> "ModelParams":
        return ModelParams(**{name: np.zeros_like(arr) for name, arr in self.slots()})

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(**{name: arr.astype(dtype) for name, arr in self.slots()})


PARAM_SLOTS = tuple(f.name for f in fields(ModelParams))


def param_shapes(vocab_size: int, dim: int, k_max: int) -> dict[str, tuple[int, ...]]:
    """The shape of every slot for a model of the given dimensions, as ``init_params`` builds it."""
    width = k_max + dim
    return {
        "emb": (vocab_size, dim),
        "pe_w_global": (width, dim),
        "pe_w_local": (width, dim),
        "pe_bias": (dim,),
        "ee_w1": (dim, dim),
        "ee_b1": (dim,),
        "ee_w2": (dim,),
        "ee_b2": (),
        "pi_w1": (dim, dim),
        "pi_b1": (dim,),
        "pi_w2": (dim, dim),
        "pi_b2": (dim,),
        "pi_w3": (dim, dim),
        "pi_b3": (dim,),
        "fuse_global": (vocab_size,),
        "fuse_local": (vocab_size,),
    }


def init_params(vocab_size: int, dim: int, k_max: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, N(0, 0.1) embeddings, unit fusion weights."""
    if dim < 1 or k_max < 1 or vocab_size < 1:
        raise PietspError(f"bad model dims: vocab={vocab_size} dim={dim} k_max={k_max}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    width = k_max + dim
    return ModelParams(
        emb=rng.normal(0.0, 0.1, size=(vocab_size, dim)),
        pe_w_global=glorot(width, dim, (width, dim)),
        pe_w_local=glorot(width, dim, (width, dim)),
        pe_bias=np.zeros(dim),
        ee_w1=glorot(dim, dim, (dim, dim)),
        ee_b1=np.zeros(dim),
        ee_w2=glorot(dim, 1, (dim,)),
        ee_b2=np.zeros(()),
        pi_w1=glorot(dim, dim, (dim, dim)),
        pi_b1=np.zeros(dim),
        pi_w2=glorot(dim, dim, (dim, dim)),
        pi_b2=np.zeros(dim),
        pi_w3=glorot(dim, dim, (dim, dim)),
        pi_b3=np.zeros(dim),
        fuse_global=np.ones(vocab_size),
        fuse_local=np.ones(vocab_size),
    )


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, cached once per forward."""

    variant: str
    universe: np.ndarray
    z: np.ndarray                     # (N, K+D) concatenated input
    pe_out: np.ndarray                # (N, D) after the equivariant layer
    ee_hidden: np.ndarray | None      # (N, D) relu activations
    elem_scores: np.ndarray | None    # (N,)
    pooled: np.ndarray | None         # (1, D) summed pe_out row
    pi_h1: np.ndarray | None          # (1, D)
    pi_h2: np.ndarray | None          # (1, D)
    set_repr: np.ndarray | None       # (D,)
    global_scores: np.ndarray | None  # (|E|,)
    logits: np.ndarray                # (|E|,)


def sfi_concat(m_u: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """Row-wise concatenation [membership | embedding], fixed layout."""
    if m_u.shape[0] != membership.shape[0]:
        raise ShapeError(
            f"sfi_concat: {membership.shape[0]} membership rows vs {m_u.shape[0]} embedding rows"
        )
    return np.hstack([membership, m_u])


def pe_forward(z: np.ndarray, params: ModelParams) -> np.ndarray:
    """Equivariant layer: ELU(Z Wg + bg - mean_i(Z_i Wl)), one shared mean row."""
    shared = z.mean(axis=0, keepdims=True) @ params.pe_w_local
    pre = z @ params.pe_w_global + params.pe_bias - shared
    check_finite(pre, "pe_forward")
    return elu(pre)


def ee_forward(pe_out: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-element scorer; returns (scores (N,), relu hidden (N, D))."""
    pre = pe_out @ params.ee_w1 + params.ee_b1
    check_finite(pre, "ee_forward")
    hidden = relu(pre)
    scores = hidden @ params.ee_w2 + params.ee_b2
    check_finite(scores, "ee_forward")
    return scores, hidden


def pi_forward(pe_out: np.ndarray, params: ModelParams):
    """Invariant summary: sum rows, then a two-hidden-layer ELU MLP (linear out)."""
    pooled = pe_out.sum(axis=0, keepdims=True)
    pre1 = pooled @ params.pi_w1 + params.pi_b1
    check_finite(pre1, "pi_forward")
    h1 = elu(pre1)
    pre2 = h1 @ params.pi_w2 + params.pi_b2
    check_finite(pre2, "pi_forward")
    h2 = elu(pre2)
    set_repr = (h2 @ params.pi_w3 + params.pi_b3)[0]
    check_finite(set_repr, "pi_forward")
    return set_repr, pooled, h1, h2


def ge_forward(set_repr: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Score every vocabulary item against the set summary: M @ zbar."""
    out = emb @ set_repr
    check_finite(out, "ge_forward")
    return out


def _check_universe(universe: np.ndarray, vocab_size: int) -> None:
    if universe.ndim != 1 or universe.size == 0:
        raise MappingError(f"universe must be a non-empty 1-D id array, got shape {universe.shape}")
    if np.unique(universe).size != universe.size:
        raise MappingError("universe contains duplicate ids")
    if universe.min() < 0 or universe.max() >= vocab_size:
        raise MappingError(f"universe ids outside [0, {vocab_size})")


def fuse_scores(
    global_scores: np.ndarray,
    elem_scores: np.ndarray,
    universe: np.ndarray,
    fuse_global: np.ndarray,
    fuse_local: np.ndarray,
) -> np.ndarray:
    """Blend: every item gets a_j * o_s[j]; universe items add b_j * o_e[i]."""
    _check_universe(universe, global_scores.shape[0])
    logits = fuse_global * global_scores
    logits[universe] += fuse_local[universe] * elem_scores
    check_finite(logits, "fuse_scores")
    return logits


def forward(sample: PreparedSample, params: ModelParams, variant: str = "full") -> ForwardTrace:
    if variant not in VARIANTS:
        raise PietspError(f"unknown variant '{variant}', expected one of {VARIANTS}")
    universe = sample.universe
    _check_universe(universe, params.vocab_size)
    z = sfi_concat(params.emb[universe], sample.membership.astype(params.emb.dtype, copy=False))
    pe_out = pe_forward(z, params)

    elem_scores = hidden = None
    if variant != "no-ee":
        elem_scores, hidden = ee_forward(pe_out, params)

    set_repr = pooled = h1 = h2 = global_scores = None
    if variant != "no-ge":
        set_repr, pooled, h1, h2 = pi_forward(pe_out, params)
        global_scores = ge_forward(set_repr, params.emb)

    if variant == "full":
        logits = fuse_scores(global_scores, elem_scores, universe, params.fuse_global, params.fuse_local)
    elif variant == "no-ee":
        logits = params.fuse_global * global_scores
        check_finite(logits, "fuse_scores")
    else:  # no-ge
        logits = np.zeros(params.vocab_size, dtype=pe_out.dtype)
        logits[universe] = params.fuse_local[universe] * elem_scores
        check_finite(logits, "fuse_scores")

    return ForwardTrace(
        variant=variant,
        universe=universe,
        z=z,
        pe_out=pe_out,
        ee_hidden=hidden,
        elem_scores=elem_scores,
        pooled=pooled,
        pi_h1=h1,
        pi_h2=h2,
        set_repr=set_repr,
        global_scores=global_scores,
        logits=logits,
    )


def backward(trace: ForwardTrace, params: ModelParams, d_logits: np.ndarray, grads: ModelParams) -> None:
    """Add the gradients of (logits . d_logits) for every parameter slot into ``grads``."""
    if d_logits.shape != trace.logits.shape:
        raise ShapeError(f"backward: d_logits {d_logits.shape} vs logits {trace.logits.shape}")
    u = trace.universe
    d_pe = np.zeros_like(trace.pe_out)

    # score fusion, global scoring and the invariant branch
    if trace.variant != "no-ge":
        grads.fuse_global += d_logits * trace.global_scores
        d_global = d_logits * params.fuse_global
        grads.emb += np.outer(d_global, trace.set_repr)
        d_repr = (params.emb.T @ d_global)[None, :]
        grads.pi_w3 += trace.pi_h2.T @ d_repr
        grads.pi_b3 += d_repr.sum(0)
        d_h2 = (d_repr @ params.pi_w3.T) * elu_grad(trace.pi_h2)
        grads.pi_w2 += trace.pi_h1.T @ d_h2
        grads.pi_b2 += d_h2.sum(0)
        d_h1 = (d_h2 @ params.pi_w2.T) * elu_grad(trace.pi_h1)
        grads.pi_w1 += trace.pooled.T @ d_h1
        grads.pi_b1 += d_h1.sum(0)
        d_pe += d_h1 @ params.pi_w1.T  # sum pooling: every row receives the pooled gradient

    # score fusion and the element scoring branch
    if trace.variant != "no-ee":
        grads.fuse_local[u] += d_logits[u] * trace.elem_scores
        d_elem = d_logits[u] * params.fuse_local[u]
        grads.ee_w2 += trace.ee_hidden.T @ d_elem
        grads.ee_b2 += d_elem.sum(0)
        d_hidden = np.outer(d_elem, params.ee_w2) * relu_grad(trace.ee_hidden)
        grads.ee_w1 += trace.pe_out.T @ d_hidden
        grads.ee_b1 += d_hidden.sum(0)
        d_pe += d_hidden @ params.ee_w1.T

    # equivariant layer; the shared row subtracts mean_i(Z_i) Wl, so its gradient is -d_pre.sum(0)
    d_pre = d_pe * elu_grad(trace.pe_out)
    d_sum = d_pre.sum(0, keepdims=True)
    grads.pe_w_global += trace.z.T @ d_pre
    grads.pe_bias += d_sum[0]
    grads.pe_w_local -= trace.z.mean(axis=0, keepdims=True).T @ d_sum

    # concatenation split: only the trailing D columns of Z (the gathered embeddings) are parameters
    k_max = params.k_max
    grads.emb[u] += d_pre @ params.pe_w_global[k_max:].T - (d_sum @ params.pe_w_local[k_max:].T) / u.size
