"""The set-prediction network: a ragged-batch forward pass and its hand-derived backward pass.

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

The engine runs B users in one call (``make_batch`` then ``forward_batch``).
Their universes and membership rows are stacked into R = sum(N) rows, so
the row-wise layers are single products over all R rows; the per-user mean
in the equivariant layer and the sum pooling are segment reductions
(``np.add.reduceat`` over each user's rows, ``Segments``); the global
scores are one (B x D)(D x |E|) product, and the logits a B x |E| block.
``forward`` is the B = 1 call and returns 1-D logits.  ``batch_slices``
cuts a list of users into engine calls of bounded size (``MAX_BATCH_ROWS``
universe rows, ``MAX_BATCH_USERS`` users), which keeps the memory of a call
independent of the minibatch.  ``make_batch`` validates every universe once
and names the user in the ``MappingError``.  The first call sets glibc's
malloc thresholds (``heap.keep_freed_heap``), so the memory one call frees
serves the next instead of going back to the OS and being faulted in again.

Each layer is plain numpy.  A layer checks each value that can first turn
non-finite (every affine pre-activation before its ELU or ReLU, which would
map -inf to a finite value, and the element scores, the summary, the global
scores and the fused logits) and raises ``NumericsError`` naming itself.
Parameter shapes are checked once, where they enter from outside the
program (``checkpoint.load_checkpoint``).

The backward pass is derived by hand (no autodiff) and adds the gradients
of the whole call into a caller-owned ``ModelParams`` buffer, so a
minibatch sums into one table.  The embedding table receives gradient
through two routes: the gather into Z (universe rows only, one
``np.add.at``) and the global scoring o_s = M zbar (every row, one
(|E| x B)(B x D) product).  Ablation variants drop one scoring branch:

    "no-ee": y = a * o_s          (element scores removed)
    "no-ge": y = b * o_e on universe ids, 0 elsewhere (global scores removed)
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data import PreparedSample
from .errors import PietspError
from .heap import keep_freed_heap
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


MAX_BATCH_ROWS = 4096   # universe rows per engine call: bounds the R x (K+D) and R x D arrays
MAX_BATCH_USERS = 64    # users per engine call: bounds the B x |E| score blocks


@dataclass
class Segments:
    """A ragged stack of B sets: set b owns rows offsets[b] .. offsets[b] + counts[b] - 1."""

    offsets: np.ndarray  # (B,) first row of each set
    counts: np.ndarray   # (B,) rows per set, all >= 1

    @classmethod
    def one(cls, n_rows: int) -> "Segments":
        return cls(np.zeros(1, dtype=np.intp), np.array([n_rows], dtype=np.intp))

    @property
    def size(self) -> int:
        return int(self.counts.size)

    @cached_property
    def rows(self) -> np.ndarray:
        """(R,) the set index of every row."""
        return np.repeat(np.arange(self.size), self.counts)

    def sum(self, x: np.ndarray) -> np.ndarray:
        """(B, ...) per-set sums of the rows of ``x``."""
        return np.add.reduceat(x, self.offsets, axis=0)

    def mean(self, x: np.ndarray) -> np.ndarray:
        out = self.sum(x)
        out /= self.counts[:, None]
        return out

    def spread(self, per_set: np.ndarray) -> np.ndarray:
        """(B, ...) -> (R, ...): each set's row repeated over its rows (a broadcastable view for B = 1)."""
        return per_set if self.size == 1 else np.repeat(per_set, self.counts, axis=0)


@dataclass
class Batch:
    """One engine call's B users: universes concatenated in user order, membership blocks kept per user."""

    ids: np.ndarray            # (R,) vocabulary id of every universe row
    membership: tuple[np.ndarray, ...]  # each user's (N_b, K) rows; ``sfi_concat`` stacks them into Z
    segs: Segments
    targets: tuple[np.ndarray, np.ndarray]  # (user index, item id) of every target item

    @property
    def size(self) -> int:
        return self.segs.size


def _check_universe(sample: PreparedSample, vocab_size: int) -> None:
    universe = sample.universe
    where = f"user '{sample.user_id}'"
    if universe.ndim != 1 or universe.size == 0:
        raise MappingError(f"{where}: universe must be a non-empty 1-D id array, got shape {universe.shape}")
    ordered = np.sort(universe)
    if (ordered[1:] == ordered[:-1]).any():
        raise MappingError(f"{where}: universe contains duplicate ids")
    if ordered[0] < 0 or ordered[-1] >= vocab_size:
        raise MappingError(f"{where}: universe ids outside [0, {vocab_size})")


def make_batch(samples: list[PreparedSample], vocab_size: int) -> Batch:
    """Stack the samples for one engine call, validating each universe once."""
    for sample in samples:
        _check_universe(sample, vocab_size)
    if len(samples) == 1:  # predict's call: nothing to stack, and ~12 us less than the general path
        (s,) = samples
        return Batch(
            ids=s.universe,
            membership=(s.membership,),
            segs=Segments.one(s.universe.size),
            targets=(np.zeros(s.target_ids.size, dtype=np.intp), s.target_ids),
        )
    counts = np.array([s.universe.size for s in samples], dtype=np.intp)
    offsets = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=offsets[1:])
    return Batch(
        ids=np.concatenate([s.universe for s in samples]),
        membership=tuple(s.membership for s in samples),
        segs=Segments(offsets, counts),
        targets=(
            np.repeat(np.arange(len(samples)), [s.target_ids.size for s in samples]),
            np.concatenate([s.target_ids for s in samples]),
        ),
    )


def batch_slices(samples: list[PreparedSample]):
    """Consecutive runs of ``samples`` with at most MAX_BATCH_USERS users and MAX_BATCH_ROWS
    universe rows each; a user whose universe alone exceeds the row cap gets a run of its own."""
    start, rows = 0, 0
    for i, sample in enumerate(samples):
        n = sample.universe.size
        if i > start and (rows + n > MAX_BATCH_ROWS or i - start == MAX_BATCH_USERS):
            yield samples[start:i]
            start, rows = i, 0
        rows += n
    if start < len(samples):
        yield samples[start:]


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, cached once per engine call."""

    variant: str
    batch: Batch
    z: np.ndarray                     # (R, K+D) concatenated input
    pe_out: np.ndarray                # (R, D) after the equivariant layer
    ee_hidden: np.ndarray | None      # (R, D) relu activations
    elem_scores: np.ndarray | None    # (R,)
    pooled: np.ndarray | None         # (B, D) per-user sums of pe_out
    pi_h1: np.ndarray | None          # (B, D)
    pi_h2: np.ndarray | None          # (B, D)
    set_repr: np.ndarray | None       # (B, D)
    global_scores: np.ndarray | None  # (B, |E|)
    logits: np.ndarray                # (B, |E|); (|E|,) from ``forward``


def sfi_concat(m_u: np.ndarray, membership) -> np.ndarray:
    """Row-wise concatenation [membership | embedding], fixed layout.

    ``membership`` is one (R, K) array or the users' (N_b, K) blocks in row order.
    """
    blocks = [membership] if isinstance(membership, np.ndarray) else membership
    rows = sum(block.shape[0] for block in blocks)
    if m_u.shape[0] != rows:
        raise ShapeError(f"sfi_concat: {rows} membership rows vs {m_u.shape[0]} embedding rows")
    k = blocks[0].shape[1]
    z = np.empty((rows, k + m_u.shape[1]), dtype=m_u.dtype)
    np.concatenate(blocks, out=z[:, :k])
    z[:, k:] = m_u
    return z


def pe_forward(z: np.ndarray, params: ModelParams, segs: Segments | None = None) -> np.ndarray:
    """Equivariant layer: ELU(Z Wg + bg - mean_i(Z_i Wl)), one shared row per set.

    ``segs`` splits the rows of ``z`` into sets; all rows form one set when omitted.
    """
    if segs is None:
        segs = Segments.one(z.shape[0])
    pre = z @ params.pe_w_global
    pre += params.pe_bias
    pre -= segs.spread(segs.mean(z) @ params.pe_w_local)
    check_finite(pre, "pe_forward")
    return elu(pre, out=pre)


def ee_forward(pe_out: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-element scorer; returns (scores (R,), relu hidden (R, D))."""
    hidden = pe_out @ params.ee_w1
    hidden += params.ee_b1
    check_finite(hidden, "ee_forward")
    relu(hidden, out=hidden)
    scores = hidden @ params.ee_w2 + params.ee_b2
    check_finite(scores, "ee_forward")
    return scores, hidden


def pi_forward(pe_out: np.ndarray, params: ModelParams, segs: Segments | None = None):
    """Invariant summary per set: sum its rows, then a two-hidden-layer ELU MLP (linear out).

    Returns (set_repr, pooled, h1, h2), each (B, D); all rows form one set when ``segs`` is omitted.
    """
    if segs is None:
        segs = Segments.one(pe_out.shape[0])
    pooled = segs.sum(pe_out)
    h1 = pooled @ params.pi_w1 + params.pi_b1
    check_finite(h1, "pi_forward")
    elu(h1, out=h1)
    h2 = h1 @ params.pi_w2 + params.pi_b2
    check_finite(h2, "pi_forward")
    elu(h2, out=h2)
    set_repr = h2 @ params.pi_w3 + params.pi_b3
    check_finite(set_repr, "pi_forward")
    return set_repr, pooled, h1, h2


def ge_forward(set_repr: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Score every vocabulary item against each set summary: (B, D) -> (B, |E|), or (D,) -> (|E|,)."""
    out = set_repr @ emb.T
    check_finite(out, "ge_forward")
    return out


def fuse_scores(
    global_scores: np.ndarray,
    elem_scores: np.ndarray,
    universe: np.ndarray,
    fuse_global: np.ndarray,
    fuse_local: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Blend: every item gets a_j * o_s[j]; universe items add b_j * o_e[i].

    ``rows`` gives the score row of each universe entry when ``global_scores``
    is a (B, |E|) block; each (row, item) pair must occur once.
    """
    logits = fuse_global * global_scores
    logits[universe if rows is None else (rows, universe)] += fuse_local[universe] * elem_scores
    check_finite(logits, "fuse_scores")
    return logits


def forward_batch(batch: Batch, params: ModelParams, variant: str = "full") -> ForwardTrace:
    """The forward pass of every user in ``batch`` at once; logits are (B, |E|)."""
    if variant not in VARIANTS:
        raise PietspError(f"unknown variant '{variant}', expected one of {VARIANTS}")
    keep_freed_heap()
    segs, ids = batch.segs, batch.ids
    z = sfi_concat(params.emb[ids], batch.membership)
    pe_out = pe_forward(z, params, segs)

    elem_scores = hidden = None
    if variant != "no-ee":
        elem_scores, hidden = ee_forward(pe_out, params)

    set_repr = pooled = h1 = h2 = global_scores = None
    if variant != "no-ge":
        set_repr, pooled, h1, h2 = pi_forward(pe_out, params, segs)
        global_scores = ge_forward(set_repr, params.emb)

    if variant == "full":
        logits = fuse_scores(global_scores, elem_scores, ids, params.fuse_global, params.fuse_local, segs.rows)
    elif variant == "no-ee":
        logits = params.fuse_global * global_scores
        check_finite(logits, "fuse_scores")
    else:  # no-ge
        logits = np.zeros((batch.size, params.vocab_size), dtype=pe_out.dtype)
        logits[segs.rows, ids] = params.fuse_local[ids] * elem_scores
        check_finite(logits, "fuse_scores")

    return ForwardTrace(
        variant=variant,
        batch=batch,
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


def forward(sample: PreparedSample, params: ModelParams, variant: str = "full") -> ForwardTrace:
    """One user's forward pass: the engine at B = 1, with 1-D logits (|E|,)."""
    trace = forward_batch(make_batch([sample], params.vocab_size), params, variant)
    trace.logits = trace.logits[0]
    return trace


def backward(trace: ForwardTrace, params: ModelParams, d_logits: np.ndarray, grads: ModelParams) -> None:
    """Add the gradients of sum(logits * d_logits) for every parameter slot into ``grads``."""
    if d_logits.shape != trace.logits.shape:
        raise ShapeError(f"backward: d_logits {d_logits.shape} vs logits {trace.logits.shape}")
    segs, ids = trace.batch.segs, trace.batch.ids
    d_logits = d_logits.reshape(segs.size, -1)

    # score fusion and the element scoring branch; (rows, ids) are distinct pairs, ids may repeat
    d_pe = None
    if trace.variant != "no-ee":
        d_at = d_logits[segs.rows, ids]
        grads.fuse_local += np.bincount(ids, weights=d_at * trace.elem_scores, minlength=params.vocab_size)
        d_elem = d_at * params.fuse_local[ids]
        grads.ee_w2 += trace.ee_hidden.T @ d_elem
        grads.ee_b2 += d_elem.sum(0)
        d_hidden = np.multiply.outer(d_elem, params.ee_w2)
        d_hidden *= relu_grad(trace.ee_hidden)
        grads.ee_w1 += trace.pe_out.T @ d_hidden
        grads.ee_b1 += d_hidden.sum(0)
        d_pe = d_hidden @ params.ee_w1.T
        del d_hidden

    # score fusion, global scoring and the invariant branch
    if trace.variant != "no-ge":
        # with d_global = d_logits * a (per item), d_global^T zbar = a * (d_logits^T zbar) and
        # d_global M = d_logits (a * M): no B x |E| product is formed
        grads.fuse_global += np.einsum("be,be->e", d_logits, trace.global_scores)
        emb_global = d_logits.T @ trace.set_repr
        emb_global *= params.fuse_global[:, None]
        grads.emb += emb_global
        del emb_global
        d_repr = d_logits @ (params.fuse_global[:, None] * params.emb)
        grads.pi_w3 += trace.pi_h2.T @ d_repr
        grads.pi_b3 += d_repr.sum(0)
        d_h2 = d_repr @ params.pi_w3.T
        d_h2 *= elu_grad(trace.pi_h2)
        grads.pi_w2 += trace.pi_h1.T @ d_h2
        grads.pi_b2 += d_h2.sum(0)
        d_h1 = d_h2 @ params.pi_w2.T
        d_h1 *= elu_grad(trace.pi_h1)
        grads.pi_w1 += trace.pooled.T @ d_h1
        grads.pi_b1 += d_h1.sum(0)
        if d_pe is None:
            d_pe = np.zeros_like(trace.pe_out)
        d_pe += segs.spread(d_h1 @ params.pi_w1.T)  # sum pooling: every row receives its set's gradient

    # equivariant layer; each set's shared row subtracts mean_i(Z_i) Wl, so its gradient is -d_pre summed over the set
    d_pre = d_pe
    d_pre *= elu_grad(trace.pe_out)
    d_sum = segs.sum(d_pre)
    grads.pe_w_global += trace.z.T @ d_pre
    grads.pe_bias += d_sum.sum(0)
    grads.pe_w_local -= segs.mean(trace.z).T @ d_sum

    # concatenation split: only the trailing D columns of Z (the gathered embeddings) are parameters
    k_max = params.k_max
    d_rows = d_pre @ params.pe_w_global[k_max:].T
    del d_pe, d_pre
    d_rows -= segs.spread((d_sum @ params.pe_w_local[k_max:].T) / segs.counts[:, None])
    np.add.at(grads.emb, ids, d_rows)
