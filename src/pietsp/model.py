"""The set-prediction network: a ragged-batch forward pass and its hand-derived backward pass.

One sample is a user's basket history, prepared as a sorted universe of N
distinct item ids, an N x K membership matrix C (columns are time steps;
stored as bool, one byte a cell, and copied into the float Z), and the
vocabulary-wide embedding table M (|E| x D).  Writing M_U
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
scores are one (B x D)(D x |E|) product, a B x |E| block that the fusion
turns into the logits in place (``fuse_scores(..., out=)``), adding each
universe row's element score at its cell's flat index b * |E| + id
(``Segments.cells``).  ``forward`` is the B = 1 call and returns 1-D
logits; a one-user call carries none of a batch's fixed costs: its
universe is checked but nothing is stacked, its ``Segments`` is a shared
read-only instance, and the cells are the universe ids themselves.
Evaluation and ``pietsp predict`` read ``forward_batch``'s whole rows;
``evaluate``'s targets become a (B, |E|) bool block (``Batch.truth``).

Training takes another call, ``bce_gradients``, which never holds a
B x |E| block.  It shares ``_row_layers`` (the per-sample checks and every
layer before the global scores) with ``forward_batch``, then walks the
vocabulary in item blocks of LOSS_RUN // B items (``Batch.item_blocks``):
per block, the global scores are written into one reused block-sized
buffer and fused, ``linalg.bce_block`` writes that block's d_logits into a
second buffer and adds its loss terms to the rows' sums, and
``_scores_backward`` adds the block's ``fuse_global`` and ``emb`` rows and
its part of d set_repr.  The targets come from each block's (item, user)
pairs, not from a bool block.  A ``dc-like`` call (64 users, |E| = 217)
and a ``wide`` one (about 20 users, |E| = 2,048) are one block each; a
64-user call at |E| = 12,000 is 12.  The d_logits have the bits of
``train.bce_loss``'s and the logits those of ``forward_batch``'s; the
loss sums and d set_repr round in another order (over blocks, and
sum log(1 + e) through products, ``linalg.sum_log``), so losses and
gradients differ from that chain's in the last bits, and a fit from the
chain's in the last bits too.
``batches`` cuts a list of users into engine calls of bounded size
(``MAX_BATCH_ROWS`` universe rows, ``MAX_BATCH_USERS`` users) and yields each
call's ``make_batch``, which keeps the memory of a call independent of the
minibatch; every caller (training, evaluation, ``pietsp predict``) takes
its calls from it.  ``make_batch`` validates all the universes in
one pass over the stacked ids (each must rise strictly, as prepared samples
do, and lie in the vocabulary); only a user failing that pass is sorted on
its own, which accepts a permuted universe and otherwise raises the
``MappingError`` naming the user.  The first ``ModelParams`` a process
allocates sets glibc's malloc thresholds (``heap.keep_freed_heap``), so the
memory one engine call or one checkpoint load frees serves the next instead
of going back to the OS and being faulted in again.

Every R-row block of an engine call is column-major (a Fortran-ordered
R x D array): the equivariant pre-activation and ``pe_out``, the element
hidden layer, ``d_hidden``, d pe_out (``d_pre``) and ``d_rows``.  BLAS
writes each as the transposed product W^T X^T (``_affine`` and the two
backward products), so the passes along axis 0 that follow (segment sums,
column sums, the rank-one ``d_hidden``, the spread of per-set rows and the
embedding scatter's weights) walk contiguous memory, not R short rows of
D.  On one 4096 x 32 block (one pinned core of an x86-64 Xeon, numpy
2.4.6, OpenBLAS 0.3.31) the ``Segments.sum`` reduceat takes 40 us against
158 us C-ordered, ``sum(0)`` 34 against 122 us, and the rank-one
``np.multiply.outer`` 41 against 157 us.  Z stays C-ordered: building it
column-major costs more than its reduceat saves.  The equivariant layer
adds ``pe_bias`` to each set's shared row (``pe_bias - mean(Z) Wl``,
B x D), one R x D add instead of two.  The B-row products (that shared
row and the invariant MLP) use ``np.dot``, which dispatches faster than
``@`` (~0.2 us a call, felt by the one-user call); the R-row products use
``@``, because ``np.dot`` zero-fills its output first (~26 us a 4096 x 32
block).

Each layer is plain numpy.  A layer checks each value that can first turn
non-finite (every affine pre-activation before its ELU or ReLU, which would
map -inf to a finite value, the element scores and the summary) and raises
``NumericsError`` naming itself.  The B x |E| block is checked once, as
fused logits: a non-finite global score stays non-finite through the
fusion, so only a failed check recomputes the global scores to tell
whether ``ge_forward`` or ``fuse_scores`` is named (``_check_logits``).
A training call checks no block as such: ``bce_block``'s row sums are
non-finite whenever a logit is, and only then is the block checked, named
the same way.
Parameter shapes are checked once, where they enter from outside the
program (``checkpoint.load_checkpoint``).

The backward pass is derived by hand (no autodiff) and adds the gradients
of the whole call into a caller-owned ``ModelParams`` buffer, so a
minibatch sums into one table.  ``backward`` mirrors ``forward_batch`` with
one function per step: ``_scores_backward`` (``fuse_global`` and global
scoring over any run of items' d_logits columns, all of them here, one
item block at a time in ``bce_gradients``; returns d set_repr), then
``_rows_backward``, shared by both calls, which runs
``_element_backward`` (the element scores and ``fuse_local``, from each
universe row's d_logit; returns d pe_out), ``_invariant_backward`` (the
invariant MLP; returns each set's d pooled row, which sum pooling hands
to every row of the set) and ``_equivariant_backward`` (the equivariant
layer, the concatenation split and the embedding scatter, from the summed
d pe_out).  A variant skips the branch it drops, which its trace holds as
``None``.  The embedding table
receives gradient through two routes: the gather into Z (universe rows
only, added in place per (id, column) cell by ``np.add.at``,
``Batch.scatter_add``) and the global scoring o_s = M zbar (every row, one
(|E| x B)(B x D) product P).  The sparse ``fuse_local`` gradient is added
in place the same way: since numpy 1.25 ``np.add.at`` takes a fast path,
and on numpy 2.4.6 it beats summing into a dense |E|-wide ``np.bincount``
table and adding that in.  The global scores are not
kept for backward: the gradient of the fusion weights a is
sum_b d_logits[b] o_s[b], the row sums of P * M.  Ablation variants drop
one scoring branch, and every variant is fused by one ``fuse_scores`` call:

    "no-ee": y = a * o_s          (element scores removed)
    "no-ge": y = b * o_e on universe ids, 0 elsewhere (added into a zero block)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import iadd

import numpy as np

from .data import PreparedSample
from .errors import PietspError
from .heap import keep_freed_heap
from .linalg import NumericsError, ShapeError, bce_block, check_finite, elu, elu_grad, relu, relu_grad

CONCAT_LAYOUT = "membership-then-embedding"
VARIANTS = ("full", "no-ee", "no-ge")


class MappingError(PietspError):
    """Universe-to-vocabulary index map is invalid (duplicates or out of range)."""


# the weight slots; biases and the two fusion weight vectors are never decayed
DECAYED_SLOTS = frozenset({"emb", "pe_w_global", "pe_w_local", "ee_w1", "ee_w2", "pi_w1", "pi_w2", "pi_w3"})


def param_shapes(vocab_size: int, dim: int, k_max: int) -> dict[str, tuple[int, ...]]:
    """The shape of every slot for a model of the given dimensions, in ``PARAM_SLOTS`` order."""
    width = k_max + dim
    return {
        "emb": (vocab_size, dim),        # item embeddings, shared with global scoring
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
        "fuse_global": (vocab_size,),    # per-item weight on the global score
        "fuse_local": (vocab_size,),     # per-item weight on the element score
    }


PARAM_SLOTS = tuple(param_shapes(1, 1, 1))


@lru_cache(maxsize=32)
def _layout(vocab_size: int, dim: int, k_max: int) -> tuple[int, int, tuple]:
    """(buffer size, decayed prefix size, each slot's (name, start, stop, shape)): decayed slots first."""
    shapes = param_shapes(vocab_size, dim, k_max)
    spans, start = [], 0
    for name in sorted(PARAM_SLOTS, key=lambda s: s not in DECAYED_SLOTS):
        spans.append((name, start, start + math.prod(shapes[name]), shapes[name]))
        start = spans[-1][2]
    return start, spans[len(DECAYED_SLOTS)][1], tuple(spans)


class ModelParams:
    """All learnable arrays, as C-contiguous views of one buffer, ``flat``: the decayed slots first
    (the prefix ``decayed``), then the rest.  Gradients and optimizer moments use the same container.
    Assigning a slot writes into its view; a wrong shape raises ``ShapeError``."""

    def __init__(self, vocab_size: int, dim: int, k_max: int, dtype=np.float64, empty: bool = False):
        """A zeroed (with ``empty``, uninitialised) parameter set of the given dimensions."""
        keep_freed_heap()  # before the first table: a process's parameter sets all come from a kept heap
        size, decayed, spans = _layout(vocab_size, dim, k_max)
        flat = (np.empty if empty else np.zeros)(size, dtype)
        vars(self).update(flat=flat, decayed=flat[:decayed], **{n: flat[a:b].reshape(s) for n, a, b, s in spans})

    def __setattr__(self, name, value):
        view = vars(self).get(name)
        if value is view:  # ``grads.emb += x`` assigns the slot's own view back
            return
        if view is None:
            raise AttributeError(f"ModelParams has no slot '{name}'")
        if np.shape(value) != view.shape:
            raise ShapeError(f"slot '{name}': shape {np.shape(value)}, expected {view.shape}")
        view[...] = value

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
        for name in PARAM_SLOTS:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        return self.astype(self.flat.dtype)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.vocab_size, self.dim, self.k_max, self.flat.dtype)

    def astype(self, dtype) -> "ModelParams":
        out = ModelParams(self.vocab_size, self.dim, self.k_max, dtype, empty=True)
        out.flat[...] = self.flat
        return out


def init_params(vocab_size: int, dim: int, k_max: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, N(0, 0.1) embeddings, unit fusion weights."""
    if dim < 1 or k_max < 1 or vocab_size < 1:
        raise PietspError(f"bad model dims: vocab={vocab_size} dim={dim} k_max={k_max}")
    rng = np.random.default_rng(seed)
    params = ModelParams(vocab_size, dim, k_max)
    width = k_max + dim
    rng.standard_normal(out=params.emb)  # drawn in place: rng.normal(0.0, 0.1) is 0.0 + 0.1 z of the same z
    params.emb *= 0.1
    for name, fan_in, fan_out in (("pe_w_global", width, dim), ("pe_w_local", width, dim), ("ee_w1", dim, dim),
                                  ("ee_w2", dim, 1), ("pi_w1", dim, dim), ("pi_w2", dim, dim), ("pi_w3", dim, dim)):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        setattr(params, name, rng.uniform(-bound, bound, size=getattr(params, name).shape))
    params.fuse_global[...] = 1.0
    params.fuse_local[...] = 1.0
    return params


MAX_BATCH_ROWS = 4096   # universe rows per engine call: bounds the R x (K+D) and R x D arrays
MAX_BATCH_USERS = 64    # users per engine call: bounds the B x |E| score blocks of forward_batch
LOSS_RUN = 1 << 16      # elements of a training call's item block (512 KB in float64): LOSS_RUN // B items


_FIRST_ROW = np.zeros(1, dtype=np.intp)
_FIRST_ROW.flags.writeable = False  # the offsets of every one-set ``Segments``


@dataclass(frozen=True)
class Segments:
    """A ragged stack of B sets: set b owns rows offsets[b] .. offsets[b] + counts[b] - 1."""

    offsets: np.ndarray  # (B,) first row of each set
    counts: np.ndarray   # (B,) rows per set, all >= 1

    @classmethod
    @lru_cache(maxsize=1024)
    def one(cls, n_rows: int) -> "Segments":
        """All rows form one set; one shared, read-only instance per row count."""
        counts = np.array([n_rows], dtype=np.intp)
        counts.flags.writeable = False
        return cls(_FIRST_ROW, counts)

    @property
    def size(self) -> int:
        return int(self.counts.size)

    def cells(self, ids: np.ndarray, width: int) -> np.ndarray:
        """(R,) the flat index b * width + ids[r] of every row's cell in a C-ordered (B, width) block;
        ``ids`` itself for one set."""
        return ids if self.size == 1 else ids + self.spread(np.arange(0, self.size * width, width))

    def sum(self, x: np.ndarray) -> np.ndarray:
        """(B, ...) per-set sums of the rows of ``x``; the reduceat walks contiguous memory when ``x`` is
        column-major."""
        return np.add.reduceat(x, self.offsets, axis=0)

    def mean(self, x: np.ndarray) -> np.ndarray:
        out = self.sum(x)
        out /= self.counts[:, None]
        return out

    def spread(self, per_set: np.ndarray) -> np.ndarray:
        """(B,) -> (R,) or (B, D) -> column-major (R, D): each set's row repeated over its rows (a
        broadcastable view for B = 1).  Column-major like the R-row blocks it is added to, so that add
        walks contiguous memory: the repeat runs along each column of the transposed (D, B) rows."""
        return per_set if self.size == 1 else np.repeat(per_set.T, self.counts, axis=-1).T


@dataclass
class Batch:
    """One engine call's B users: universes concatenated in user order, the samples kept as they are."""

    ids: np.ndarray            # (R,) vocabulary id of every universe row
    samples: tuple[PreparedSample, ...]  # the users in row order: ``forward_batch`` stacks their membership
    segs: Segments

    @property
    def size(self) -> int:
        return self.segs.size

    def targets(self, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
        """(user, item id) of every target, user by user: what ``truth`` marks and ``item_blocks`` cuts.

        A target id outside [0, |E|) raises ``MappingError`` naming the first user holding one."""
        target_ids = [s.target_ids for s in self.samples]
        ids = np.concatenate(target_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
            user = next(s.user_id for s, t in zip(self.samples, target_ids) if ((t < 0) | (t >= vocab_size)).any())
            raise MappingError(f"user '{user}': target ids outside [0, {vocab_size})")
        return np.repeat(np.arange(len(target_ids)), [t.size for t in target_ids]), ids

    def truth(self, vocab_size: int) -> np.ndarray:
        """(B, |E|) bool block marking each user's ``targets``: ``evaluate``'s truth."""
        truth = np.zeros((self.size, vocab_size), dtype=bool)
        truth[self.targets(vocab_size)] = True
        return truth

    def item_blocks(self, vocab_size: int, width: int):
        """Cut the vocabulary into blocks of ``width`` items (the last one shorter) and yield, block by
        block, (start, stop, rows, cells, hits): the universe rows with an id in [start, stop), each such
        row's flat index in a C-ordered (B, stop - start) block, and the flat indices of the targets there.

        The target ids are checked first (``targets``).  One block takes every row in order, with no
        sort or gather, since most calls are one block (every ``dc-like`` and ``wide`` call).  Past one
        block, every row's and every target's cell in its block is computed at once, and the rows and the
        (item, user) target pairs are sorted by block (stable), so each block takes its own as slices.
        """
        target_users, target_ids = self.targets(vocab_size)
        if width >= vocab_size:
            yield (0, vocab_size, slice(None), self.segs.cells(self.ids, vocab_size),
                   target_users * vocab_size + target_ids)
            return

        def cells(users, ids, blocks):
            return users * np.minimum(width, vocab_size - blocks * width) + (ids - blocks * width)

        blocks = self.ids // width
        order = np.argsort(blocks, kind="stable")
        row_cells = cells(np.repeat(np.arange(self.size), self.segs.counts), self.ids, blocks)[order]
        hit_ids, hit_users = np.divmod(np.sort(target_ids * self.size + target_users), self.size)  # by item
        hit_cells = cells(hit_users, hit_ids, hit_ids // width)
        edges = np.arange(-(-vocab_size // width) + 1)
        row_at, hit_at = np.searchsorted(blocks[order], edges), np.searchsorted(hit_ids, edges * width)
        for b in range(edges.size - 1):
            rows, hits = slice(row_at[b], row_at[b + 1]), slice(hit_at[b], hit_at[b + 1])
            yield b * width, min(vocab_size, (b + 1) * width), order[rows], row_cells[rows], hit_cells[hits]

    def scatter_add(self, table: np.ndarray, rows: np.ndarray) -> None:
        """``table[ids[r]] += rows[r]`` for every row r; rows of an id repeated across users are summed.

        One ``np.add.at`` adds every entry of ``rows`` in place at its flat
        cell index ids[r] * D + column of ``table``, so no (|E| x D) scratch
        table is filled (on numpy 2.4.6 the dense ``np.bincount`` table and
        its add took up to 3x as long on a 12,000-item vocabulary).  The
        cells are taken column by column, ``np.add.outer(arange(D), ids * D)``
        against ``rows.T``: a view of the engine's column-major ``d_rows``,
        and a copy for C-ordered input.  Every cell adds its rows in row
        order either way, so both orders give the same bits.  ``table`` must
        be C-contiguous, so that the flat view writes into it; any other
        table raises ``ShapeError``.
        """
        if not table.flags.c_contiguous:
            raise ShapeError(f"scatter_add: a {table.shape} table that is not C-contiguous has no flat view")
        dim = table.shape[1]
        np.add.at(table.reshape(-1), np.add.outer(np.arange(dim), self.ids * dim).reshape(-1), rows.T.reshape(-1))


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


def _check_universes(samples: list[PreparedSample], ids: np.ndarray, offsets: np.ndarray, vocab_size: int) -> None:
    """Raise ``MappingError`` for the first user whose universe has duplicate or out-of-range ids.

    One pass over the stacked ids: every universe must rise strictly (sorted
    and distinct, as ``PreparedSample`` builds it) and every id lie in
    [0, vocab_size).  Only users failing either test go through the
    sort-based ``_check_universe``, which accepts a distinct in-range
    universe in any order and words the error.
    """
    falls = ids[1:] <= ids[:-1]
    falls[offsets[1:] - 1] = False  # a user's first id may lie below the previous user's last
    suspects = np.flatnonzero(falls) + 1
    if ids.min() < 0 or ids.max() >= vocab_size:
        suspects = np.concatenate((suspects, np.flatnonzero((ids < 0) | (ids >= vocab_size))))
    if suspects.size:
        for b in np.unique(np.searchsorted(offsets, suspects, side="right") - 1):
            _check_universe(samples[b], vocab_size)


def make_batch(samples: list[PreparedSample], vocab_size: int) -> Batch:
    """Stack the samples for one engine call, validating all their universes in one pass."""
    if len(samples) == 1:  # predict's call: nothing to stack, and a rising universe spans [u[0], u[-1]]
        (s,) = samples
        u = s.universe
        if u.ndim != 1 or u.size == 0 or u[0] < 0 or u[-1] >= vocab_size or not (u[1:] > u[:-1]).all():
            _check_universe(s, vocab_size)
        return Batch(ids=u, samples=(s,), segs=Segments.one(u.size))
    for sample in samples:
        if sample.universe.ndim != 1 or sample.universe.size == 0:
            _check_universe(sample, vocab_size)
    counts = np.array([s.universe.size for s in samples], dtype=np.intp)
    offsets = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=offsets[1:])
    ids = np.concatenate([s.universe for s in samples])
    _check_universes(samples, ids, offsets, vocab_size)
    return Batch(ids=ids, samples=tuple(samples), segs=Segments(offsets, counts))


def batches(samples: list[PreparedSample], vocab_size: int):
    """``make_batch`` of each consecutive run of ``samples`` with at most MAX_BATCH_USERS users and
    MAX_BATCH_ROWS universe rows; a user whose universe alone exceeds the row cap gets a run of its own."""
    start, rows = 0, 0
    for i, sample in enumerate(samples):
        n = sample.universe.size
        if i > start and (rows + n > MAX_BATCH_ROWS or i - start == MAX_BATCH_USERS):
            yield make_batch(samples[start:i], vocab_size)
            start, rows = i, 0
        rows += n
    if start < len(samples):
        yield make_batch(samples[start:], vocab_size)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, cached once per engine call."""

    batch: Batch
    cells: np.ndarray | None          # (R,) flat index of every universe row's (user, item) cell of the logits;
    # None in a training call, which takes each item block's own cells (``Batch.item_blocks``)
    z: np.ndarray                     # (R, K+D) concatenated input, C-ordered (cheaper to build than to reduce)
    z_mean: np.ndarray                # (B, K+D) per-user means of z's rows
    pe_out: np.ndarray                # (R, D) after the equivariant layer, column-major: summed along axis 0
    ee_hidden: np.ndarray | None      # (R, D) relu activations, column-major like pe_out
    elem_scores: np.ndarray | None    # (R,)
    pooled: np.ndarray | None         # (B, D) per-user sums of pe_out
    pi_h1: np.ndarray | None          # (B, D)
    pi_h2: np.ndarray | None          # (B, D)
    set_repr: np.ndarray | None       # (B, D)
    logits: np.ndarray | None         # (B, |E|); (|E|,) from ``forward``; None in a training call


def sfi_concat(m_u: np.ndarray, membership) -> np.ndarray:
    """Row-wise concatenation [membership | embedding], fixed layout, in the embedding's dtype.

    ``membership`` is one (R, K) array or the users' (N_b, K) blocks in row order;
    bool blocks become exact 0.0 and 1.0 in Z.
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


def _affine(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ w + bias as a column-major (R, D) block; ``bias`` is one (1, D) row or an (R, D) block.

    BLAS writes the transposed product w.T @ x.T, a C-ordered (D, R) block, and the bias is added to it
    in that layout: a (1, D) row then broadcasts as a column along contiguous rows, ~0.3 us a call
    cheaper on a one-user 27 x 32 block than the same add over the F-ordered (R, D) view.
    """
    out = w.T @ x.T
    out += bias.T
    return out.T


def pe_forward(
    z: np.ndarray, params: ModelParams, segs: Segments | None = None, z_mean: np.ndarray | None = None
) -> np.ndarray:
    """Equivariant layer: ELU(Z Wg + (bg - mean_i(Z_i) Wl)), one shared row per set; column-major (R, D).

    ``segs`` splits the rows of ``z`` into sets; all rows form one set when omitted.
    ``z_mean`` is ``segs.mean(z)`` when the caller already has it.
    """
    if segs is None:
        segs = Segments.one(z.shape[0])
    if z_mean is None:
        z_mean = segs.mean(z)
    pre = _affine(z, params.pe_w_global, segs.spread(params.pe_bias - np.dot(z_mean, params.pe_w_local)))
    check_finite(pre, "pe_forward")
    return elu(pre, out=pre)


def ee_forward(pe_out: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-element scorer; returns (scores (R,), relu hidden (R, D), column-major)."""
    hidden = _affine(pe_out, params.ee_w1, params.ee_b1[None])
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
    h1 = np.dot(pooled, params.pi_w1) + params.pi_b1
    check_finite(h1, "pi_forward")
    elu(h1, out=h1)
    h2 = np.dot(h1, params.pi_w2) + params.pi_b2
    check_finite(h2, "pi_forward")
    elu(h2, out=h2)
    set_repr = np.dot(h2, params.pi_w3) + params.pi_b3
    check_finite(set_repr, "pi_forward")
    return set_repr, pooled, h1, h2


def ge_forward(set_repr: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Score every vocabulary item against each set summary: (B, D) -> (B, |E|), or (D,) -> (|E|,).

    Not checked here: ``forward_batch`` checks the fused logits (``_check_logits``)."""
    return set_repr @ emb.T


def fuse_scores(
    global_scores: np.ndarray | None,
    elem_scores: np.ndarray | None,
    universe: np.ndarray,
    fuse_global: np.ndarray,
    fuse_local: np.ndarray,
    cells: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Blend: every item gets a_j * o_s[j]; universe items add b_j * o_e[i], unless ``elem_scores`` is None.

    ``cells`` gives the flat index (``Segments.cells``) of each universe
    entry's score when ``global_scores`` is a (B, |E|) block; each must
    occur once.  ``out=global_scores`` works in place on a C-ordered block.
    ``global_scores`` None is no global term: the element scores are added
    into ``out``, a zero block, with no multiply.
    Not checked here: ``forward_batch`` checks the result (``_check_logits``).
    """
    logits = out if global_scores is None else np.multiply(fuse_global, global_scores, out=out, order="C")
    if elem_scores is not None:
        logits.reshape(-1)[universe if cells is None else cells] += fuse_local[universe] * elem_scores
    return logits


def _check_logits(logits: np.ndarray, set_repr: np.ndarray | None, emb: np.ndarray) -> None:
    """One finiteness check of the fused logits, naming ``fuse_scores`` or, when the global
    scores ``set_repr @ emb.T`` (recomputed only then) are already non-finite, ``ge_forward``."""
    try:
        check_finite(logits, "fuse_scores")
    except NumericsError:
        if set_repr is not None:
            check_finite(ge_forward(set_repr, emb), "ge_forward")
        raise


def _row_layers(batch: Batch, params: ModelParams, variant: str) -> ForwardTrace:
    """The per-sample checks and every layer before the global scores, shared by ``forward_batch`` and
    ``bce_gradients``; the trace's logits are None."""
    if variant not in VARIANTS:
        raise PietspError(f"unknown variant '{variant}', expected one of {VARIANTS}")
    vocab_size, k_max = params.vocab_size, params.k_max
    for s in batch.samples:  # before any product, refused by name: a sample prepared for other parameters, or whose
        # membership block is not one row a universe item (Z's rows would be scored for another user's items)
        if s.membership.ndim != 2:
            raise MappingError(f"user '{s.user_id}': a membership block of shape {s.membership.shape} is not 2-D"
                               " (one row a universe item, one column a history step)")
        if s.vocab_size != vocab_size or s.membership.shape[1] != k_max:
            raise MappingError(f"user '{s.user_id}': prepared for vocab_size {s.vocab_size} and k_max {s.membership.shape[1]},"
                               f" but the parameters take vocab_size {vocab_size} and k_max {k_max}")
        if s.membership.shape[0] != s.universe.size:
            raise MappingError(f"user '{s.user_id}': {s.membership.shape[0]} membership rows for a universe of"
                               f" {s.universe.size} items")
    segs, ids = batch.segs, batch.ids
    z = sfi_concat(params.emb.take(ids, axis=0), [s.membership for s in batch.samples])
    z_mean = segs.mean(z)  # kept for backward's Wl gradient
    pe_out = pe_forward(z, params, segs, z_mean)

    elem_scores = hidden = set_repr = pooled = h1 = h2 = None
    if variant != "no-ee":
        elem_scores, hidden = ee_forward(pe_out, params)
    if variant != "no-ge":
        set_repr, pooled, h1, h2 = pi_forward(pe_out, params, segs)
    return ForwardTrace(
        batch=batch,
        cells=None,
        z=z,
        z_mean=z_mean,
        pe_out=pe_out,
        ee_hidden=hidden,
        elem_scores=elem_scores,
        pooled=pooled,
        pi_h1=h1,
        pi_h2=h2,
        set_repr=set_repr,
        logits=None,
    )


def forward_batch(batch: Batch, params: ModelParams, variant: str = "full") -> ForwardTrace:
    """The forward pass of every user in ``batch`` at once; logits are (B, |E|)."""
    trace = _row_layers(batch, params, variant)
    set_repr, trace.cells = trace.set_repr, batch.segs.cells(batch.ids, params.vocab_size)
    global_scores = None if set_repr is None else ge_forward(set_repr, params.emb)  # fused in place below
    logits = np.zeros((batch.size, params.vocab_size), trace.pe_out.dtype) if global_scores is None else global_scores
    fuse_scores(global_scores, trace.elem_scores, batch.ids, params.fuse_global, params.fuse_local, trace.cells,
                out=logits)
    _check_logits(logits, set_repr, params.emb)
    trace.logits = logits
    return trace


def forward(sample: PreparedSample, params: ModelParams, variant: str = "full") -> ForwardTrace:
    """One user's forward pass: the engine at B = 1, with 1-D logits (|E|,).

    The logits agree with the user's row of a larger engine call to rounding, not bit for bit: the BLAS
    takes a vector-matrix product here and a matrix product there."""
    trace = forward_batch(make_batch([sample], params.vocab_size), params, variant)
    trace.logits = trace.logits[0]
    return trace


def _element_backward(trace: ForwardTrace, params: ModelParams, d_at: np.ndarray, grads: ModelParams) -> np.ndarray:
    """Score fusion's ``fuse_local`` and the element scoring branch; returns d pe_out (R x D).

    ``d_at`` (R,) is d_logits at each universe row's own cell: the cells are distinct, the ids may repeat.
    """
    ids = trace.batch.ids
    np.add.at(grads.fuse_local, ids, d_at * trace.elem_scores)
    d_elem = d_at * params.fuse_local[ids]
    grads.ee_w2 += trace.ee_hidden.T @ d_elem
    grads.ee_b2 += d_elem.sum(0)
    d_hidden = np.multiply.outer(params.ee_w2, d_elem).T
    d_hidden *= relu_grad(trace.ee_hidden)
    grads.ee_w1 += trace.pe_out.T @ d_hidden
    grads.ee_b1 += d_hidden.sum(0)
    return (params.ee_w1 @ d_hidden.T).T


def _scores_backward(d_logits: np.ndarray, set_repr: np.ndarray, params: ModelParams, grads: ModelParams,
                     start: int = 0) -> np.ndarray:
    """Score fusion's ``fuse_global`` and global scoring for the items start, start + 1, ... whose d_logits
    columns (B x w) are given: adds those items' ``fuse_global`` and ``emb`` rows and returns their part of
    d set_repr (B x D).

    With P = d_logits^T zbar (w x D) and o_s = M zbar, the fusion gradient sum_b d_logits o_s is the
    row sums of P * M; with d_global = d_logits * a (per item), d_global^T zbar = a * P and
    d_global M = d_logits (a * M): no B x w product is formed.
    """
    stop = start + d_logits.shape[1]
    emb, fuse_global = params.emb[start:stop], params.fuse_global[start:stop]
    emb_global = d_logits.T @ set_repr
    grads.fuse_global[start:stop] += np.einsum("ed,ed->e", emb_global, emb)
    emb_global *= fuse_global[:, None]
    grads.emb[start:stop] += emb_global
    del emb_global
    return d_logits @ (fuse_global[:, None] * emb)


def _invariant_backward(trace: ForwardTrace, params: ModelParams, d_repr: np.ndarray, grads: ModelParams) -> np.ndarray:
    """The invariant MLP, from d set_repr (B x D); returns d pooled (B x D)."""
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
    return d_h1 @ params.pi_w1.T


def _equivariant_backward(trace: ForwardTrace, params: ModelParams, d_pre: np.ndarray, grads: ModelParams) -> None:
    """The equivariant layer, the concatenation split and the embedding scatter.

    ``d_pre`` enters as d pe_out (R x D) and becomes the gradient of the pre-activation in place; it is
    freed before the scatter when the caller holds no other reference.  Each set's shared row subtracts
    mean_i(Z_i) Wl, so its gradient is -d_pre summed over the set.  Only the trailing D columns of Z
    (the gathered embeddings) are parameters.
    """
    segs = trace.batch.segs
    d_pre *= elu_grad(trace.pe_out)
    d_sum = segs.sum(d_pre)
    grads.pe_w_global += trace.z.T @ d_pre
    grads.pe_bias += d_sum.sum(0)
    grads.pe_w_local -= trace.z_mean.T @ d_sum

    k_max = params.k_max
    d_rows = (params.pe_w_global[k_max:] @ d_pre.T).T
    del d_pre
    d_rows -= segs.spread((d_sum @ params.pe_w_local[k_max:].T) / segs.counts[:, None])
    trace.batch.scatter_add(grads.emb, d_rows)


def _rows_backward(trace: ForwardTrace, params: ModelParams, d_at: np.ndarray | None, d_repr: np.ndarray | None,
                   grads: ModelParams) -> None:
    """Every gradient below the fusion's global term, from d_logits at each universe row's cell (``d_at``)
    and the whole d set_repr (``d_repr``); a variant's dropped branch passes None.

    d pe_out is the element branch's gradient plus, by sum pooling, each set's pooled gradient on
    every row of the set.  It is passed on as the call's temporary, never held here, so that
    ``_equivariant_backward`` frees it before its scatter.
    """
    segs = trace.batch.segs
    if d_repr is None:  # no global branch
        _equivariant_backward(trace, params, _element_backward(trace, params, d_at, grads), grads)
    elif d_at is None:  # no element branch
        _equivariant_backward(trace, params, iadd(np.zeros_like(trace.pe_out),
                                                  segs.spread(_invariant_backward(trace, params, d_repr, grads))),
                              grads)
    else:  # the pooled gradient is added into the element branch's array
        _equivariant_backward(trace, params, iadd(_element_backward(trace, params, d_at, grads),
                                                  segs.spread(_invariant_backward(trace, params, d_repr, grads))),
                              grads)


def backward(trace: ForwardTrace, params: ModelParams, d_logits: np.ndarray, grads: ModelParams) -> None:
    """Add the gradients of sum(logits * d_logits) for every parameter slot into ``grads``.

    The global branch's |E| side is ``_scores_backward`` over all of d_logits' columns at once.
    """
    segs = trace.batch.segs
    shape = (segs.size, params.vocab_size)
    if d_logits.shape != shape and not (segs.size == 1 and d_logits.shape == shape[1:]):
        raise ShapeError(f"backward: d_logits {d_logits.shape} vs logits {shape}")
    d_logits = d_logits.reshape(segs.size, -1)
    d_at = None if trace.elem_scores is None else d_logits.reshape(-1)[trace.cells]
    d_repr = None if trace.set_repr is None else _scores_backward(d_logits, trace.set_repr, params, grads)
    _rows_backward(trace, params, d_at, d_repr, grads)


def bce_gradients(batch: Batch, params: ModelParams, variant: str, grads: ModelParams) -> np.ndarray:
    """Add the gradients of the summed BCE losses (``train.bce_loss``) of ``batch``'s users into ``grads``;
    returns each user's loss (B,).

    The training call: ``forward_batch``, the loss and ``backward`` in one
    pass that holds no B x |E| block.  After ``_row_layers`` it walks the
    vocabulary in blocks of w = LOSS_RUN // B items (``Batch.item_blocks``;
    one block when |E| <= w).  Per block, one reused B x w buffer receives
    the fused logits (the bits of ``forward_batch``'s), ``linalg.bce_block``
    writes their d_logits (the bits of ``bce_loss``'s) into a second one and
    adds their loss terms to the row sums, ``_scores_backward`` adds the
    block's ``fuse_global`` and ``emb`` rows and its part of d set_repr, and
    each universe row's d_logit is gathered for ``_rows_backward``.  The
    sums round in another order than ``bce_loss``'s, so the losses agree
    with it to a few units in the last place, not bit for bit.  A non-finite
    logit raises ``NumericsError`` naming ``fuse_scores`` or ``ge_forward``,
    as in ``forward_batch``.
    """
    trace = _row_layers(batch, params, variant)
    ids, set_repr, size, n = batch.ids, trace.set_repr, batch.size, params.vocab_size
    width = max(1, LOSS_RUN // size)
    local = None if trace.elem_scores is None else params.fuse_local[ids] * trace.elem_scores
    d_at = None if local is None else np.empty(ids.size, trace.pe_out.dtype)
    d_repr = None if set_repr is None else np.zeros_like(set_repr)
    sums = np.zeros(size, trace.pe_out.dtype)
    buffers = np.empty((2, size * min(width, n)), trace.pe_out.dtype)
    for start, stop, rows, cells, hits in batch.item_blocks(n, width):
        y, d = (buf[: size * (stop - start)].reshape(size, -1) for buf in buffers)
        if set_repr is None:
            y.fill(0)
        else:
            np.matmul(set_repr, params.emb[start:stop].T, out=y)
            y *= params.fuse_global[start:stop]
        if local is not None:
            y.reshape(-1)[cells] += local[rows]
        sums += bce_block(y, hits, n, d, lambda logits: _check_logits(logits, set_repr, params.emb))
        if d_at is not None:
            d_at[rows] = d.reshape(-1)[cells]
        if d_repr is not None:
            d_repr += _scores_backward(d, set_repr, params, grads, start)
    del buffers, y, d  # freed before the backward's R-row blocks are allocated
    _rows_backward(trace, params, d_at, d_repr, grads)
    return sums / n
