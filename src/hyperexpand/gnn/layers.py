"""GIN and bipartite expander layers with manual reverse-mode gradients.

Everything is dense float64 numpy. The kernels take features of shape
(batch, nodes, dim) and an adjacency of shape (nodes, nodes) or
(batch, nodes, nodes). A shared (m, m) adjacency may cover only the first
m < nodes rows: a rewired run's tree adjacency, whose hyperedge rows
aggregate zero, as under the adjacency zero-padded to (nodes, nodes).
Gradients are accumulated into a flat name->array dict so the finite
difference tests and the optimizer can treat parameters uniformly.

Each kernel takes an optional Workspace and writes every (batch, nodes,
width) array into it with out=, so a training run allocates its
activations once instead of once per step. Outputs and caches stay valid
until the next call that uses the same workspace. Without a workspace a
call uses a fresh one, and its results are never overwritten.

A workspace entered as a context manager also splits each kernel's
per-sample ops across the CPUs in the process's affinity mask: the
batched matmuls against the adjacency and the weights, the elementwise,
bias and ReLU-mask ops, and the copy of a strided dout each run on
contiguous batch slices, the first on the calling thread and the others
on a thread pool that the with block owns. A GIN step's forward, its
aggregation and its MLP, is one split; its backward is three: the ReLU
gradient, the input gradient with the transposed aggregation, and the
epsilon product. Every reduction over the batch (the weight-gradient
GEMMs, the bias and epsilon sums; the head GEMMs and the loss in
model.py) runs whole on one thread, between splits. The two
weight-gradient GEMMs of one GIN backward may run at the same time, one
on the calling thread and one on a pool thread. No float depends on where
the batch is cut or on which thread runs a reduction, so results are
bit-identical whatever the CPU count; see Workspace for why and for the
rules a split follows.
train() owns the only entered workspace, and its pool shuts down with
the run.
"""

from __future__ import annotations

import contextvars
import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from ..rng import SplitMix64


class HyperedgeMode(enum.Enum):
    LEARNED = "learned"
    SUMMATION = "summation"


@dataclass
class Affine:
    w: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (d_out,)


@dataclass
class GinLayerParams:
    """h_v <- MLP((1 + eps) h_v + sum of neighbor features).

    The MLP is affine, rectifier, affine; eps is a learnable scalar held
    as a 0-d array so updates can mutate it in place.
    """

    epsilon: np.ndarray  # shape ()
    w1: np.ndarray  # (d_in, d_hidden)
    b1: np.ndarray  # (d_hidden,)
    w2: np.ndarray  # (d_hidden, d_out)
    b2: np.ndarray  # (d_out,)


@dataclass
class ExpanderLayerParams:
    """Two-phase bipartite pass: left -> hyperedge nodes, then back.

    The hyperedge parameters' type is the mode. A GinLayerParams runs a
    GIN update on the hyperedge nodes (LEARNED), reading their own rows
    as well as their left neighbors. Those rows are not carried unchanged
    from one expander layer to the next: each ORIGINAL layer in between
    applies its MLP to them with zero aggregation, because the tree
    adjacency does not reach them. An Affine (SUMMATION) overwrites each
    hyperedge feature with a linear map of the sum of its left neighbors.
    Phase 2 is always a GIN update of the left nodes.
    """

    backward_gin: GinLayerParams
    hyperedge: GinLayerParams | Affine

    @property
    def mode(self) -> HyperedgeMode:
        if isinstance(self.hyperedge, GinLayerParams):
            return HyperedgeMode.LEARNED
        return HyperedgeMode.SUMMATION


def glorot(rng: SplitMix64, d_in: int, d_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (d_in + d_out))
    vals = [rng.uniform(-limit, limit) for _ in range(d_in * d_out)]
    return np.array(vals, dtype=np.float64).reshape(d_in, d_out)


def init_gin_params(rng: SplitMix64, d_in: int, d_hidden: int, d_out: int) -> GinLayerParams:
    return GinLayerParams(
        epsilon=np.zeros(()),
        w1=glorot(rng, d_in, d_hidden),
        b1=np.zeros(d_hidden),
        w2=glorot(rng, d_hidden, d_out),
        b2=np.zeros(d_out),
    )


def init_affine(rng: SplitMix64, d_in: int, d_out: int) -> Affine:
    return Affine(w=glorot(rng, d_in, d_out), b=np.zeros(d_out))


def init_expander_params(
    rng: SplitMix64, mode: HyperedgeMode, dim: int, d_hidden: int
) -> ExpanderLayerParams:
    """Expander layers are square (dim -> dim): phase 2 adds the phase-1
    output to the left nodes' own features, so widths must agree. The
    hyperedge parameters are drawn first."""
    if mode is HyperedgeMode.LEARNED:
        hyperedge = init_gin_params(rng, dim, d_hidden, dim)
    else:
        hyperedge = init_affine(rng, dim, dim)
    return ExpanderLayerParams(init_gin_params(rng, dim, d_hidden, dim), hyperedge)


# ---------------------------------------------------------------------------
# batched kernels
#
# np.swapaxes(adj, -1, -2), not adj.T, transposes both (n, n) and
# (B, n, n) adjacencies.
#
# Every (B, rows, width) array a kernel makes is a Workspace view written
# with out=. Each op keeps the operands and order of the plain expression,
# so results are bit-identical to fresh arrays. A kernel takes all its
# buffers first and then runs its per-sample ops as one function of a
# batch slice through Workspace.split; the reductions over the batch (the
# weight, bias and epsilon gradients) run whole between splits. A forward
# pass keeps its outputs and caches under the layer's key; every pass
# shares the scratch keys below, each live within one step:
#   "a"     forward: the aggregation; backward: d z (which is d agg)
#   "b"     backward: a contiguous copy of a strided dout for a weight
#           gradient, then the transposed aggregation of d z (d right in
#           an expander layer, which SUMMATION's backward overwrites
#           slice by slice once read)
#   "c"     backward: d r (masked in place to d a1), then dz * h_self.
#           The two views differ in shape when d_in != hidden (layer 0),
#           so one slice's write could land on another's unread input: the
#           epsilon product has a split of its own.
#   "mask"  backward: where a1 is not positive (NaN included)

# Threads an entered Workspace splits a batch across, the calling thread
# included: the CPUs in this process's affinity mask.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# A kernel splits its batch only when its main (B, rows, width) array
# holds at least this many floats (4 MiB). Measured as full-batch steps at
# B=500 and width 32 on two CPUs, split throughout against serial: depth
# 2 (arrays of at most 448k floats) gained nothing, depth 3 (480k) ran up
# to 16% slower, depth 4 (496k-992k) 1.3-1.4x and depth 5 (1.0M-4.1M)
# 1.5-1.6x as fast. The cut is the power of two above depth 3, so depth
# 4's 496k-float arrays stay serial.
_SPLIT_MIN_FLOATS = 1 << 19


def _rows(a, s):
    """Batch slice s of a per-sample (3-d) operand; a shared (n, n)
    adjacency or a scalar is used whole."""
    return a[s] if np.ndim(a) == 3 else a


class Workspace:
    """Arrays that one training run reuses from step to step, and the
    thread pool its kernels split the batch across.

    take(key, shape) returns a C-contiguous view of the flat array stored
    under key, replacing it with a larger one when shape needs more room,
    so a ragged last minibatch and a full-batch evaluation reuse the
    buffers of the largest batch seen. Anything a kernel returns, or keeps
    in a cache, is such a view: it stays valid until the next call that
    uses the same workspace. Callers that hold results across calls pass
    no workspace, and each call gets a fresh one.

    split(run, like) calls run(s) on contiguous slices s that cover the
    batch (first axis) of like. Inside `with Workspace() as ws:` and once
    like holds _SPLIT_MIN_FLOATS floats, the calling thread runs the
    first slice and a pool of _WORKERS - 1 threads the others, each in a
    copy of the caller's context (so np.errstate holds there too); split
    waits for every slice, whether one raised or not, and then re-raises
    what a pool thread raised. Otherwise, and always in a workspace that
    was never entered, run(slice(0, B)) runs inline and no thread starts.
    pair(first, second, like) follows the same rule: first runs on a pool
    thread while second runs on the calling thread, or both run inline,
    first then second.
    The with block owns the pool: train() enters one workspace per run,
    and the pool shuts down when the block exits, whether it returns or
    raises.

    The split moves no bits. numpy's matmul makes one BLAS call per batch
    matrix and an elementwise op computes each element on its own, so no
    float depends on where the batch is cut; every reduction over the
    batch runs whole on one thread, between splits, and the two that pair
    runs at once only read their inputs and write separate gradients. A
    run(s) touches only slice s of batched operands, never calls take
    (keys are taken before the split), and calls no public kernel:
    perfbench's span recorder keeps one span stack for one thread. One
    run(s) may read a key and then write it in the same shape (scratch
    "b" in SUMMATION's backward), since its slice is its own. A key that
    one kernel views in two shapes needs separate splits for the steps
    that use the two views, since slice boundaries differ between them
    (scratch "c").
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._pool = None  # a concurrent.futures.ThreadPoolExecutor inside the with block

    def __enter__(self) -> Workspace:
        if _WORKERS > 1:
            # imported here, not with the module: its import (logging
            # included) adds about 6 ms to every CLI start on a 2-vCPU VM,
            # trained or not
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="gin-split")
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        if key not in self._flat or self._flat[key].size < size:
            self._flat.pop(key, None)  # freed before the larger one is allocated, unless a view holds it
            self._flat[key] = np.empty(size, dtype)
        return self._flat[key][:size].reshape(shape)

    def _parts(self, like: np.ndarray) -> int:
        """Threads that share the work on like's batch: 1 unless entered
        and like holds _SPLIT_MIN_FLOATS floats."""
        if self._pool is None or like.size < _SPLIT_MIN_FLOATS:
            return 1
        return min(_WORKERS, like.shape[0])

    def _join(self, jobs, run, *args) -> None:
        """Runs run(*args) here, waits for every pool job, then re-raises
        what a pool job raised."""
        try:
            run(*args)
        finally:
            errors = [job.exception() for job in jobs]  # waits for each
        for error in errors:
            if error is not None:
                raise error

    def _submit(self, run, *args):
        return self._pool.submit(contextvars.copy_context().run, run, *args)

    def split(self, run, like: np.ndarray) -> None:
        batch = like.shape[0]
        parts = self._parts(like)
        if parts < 2:
            run(slice(0, batch))
            return
        cuts = [batch * i // parts for i in range(parts + 1)]
        jobs = [self._submit(run, slice(lo, hi)) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        self._join(jobs, run, slice(0, cuts[1]))

    def pair(self, first, second, like: np.ndarray) -> None:
        """first() on a pool thread while second() runs here, when split
        would split like; else first() then second(), inline."""
        if self._parts(like) < 2:
            first()
            second()
            return
        self._join([self._submit(first)], second)


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # x (B, n, d_in), dy (B, n, d_out) -> (d_in, d_out). tensordot would
    # copy a strided dy into a fresh contiguous array before its dot, so
    # callers hand it a contiguous one (scratch "b"): the same operand.
    return np.tensordot(x, dy, axes=([0, 1], [0, 1]))


def _zero_padded(adj, rows: int, cols: int):
    """adj in the top-left corner of a (rows, cols) zero matrix, or adj
    itself when it is that shape; ValueError when adj is larger."""
    if adj.shape[-2:] == (rows, cols):
        return adj
    padded = np.zeros((*adj.shape[:-2], rows, cols))
    padded[..., : adj.shape[-2], : adj.shape[-1]] = adj
    return padded


def _add_transposed(adj_t, d_agg, back, base, out, s) -> None:
    """out = base + adj_t d_agg for batch slice s, the product written to
    back first; the rows of back past adj_t's get 0.0, so those of out get
    base + 0.0."""
    width = adj_t.shape[-2]
    np.matmul(_rows(adj_t, s), d_agg[s], out=back[s, :width])
    back[s, width:] = 0.0
    np.add(base[s], back[s], out=out[s])


def _gin_step(h_self, adj, h_nbr, p: GinLayerParams, ws: Workspace, key: str, out=None):
    """The GIN update MLP((1 + eps) h_self + adj @ h_nbr) of Xu et al.
    (2019); returns (out, cache), and cache[0] is h_self.

    adj is the graph's adjacency with h_nbr = h_self in an ORIGINAL
    layer, and in an expander phase the biadjacency, either way round,
    that carries one side's features to the other. An (m, width)
    adjacency is the top-left block of a zero-padded one: the rows past m
    aggregate 0.0, so a rewired run's hyperedge rows skip a product that
    would only add zeros, and the elementwise (1 + eps) h_self + agg
    still covers every row, so they get the padded adjacency's bits,
    signed zeros included. The first m rows multiply the padded matrix's
    (m, rows) slab, and the backward its (rows, m) slab, transposed: the
    same terms over the same length as the padded product. A sum of at
    most two nonzero terms gets its bits in any order; a longer one
    usually does, but BLAS picks its kernel, and with it the order of a
    sum, per shape, so the last bit can move at a few shapes. The (m, m)
    block alone would move it far more often.

    The aggregation goes to scratch "a"; z and r = relu(a1) are kept
    under key, and so is out unless it is given (an expander phase's
    half of the layer output).
    """
    rows = h_self.shape[:-1]
    agg = ws.take("a", h_self.shape)
    z = ws.take(key + "z", h_self.shape)
    r = ws.take(key + "r", (*rows, p.w1.shape[1]))
    if out is None:
        out = ws.take(key + "out", (*rows, p.w2.shape[1]))
    m = adj.shape[-2]
    adj_rows = _zero_padded(adj, m, h_nbr.shape[1])

    def run(s):
        zs, rs, outs = z[s], r[s], out[s]
        np.matmul(_rows(adj_rows, s), h_nbr[s], out=agg[s, :m])
        agg[s, m:] = 0.0
        np.multiply(1.0 + p.epsilon, h_self[s], out=zs)
        np.add(zs, agg[s], out=zs)
        np.matmul(zs, p.w1, out=rs)
        np.add(rs, p.b1, out=rs)
        np.maximum(rs, 0.0, out=rs)  # a1 > 0 exactly where r > 0, NaN included
        np.matmul(rs, p.w2, out=outs)
        np.add(outs, p.b2, out=outs)

    ws.split(run, z)
    return out, (h_self, z, r, adj)


def _gin_step_backward(
    dout, cache, p: GinLayerParams, grads: dict, prefix: str, ws, d_self, base, d_nbr=None
):
    """Backward of _gin_step: accumulates parameter grads under prefix and
    writes d h_self into d_self unless it is None. Returns d h_nbr =
    base + adjᵀ d agg, written to d_nbr, or to scratch "b" when d_nbr is
    None (d_nbr may be base); returns None when base is None."""
    h_self, z, r, adj = cache
    dy = dout if dout.flags.c_contiguous else ws.take("b", dout.shape)
    # "c" holds d a1, then the epsilon product: grown for the larger
    # first, so taking the product does not regrow it while d a1 is live.
    ws.take("c", max(r.shape, z.shape, key=math.prod))
    da1 = ws.take("c", r.shape)
    off = ws.take("mask", r.shape, bool)

    def relu_grad(s):
        if dy is not dout:
            np.copyto(dy[s], dout[s])
        da1s, offs = da1[s], off[s]
        np.matmul(dout[s], p.w2.T, out=da1s)
        np.greater(r[s], 0.0, out=offs)
        np.logical_not(offs, out=offs)
        np.copyto(da1s, 0.0, where=offs)

    ws.split(relu_grad, da1)

    def output_grads():
        grads[prefix + "w2"] += _weight_grad(r, dy)
        grads[prefix + "b2"] += dout.sum(axis=(0, 1))

    def hidden_grads():
        grads[prefix + "w1"] += _weight_grad(z, da1)
        grads[prefix + "b1"] += da1.sum(axis=(0, 1))

    ws.pair(output_grads, hidden_grads, da1)  # both only read, and write separate grads
    dz = ws.take("a", z.shape)  # d agg
    if base is not None:
        adj_t = np.swapaxes(_zero_padded(adj, z.shape[1], adj.shape[-1]), -1, -2)
        back = ws.take("b", base.shape)  # "b" may hold dout or its copy: unread after the pair
        d_nbr = back if d_nbr is None else d_nbr

    def input_grad(s):
        np.matmul(da1[s], p.w1.T, out=dz[s])
        if d_self is not None:
            np.multiply(1.0 + p.epsilon, dz[s], out=d_self[s])
        if base is not None:
            _add_transposed(adj_t, dz, back, base, d_nbr, s)

    ws.split(input_grad, dz)
    prod = ws.take("c", z.shape)  # d a1's key in another shape: split again
    ws.split(lambda s: np.multiply(dz[s], h_self[s], out=prod[s]), prod)
    grads[prefix + "epsilon"] += prod.sum()
    return d_nbr if base is not None else None


def gin_forward(h: np.ndarray, adj: np.ndarray, p: GinLayerParams, ws: Workspace | None = None, key=""):
    """Returns (out, cache) for h of shape (B, n, d_in); cache[0] is h.

    adj is (n, n), (B, n, n), or a shared (m, m) block over the first
    m < n rows of h; the other rows aggregate zero, as they would under
    the block padded with zeros to (n, n), and the first m rows get the
    padded product's bits at almost every shape (see _gin_step). key
    names the layer in ws: the layers of one pass need distinct keys.
    """
    return _gin_step(h, adj, h, p, Workspace() if ws is None else ws, key)


def gin_backward(
    dout: np.ndarray, cache, p: GinLayerParams, grads: dict, prefix: str,
    ws: Workspace | None = None, slot: str | None = "dh",
):
    """Accumulates parameter grads under prefix; returns d h, kept under
    slot. With slot None it skips d h and returns None."""
    if ws is None:
        ws = Workspace()
    dh = None if slot is None else ws.take(slot, cache[0].shape)
    return _gin_step_backward(dout, cache, p, grads, prefix, ws, dh, dh, dh)


def expander_forward(
    h: np.ndarray, biadj: np.ndarray, p: ExpanderLayerParams, ws: Workspace | None = None, key=""
):
    """Two-phase pass on augmented features h of shape (B, 2n, d).

    biadj has shape (n_right, n_left) or (B, n_right, n_left), entry 1
    where hyperedge node r is matched to left node l. Rows 0..n-1 of h are
    original nodes, rows n..2n-1 hyperedge nodes. Both phases write their
    half of the output in place; key names the layer in ws.
    """
    if ws is None:
        ws = Workspace()
    n = biadj.shape[-1]
    h_left, h_right = h[..., :n, :], h[..., n:, :]
    out = ws.take(key + "out", h.shape)
    out_left, out_right = out[..., :n, :], out[..., n:, :]
    if isinstance(p.hyperedge, GinLayerParams):
        _, c1 = _gin_step(h_right, biadj, h_left, p.hyperedge, ws, key + "forward.", out_right)
    else:
        lin = p.hyperedge
        c1 = ws.take(key + "summation", h_left.shape)

        def summation(s):
            np.matmul(_rows(biadj, s), h_left[s], out=c1[s])
            np.matmul(c1[s], lin.w, out=out_right[s])
            np.add(out_right[s], lin.b, out=out_right[s])

        ws.split(summation, c1)
    biadj_t = np.swapaxes(biadj, -1, -2)
    _, c2 = _gin_step(h_left, biadj_t, out_right, p.backward_gin, ws, key + "backward.", out_left)
    return out, (n, biadj, c1, c2)


def expander_backward(
    dout: np.ndarray, cache, p: ExpanderLayerParams, grads: dict, prefix: str,
    ws: Workspace | None = None, slot: str | None = "dh",
):
    """Accumulates parameter grads under prefix; returns d h, kept under
    slot. With slot None it skips d h and returns None."""
    if ws is None:
        ws = Workspace()
    n, biadj, c1, c2 = cache
    d_left_out, d_right_out = dout[..., :n, :], dout[..., n:, :]
    dh = None if slot is None else ws.take(slot, dout.shape)
    d_left = None if dh is None else dh[..., :n, :]
    d_right_self = None if dh is None else dh[..., n:, :]
    d_right = _gin_step_backward(
        d_left_out, c2, p.backward_gin, grads, prefix + "backward.", ws, d_left, d_right_out
    )
    if isinstance(p.hyperedge, GinLayerParams):
        _gin_step_backward(
            d_right, c1, p.hyperedge, grads, prefix + "forward.", ws, d_right_self, d_left, d_left
        )
        return dh
    lin = p.hyperedge
    grads[prefix + "summation.w"] += _weight_grad(c1, d_right)
    grads[prefix + "summation.b"] += d_right.sum(axis=(0, 1))
    d_agg = ws.take("a", d_right.shape)
    biadj_t = np.swapaxes(biadj, -1, -2)
    if dh is not None:
        back = ws.take("b", d_left.shape)  # d right's own rows, each read before it is written

    def summation_grad(s):
        np.matmul(d_right[s], lin.w.T, out=d_agg[s])
        if dh is not None:
            d_right_self[s].fill(0.0)
            _add_transposed(biadj_t, d_agg, back, d_left, d_left, s)

    ws.split(summation_grad, d_agg)
    return dh
