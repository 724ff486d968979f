"""GIN and bipartite expander layers with manual reverse-mode gradients.

Everything is dense float64 numpy. The kernels take features of shape
(batch, nodes, dim) and an adjacency of shape (nodes, nodes) or
(batch, nodes, nodes).
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
contiguous batch slices, one per thread. The reductions over the batch
(the weight-gradient GEMMs, the bias and epsilon sums; the head GEMMs and
the loss in model.py) run whole on the calling thread. No float depends
on where the batch is cut, so results are bit-identical whatever the CPU
count; see Workspace for why and for the rules a split follows.
train() owns the only entered workspace, and its threads end with the
run.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
import os
import threading
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

    LEARNED mode runs a GIN update on the hyperedge nodes, reading their
    own rows as well as their left neighbors. Those rows are not carried
    unchanged from one expander layer to the next: each ORIGINAL layer in
    between applies its MLP to them with zero aggregation, because they
    are isolated in the augmented adjacency. SUMMATION mode overwrites
    each hyperedge feature with a linear map of the sum of its left
    neighbors. Phase 2 is always a GIN update of the left nodes.
    """

    mode: HyperedgeMode
    backward_gin: GinLayerParams
    forward_gin: GinLayerParams | None = None
    summation_linear: Affine | None = None

    def __post_init__(self):
        if self.mode is HyperedgeMode.LEARNED:
            if self.forward_gin is None or self.summation_linear is not None:
                raise ValueError("LEARNED mode takes forward_gin only")
        else:
            if self.summation_linear is None or self.forward_gin is not None:
                raise ValueError("SUMMATION mode takes summation_linear only")


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
    output to the left nodes' own features, so widths must agree."""
    if mode is HyperedgeMode.LEARNED:
        fwd = init_gin_params(rng, dim, d_hidden, dim)
        return ExpanderLayerParams(
            mode=mode, backward_gin=init_gin_params(rng, dim, d_hidden, dim), forward_gin=fwd
        )
    lin = init_affine(rng, dim, dim)
    return ExpanderLayerParams(
        mode=mode, backward_gin=init_gin_params(rng, dim, d_hidden, dim), summation_linear=lin
    )


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
# pass keeps its outputs and caches under the layer's key; backward passes
# share the scratch keys below, each live within one kernel call:
#   "a"     forward: the aggregation; backward: d z (which is d agg)
#   "b"     backward: the transposed aggregation of d z, d right, and a
#           contiguous copy of a strided dout for a weight gradient
#   "c"     backward: d r (masked in place to d a1), then dz * h_self.
#           The two views differ in shape when d_in != hidden, so one
#           slice's write could land on another's unread input: a join
#           (a second split) separates them.
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


class _Helper:
    """One thread that runs the jobs handed to it, one at a time.

    Two locks held closed pass control: start() opens "go" for the
    thread, and join() waits for it to open "done". A hand-off measured
    30-50 us, against 115 us for a concurrent.futures submit and wait.
    """

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._loop, name="gin-split", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            self._go.acquire()
            if self._job is None:
                return
            try:
                self._job()
            except BaseException as e:  # re-raised by join() on the caller
                self._error = e
            self._done.release()

    def start(self, job) -> None:
        self._job = job
        self._go.release()

    def join(self) -> BaseException | None:
        """Waits for the job; returns what it raised, if anything."""
        self._done.acquire()
        error, self._error = self._error, None
        return error

    def stop(self) -> None:
        self._job = None
        self._go.release()
        self._thread.join()


class Workspace:
    """Arrays that one training run reuses from step to step, and the
    threads its kernels split the batch across.

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
    first slice and _WORKERS - 1 helper threads the others, each in a
    copy of the caller's context (so np.errstate holds there too); split
    returns when all are done and re-raises what a helper raised.
    Otherwise, and always in a workspace that was never entered,
    run(slice(0, B)) runs inline and no thread starts. The with block
    owns the threads: train() enters one workspace per run, and its
    threads end when the block exits, whether it returns or raises.

    The split moves no bits. numpy's matmul makes one BLAS call per batch
    matrix and an elementwise op computes each element on its own, so no
    float depends on where the batch is cut; every reduction over the
    batch runs whole on the calling thread, between splits. A run(s)
    touches only slice s of batched operands, never calls take (keys are
    taken before the split), and calls no public kernel: perfbench's span
    recorder keeps one span stack for one thread. A key that one kernel
    views in two shapes needs separate splits for the steps that use the
    two views, since slice boundaries differ between them (scratch "c").
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._helpers: list[_Helper] = []

    def __enter__(self) -> Workspace:
        self._helpers = [_Helper() for _ in range(_WORKERS - 1)]
        return self

    def __exit__(self, *exc) -> None:
        for helper in self._helpers:
            helper.stop()
        self._helpers = []

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def split(self, run, like: np.ndarray) -> None:
        batch = like.shape[0]
        parts = min(len(self._helpers) + 1, batch)
        if parts < 2 or like.size < _SPLIT_MIN_FLOATS:
            run(slice(0, batch))
            return
        cuts = [batch * i // parts for i in range(parts + 1)]
        helpers = self._helpers[: parts - 1]
        for helper, lo, hi in zip(helpers, cuts[1:-1], cuts[2:]):
            helper.start(functools.partial(contextvars.copy_context().run, run, slice(lo, hi)))
        try:
            run(slice(0, cuts[1]))
        finally:
            errors = [helper.join() for helper in helpers]
        for error in errors:
            if error is not None:
                raise error


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # x (B, n, d_in), dy (B, n, d_out) -> (d_in, d_out). tensordot would
    # copy a strided dy into a fresh contiguous array before its dot, so
    # callers hand it a contiguous one (scratch "b"): the same operand.
    return np.tensordot(x, dy, axes=([0, 1], [0, 1]))


def _gin_mlp_forward(h_self, agg, p: GinLayerParams, ws: Workspace | None = None, key="", out=None):
    """The GIN update MLP((1 + eps) h_self + agg); returns (out, cache).

    z and r = relu(a1) are kept under key; out is written in place when
    given (an expander layer's output half), else kept under key too.
    """
    if ws is None:
        ws = Workspace()
    rows = h_self.shape[:-1]
    z = ws.take(key + "z", h_self.shape)
    r = ws.take(key + "r", (*rows, p.w1.shape[1]))
    if out is None:
        out = ws.take(key + "out", (*rows, p.w2.shape[1]))

    def run(s):
        zs, rs, outs = z[s], r[s], out[s]
        np.multiply(1.0 + p.epsilon, h_self[s], out=zs)
        np.add(zs, _rows(agg, s), out=zs)
        np.matmul(zs, p.w1, out=rs)
        np.add(rs, p.b1, out=rs)
        np.maximum(rs, 0.0, out=rs)  # a1 > 0 exactly where r > 0, NaN included
        np.matmul(rs, p.w2, out=outs)
        np.add(outs, p.b2, out=outs)

    ws.split(run, z)
    return out, (h_self, z, r)


def _gin_mlp_backward(dout, cache, p: GinLayerParams, grads: dict, prefix: str, ws, d_self):
    """Accumulates parameter grads under prefix; returns d agg (scratch "a").

    Writes d h_self into d_self unless it is None.
    """
    h_self, z, r = cache
    dy = dout if dout.flags.c_contiguous else ws.take("b", dout.shape)
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
    grads[prefix + "w2"] += _weight_grad(r, dy)
    grads[prefix + "b2"] += dout.sum(axis=(0, 1))
    grads[prefix + "w1"] += _weight_grad(z, da1)
    grads[prefix + "b1"] += da1.sum(axis=(0, 1))
    dz = ws.take("a", z.shape)

    def input_grad(s):
        np.matmul(da1[s], p.w1.T, out=dz[s])
        if d_self is not None:
            np.multiply(1.0 + p.epsilon, dz[s], out=d_self[s])

    ws.split(input_grad, dz)
    prod = ws.take("c", z.shape)  # d a1's key in another shape: split again
    ws.split(lambda s: np.multiply(dz[s], h_self[s], out=prod[s]), prod)
    grads[prefix + "epsilon"] += prod.sum()
    return dz


def _add_transposed(ws: Workspace, adj, d_agg, dh) -> None:
    """dh += adjᵀ d_agg per sample, through scratch "b"."""
    adj_t = np.swapaxes(adj, -1, -2)
    back = ws.take("b", d_agg.shape)

    def run(s):
        np.matmul(_rows(adj_t, s), d_agg[s], out=back[s])
        np.add(dh[s], back[s], out=dh[s])

    ws.split(run, back)


def gin_forward(h: np.ndarray, adj: np.ndarray, p: GinLayerParams, ws: Workspace | None = None, key=""):
    """Returns (out, cache) for h of shape (B, n, d_in); cache[0] is h.

    key names the layer in ws: the layers of one pass need distinct keys.
    """
    if ws is None:
        ws = Workspace()
    agg = ws.take("a", h.shape)
    ws.split(lambda s: np.matmul(_rows(adj, s), h[s], out=agg[s]), agg)
    out, cache = _gin_mlp_forward(h, agg, p, ws, key)
    return out, (*cache, adj)


def gin_backward(
    dout: np.ndarray, cache, p: GinLayerParams, grads: dict, prefix: str,
    ws: Workspace | None = None, slot: str | None = "dh",
):
    """Accumulates parameter grads under prefix; returns d h, kept under
    slot. With slot None it skips d h and returns None."""
    if ws is None:
        ws = Workspace()
    *mlp_cache, adj = cache
    dh = None if slot is None else ws.take(slot, mlp_cache[0].shape)
    d_agg = _gin_mlp_backward(dout, mlp_cache, p, grads, prefix, ws, dh)
    if dh is None:
        return None
    _add_transposed(ws, adj, d_agg, dh)
    return dh


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
    if p.mode is HyperedgeMode.LEARNED:
        agg = ws.take("a", h_left.shape)
        ws.split(lambda s: np.matmul(_rows(biadj, s), h_left[s], out=agg[s]), agg)
        _, c1 = _gin_mlp_forward(h_right, agg, p.forward_gin, ws, key + "forward.", out_right)
    else:
        lin = p.summation_linear
        c1 = ws.take(key + "summation", h_left.shape)

        def summation(s):
            np.matmul(_rows(biadj, s), h_left[s], out=c1[s])
            np.matmul(c1[s], lin.w, out=out_right[s])
            np.add(out_right[s], lin.b, out=out_right[s])

        ws.split(summation, c1)
    biadj_t = np.swapaxes(biadj, -1, -2)
    agg = ws.take("a", h_left.shape)
    ws.split(lambda s: np.matmul(_rows(biadj_t, s), out_right[s], out=agg[s]), agg)
    _, c2 = _gin_mlp_forward(h_left, agg, p.backward_gin, ws, key + "backward.", out_left)
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
    d_agg = _gin_mlp_backward(d_left_out, c2, p.backward_gin, grads, prefix + "backward.", ws, d_left)
    d_right = ws.take("b", d_agg.shape)

    def right_grad(s):
        np.matmul(_rows(biadj, s), d_agg[s], out=d_right[s])
        np.add(d_right_out[s], d_right[s], out=d_right[s])

    ws.split(right_grad, d_right)
    if p.mode is HyperedgeMode.LEARNED:
        d_agg = _gin_mlp_backward(
            d_right, c1, p.forward_gin, grads, prefix + "forward.", ws, d_right_self
        )
    else:
        lin = p.summation_linear
        grads[prefix + "summation.w"] += _weight_grad(c1, d_right)
        grads[prefix + "summation.b"] += d_right.sum(axis=(0, 1))
        d_agg = ws.take("a", d_right.shape)

        def summation_grad(s):
            np.matmul(d_right[s], lin.w.T, out=d_agg[s])
            if d_right_self is not None:
                d_right_self[s].fill(0.0)

        ws.split(summation_grad, d_agg)
    if dh is None:
        return None
    _add_transposed(ws, biadj, d_agg, d_left)
    return dh
