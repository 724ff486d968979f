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
"""

from __future__ import annotations

import enum
import math
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
# so results are bit-identical to fresh arrays. A forward pass keeps its
# outputs and caches under the layer's key; backward passes share the
# scratch keys below, each live within one kernel call:
#   "a"     forward: the aggregation; backward: d z (which is d agg)
#   "b"     backward: the transposed aggregation of d z, d right, and a
#           contiguous copy of a strided dout for a weight gradient
#   "c"     backward: d r (masked in place to d a1), then dz * h_self
#   "mask"  backward: where a1 is not positive (NaN included)


class Workspace:
    """Arrays that one training run reuses from step to step.

    take(key, shape) returns a C-contiguous view of the flat array stored
    under key, replacing it with a larger one when shape needs more room,
    so a ragged last minibatch and a full-batch evaluation reuse the
    buffers of the largest batch seen. Anything a kernel returns, or keeps
    in a cache, is such a view: it stays valid until the next call that
    uses the same workspace. Callers that hold results across calls pass
    no workspace, and each call gets a fresh one.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _weight_grad(x: np.ndarray, dy: np.ndarray, ws: Workspace) -> np.ndarray:
    # x (B, n, d_in), dy (B, n, d_out) -> (d_in, d_out). tensordot would
    # copy a strided dy into a fresh contiguous array before its dot;
    # copying it into scratch "b" hands the dot the same operand.
    if not dy.flags.c_contiguous:
        buf = ws.take("b", dy.shape)
        np.copyto(buf, dy)
        dy = buf
    return np.tensordot(x, dy, axes=([0, 1], [0, 1]))


def _gin_mlp_forward(h_self, agg, p: GinLayerParams, ws: Workspace | None = None, key="", out=None):
    """The GIN update MLP((1 + eps) h_self + agg); returns (out, cache).

    z and r = relu(a1) are kept under key; out is written in place when
    given (an expander layer's output half), else kept under key too.
    """
    if ws is None:
        ws = Workspace()
    rows = h_self.shape[:-1]
    z = np.multiply(1.0 + p.epsilon, h_self, out=ws.take(key + "z", h_self.shape))
    np.add(z, agg, out=z)
    r = np.matmul(z, p.w1, out=ws.take(key + "r", (*rows, p.w1.shape[1])))
    np.add(r, p.b1, out=r)
    np.maximum(r, 0.0, out=r)  # a1 > 0 exactly where r > 0, NaN included
    if out is None:
        out = ws.take(key + "out", (*rows, p.w2.shape[1]))
    np.matmul(r, p.w2, out=out)
    np.add(out, p.b2, out=out)
    return out, (h_self, z, r)


def _gin_mlp_backward(dout, cache, p: GinLayerParams, grads: dict, prefix: str, ws, d_self):
    """Accumulates parameter grads under prefix; returns d agg (scratch "a").

    Writes d h_self into d_self unless it is None.
    """
    h_self, z, r = cache
    grads[prefix + "w2"] += _weight_grad(r, dout, ws)
    grads[prefix + "b2"] += dout.sum(axis=(0, 1))
    da1 = np.matmul(dout, p.w2.T, out=ws.take("c", r.shape))
    off = np.greater(r, 0.0, out=ws.take("mask", r.shape, bool))
    np.logical_not(off, out=off)
    np.copyto(da1, 0.0, where=off)
    grads[prefix + "w1"] += _weight_grad(z, da1, ws)
    grads[prefix + "b1"] += da1.sum(axis=(0, 1))
    dz = np.matmul(da1, p.w1.T, out=ws.take("a", z.shape))
    grads[prefix + "epsilon"] += np.multiply(dz, h_self, out=ws.take("c", z.shape)).sum()
    if d_self is not None:
        np.multiply(1.0 + p.epsilon, dz, out=d_self)
    return dz


def gin_forward(h: np.ndarray, adj: np.ndarray, p: GinLayerParams, ws: Workspace | None = None, key=""):
    """Returns (out, cache) for h of shape (B, n, d_in); cache[0] is h.

    key names the layer in ws: the layers of one pass need distinct keys.
    """
    if ws is None:
        ws = Workspace()
    agg = np.matmul(adj, h, out=ws.take("a", h.shape))
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
    back = np.matmul(np.swapaxes(adj, -1, -2), d_agg, out=ws.take("b", d_agg.shape))
    return np.add(dh, back, out=dh)


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
        agg = np.matmul(biadj, h_left, out=ws.take("a", h_left.shape))
        _, c1 = _gin_mlp_forward(h_right, agg, p.forward_gin, ws, key + "forward.", out_right)
    else:
        lin = p.summation_linear
        c1 = np.matmul(biadj, h_left, out=ws.take(key + "summation", h_left.shape))
        np.matmul(c1, lin.w, out=out_right)
        np.add(out_right, lin.b, out=out_right)
    agg = np.matmul(np.swapaxes(biadj, -1, -2), out_right, out=ws.take("a", h_left.shape))
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
    d_right = np.matmul(biadj, d_agg, out=ws.take("b", d_agg.shape))
    np.add(d_right_out, d_right, out=d_right)
    if p.mode is HyperedgeMode.LEARNED:
        d_agg = _gin_mlp_backward(
            d_right, c1, p.forward_gin, grads, prefix + "forward.", ws, d_right_self
        )
    else:
        lin = p.summation_linear
        grads[prefix + "summation.w"] += _weight_grad(c1, d_right, ws)
        grads[prefix + "summation.b"] += d_right.sum(axis=(0, 1))
        d_agg = np.matmul(d_right, lin.w.T, out=ws.take("a", d_right.shape))
        if d_right_self is not None:
            d_right_self.fill(0.0)
    if dh is None:
        return None
    back = np.matmul(np.swapaxes(biadj, -1, -2), d_agg, out=ws.take("b", d_agg.shape))
    np.add(d_left, back, out=d_left)
    return dh
