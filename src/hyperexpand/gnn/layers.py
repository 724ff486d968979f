"""GIN and bipartite expander layers with manual reverse-mode gradients.

Everything is dense float64 numpy. The kernels take features of shape
(batch, nodes, dim) and an adjacency of shape (nodes, nodes) or
(batch, nodes, nodes).
Gradients are accumulated into a flat name->array dict so the finite
difference tests and the optimizer can treat parameters uniformly.
"""

from __future__ import annotations

import enum
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


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # x (B, n, d_in), dy (B, n, d_out) -> (d_in, d_out)
    return np.tensordot(x, dy, axes=([0, 1], [0, 1]))


def _gin_mlp_forward(h_self: np.ndarray, agg: np.ndarray, p: GinLayerParams):
    """The GIN update MLP((1 + eps) h_self + agg); returns (out, cache)."""
    z = (1.0 + p.epsilon) * h_self + agg
    a1 = z @ p.w1 + p.b1
    r = np.maximum(a1, 0.0)
    out = r @ p.w2 + p.b2
    return out, (h_self, z, a1, r)


def _gin_mlp_backward(dout: np.ndarray, cache, p: GinLayerParams, grads: dict, prefix: str):
    """Accumulates parameter grads under prefix; returns (d h_self, d agg)."""
    h_self, z, a1, r = cache
    grads[prefix + "w2"] += _weight_grad(r, dout)
    grads[prefix + "b2"] += dout.sum(axis=(0, 1))
    dr = dout @ p.w2.T
    da1 = np.where(a1 > 0.0, dr, 0.0)
    grads[prefix + "w1"] += _weight_grad(z, da1)
    grads[prefix + "b1"] += da1.sum(axis=(0, 1))
    dz = da1 @ p.w1.T
    grads[prefix + "epsilon"] += (dz * h_self).sum()
    return (1.0 + p.epsilon) * dz, dz


def gin_forward(h: np.ndarray, adj: np.ndarray, p: GinLayerParams):
    """Returns (out, cache) for h of shape (B, n, d_in); cache[0] is h."""
    out, cache = _gin_mlp_forward(h, adj @ h, p)
    return out, (*cache, adj)


def gin_backward(dout: np.ndarray, cache, p: GinLayerParams, grads: dict, prefix: str):
    """Accumulates parameter grads under prefix; returns d h."""
    *mlp_cache, adj = cache
    d_self, d_agg = _gin_mlp_backward(dout, mlp_cache, p, grads, prefix)
    return d_self + np.swapaxes(adj, -1, -2) @ d_agg


def expander_forward(h: np.ndarray, biadj: np.ndarray, p: ExpanderLayerParams):
    """Two-phase pass on augmented features h of shape (B, 2n, d).

    biadj has shape (n_right, n_left) or (B, n_right, n_left), entry 1
    where hyperedge node r is matched to left node l. Rows 0..n-1 of h are
    original nodes, rows n..2n-1 hyperedge nodes.
    """
    n = biadj.shape[-1]
    h_left, h_right = h[..., :n, :], h[..., n:, :]
    if p.mode is HyperedgeMode.LEARNED:
        h_right_new, c1 = _gin_mlp_forward(h_right, biadj @ h_left, p.forward_gin)
    else:
        lin = p.summation_linear
        c1 = biadj @ h_left
        h_right_new = c1 @ lin.w + lin.b
    h_left_new, c2 = _gin_mlp_forward(
        h_left, np.swapaxes(biadj, -1, -2) @ h_right_new, p.backward_gin
    )
    out = np.concatenate([h_left_new, h_right_new], axis=-2)
    return out, (n, biadj, c1, c2)


def expander_backward(dout: np.ndarray, cache, p: ExpanderLayerParams, grads: dict, prefix: str):
    n, biadj, c1, c2 = cache
    d_left_out, d_right_out = dout[..., :n, :], dout[..., n:, :]
    d_left, d_agg = _gin_mlp_backward(d_left_out, c2, p.backward_gin, grads, prefix + "backward.")
    d_right = d_right_out + biadj @ d_agg
    # d_agg and d_left are rebound rather than kept alongside, so no
    # (B, n, d) gradient outlives its use; this sets peak training memory.
    if p.mode is HyperedgeMode.LEARNED:
        d_right_self, d_agg = _gin_mlp_backward(d_right, c1, p.forward_gin, grads, prefix + "forward.")
    else:
        lin = p.summation_linear
        grads[prefix + "summation.w"] += _weight_grad(c1, d_right)
        grads[prefix + "summation.b"] += d_right.sum(axis=(0, 1))
        d_agg = d_right @ lin.w.T
        d_right_self = np.zeros_like(d_right)
    d_left = d_left + np.swapaxes(biadj, -1, -2) @ d_agg
    return np.concatenate([d_left, d_right_self], axis=-2)
