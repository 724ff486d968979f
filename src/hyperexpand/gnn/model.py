"""Model assembly: layer stack per schedule, classifier head, loss, gradients.

The model is a list of layer parameter blocks matched one-to-one with a
layer-kind schedule, plus an affine classifier head that reads the root
node's representation (Tree-NeighborsMatch is a node-level task).

forward_batch, backward_batch and loss_and_gradients take an optional
Workspace (see layers.py). Caches and layer outputs live in it and stay
valid until the next pass through the same workspace; logits, losses and
gradient dicts are always fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rewire import LayerKind
from ..rng import SplitMix64, derive_seed
from .layers import (
    Affine,
    GinLayerParams,
    HyperedgeMode,
    Workspace,
    expander_backward,
    expander_forward,
    gin_backward,
    gin_forward,
    init_affine,
    init_expander_params,
    init_gin_params,
)

PARAM_STREAM = 0x7061


@dataclass
class GinModel:
    schedule: tuple[LayerKind, ...]
    layers: list
    head: Affine


def build_model(
    in_dim: int,
    hidden_dim: int,
    num_classes: int,
    schedule: tuple[LayerKind, ...],
    mode: HyperedgeMode = HyperedgeMode.SUMMATION,
    seed: int = 0,
) -> GinModel:
    if not schedule:
        raise ValueError("schedule must contain at least one layer")
    rng = SplitMix64(derive_seed(seed, PARAM_STREAM))
    layers = []
    for i, kind in enumerate(schedule):
        d_in = in_dim if i == 0 else hidden_dim
        if kind is LayerKind.ORIGINAL:
            layers.append(init_gin_params(rng, d_in, hidden_dim, hidden_dim))
        else:
            if d_in != hidden_dim:
                raise ValueError(
                    "an expander layer cannot change width; schedule must open with ORIGINAL"
                )
            layers.append(init_expander_params(rng, mode, hidden_dim, hidden_dim))
    head = init_affine(rng, hidden_dim, num_classes)
    return GinModel(schedule=tuple(schedule), layers=layers, head=head)


def _gin_items(prefix: str, p: GinLayerParams):
    yield prefix + "epsilon", p.epsilon
    yield prefix + "w1", p.w1
    yield prefix + "b1", p.b1
    yield prefix + "w2", p.w2
    yield prefix + "b2", p.b2


def named_parameters(model: GinModel) -> list[tuple[str, np.ndarray]]:
    items: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(model.layers):
        prefix = f"layers.{i}."
        if isinstance(layer, GinLayerParams):
            items.extend(_gin_items(prefix, layer))
        else:
            if layer.mode is HyperedgeMode.LEARNED:
                items.extend(_gin_items(prefix + "forward.", layer.forward_gin))
            else:
                items.append((prefix + "summation.w", layer.summation_linear.w))
                items.append((prefix + "summation.b", layer.summation_linear.b))
            items.extend(_gin_items(prefix + "backward.", layer.backward_gin))
    items.append(("head.w", model.head.w))
    items.append(("head.b", model.head.b))
    return items


def zero_gradients(model: GinModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in named_parameters(model)}


def forward_batch(
    model: GinModel,
    feats: np.ndarray,
    adj_orig: np.ndarray,
    biadj: np.ndarray | None = None,
    ws: Workspace | None = None,
):
    """feats (B, n, in_dim) -> (logits (B, C), caches for backward).

    Layer i keeps its output and cache in ws under "layers.{i}."; they
    stay valid until the next pass through the same workspace. The
    logits are a fresh array.
    """
    if ws is None:
        ws = Workspace()
    h = feats
    layer_caches = []
    for i, (kind, layer) in enumerate(zip(model.schedule, model.layers)):
        key = f"layers.{i}."
        if kind is LayerKind.ORIGINAL:
            h, cache = gin_forward(h, adj_orig, layer, ws, key)
        else:
            if biadj is None:
                raise ValueError("schedule has EXPANDER layers but no expander was given")
            h, cache = expander_forward(h, biadj, layer, ws, key)
        layer_caches.append(cache)
    read = h[:, 0, :]
    logits = read @ model.head.w + model.head.b
    return logits, (layer_caches, read, h.shape)


def backward_batch(
    model: GinModel, dlogits: np.ndarray, caches, ws: Workspace | None = None
) -> dict[str, np.ndarray]:
    """Exact parameter gradients. The gradient flowing between layers
    alternates between two workspace buffers; the one with respect to the
    input features is not computed."""
    if ws is None:
        ws = Workspace()
    layer_caches, read, h_shape = caches
    grads = zero_gradients(model)
    grads["head.w"] += read.T @ dlogits
    grads["head.b"] += dlogits.sum(axis=0)
    dread = dlogits @ model.head.w.T
    count = len(model.layers)
    dh = ws.take(f"dh.{count % 2}", h_shape)
    dh.fill(0.0)
    dh[:, 0, :] = dread
    for i in range(count - 1, -1, -1):
        layer = model.layers[i]
        prefix = f"layers.{i}."
        slot = f"dh.{i % 2}" if i else None
        if model.schedule[i] is LayerKind.ORIGINAL:
            dh = gin_backward(dh, layer_caches[i], layer, grads, prefix, ws, slot)
        else:
            dh = expander_backward(dh, layer_caches[i], layer, grads, prefix, ws, slot)
    return grads


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy; returns (loss, dlogits, probabilities)."""
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    picked = probs[np.arange(batch), targets]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(batch), targets] -= 1.0
    dlogits /= batch
    return loss, dlogits, probs


def loss_and_gradients(
    model: GinModel,
    feats: np.ndarray,
    targets: np.ndarray,
    adj_orig: np.ndarray,
    biadj: np.ndarray | None = None,
    ws: Workspace | None = None,
):
    """Mean cross-entropy loss, accuracy, and exact parameter gradients.

    Training passes one workspace for the whole run, so every step reuses
    the same activation and gradient buffers.
    """
    if ws is None:
        ws = Workspace()
    logits, caches = forward_batch(model, feats, adj_orig, biadj, ws)
    loss, dlogits, _ = softmax_cross_entropy(logits, targets)
    accuracy = float((logits.argmax(axis=1) == targets).mean())
    grads = backward_batch(model, dlogits, caches, ws)
    return loss, accuracy, grads
