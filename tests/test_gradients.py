from __future__ import annotations

import numpy as np

from hyperexpand.construct import GeneratorConfig
from hyperexpand.gnn.layers import (
    HyperedgeMode,
    expander_backward,
    expander_forward,
    gin_backward,
    gin_forward,
)
from hyperexpand.gnn.model import (
    build_model,
    forward_batch,
    loss_and_gradients,
    named_parameters,
    softmax_cross_entropy,
    zero_gradients,
)
from hyperexpand.graphs import build_graph, path_graph
from hyperexpand.rewire import LayerKind, augment
from hyperexpand.rng import SplitMix64

from helpers import augmented_adjacency

FD_STEP = 1e-5
REL_TOL = 1e-4


def jitter_parameters(model, seed, scale=0.05):
    """Move every parameter off its zero-initialized value so no relu input
    sits exactly on the kink (finite differences straddle kinks badly even
    though the analytic gradient is fine)."""
    rng = SplitMix64(seed)
    for _, arr in named_parameters(model):
        flat = arr.reshape(-1) if arr.ndim else arr[None].reshape(-1)
        for i in range(flat.size):
            flat[i] += rng.uniform(-scale, scale)


def random_feats(seed, shape):
    rng = SplitMix64(seed)
    return np.array([rng.uniform(-1.0, 1.0) for _ in range(int(np.prod(shape)))]).reshape(shape)


def sample_indices(rng, size, count):
    if size <= count:
        return list(range(size))
    picked = set()
    while len(picked) < count:
        picked.add(rng.next_below(size))
    return sorted(picked)


def check_model_gradients(model, feats, targets, adj, biadj, rng, per_param):
    """Central finite differences on sampled coordinates; returns the number
    of coordinates checked."""

    def loss_fn():
        logits, _ = forward_batch(model, feats, adj, biadj)
        return softmax_cross_entropy(logits, targets)[0]

    _, _, grads = loss_and_gradients(model, feats, targets, adj, biadj)
    checked = 0
    for name, arr in named_parameters(model):
        flat = arr.reshape(-1) if arr.ndim else arr
        size = arr.size
        for i in sample_indices(rng, size, per_param):
            orig = float(flat.flat[i])
            flat.flat[i] = orig + FD_STEP
            lp = loss_fn()
            flat.flat[i] = orig - FD_STEP
            lm = loss_fn()
            flat.flat[i] = orig
            fd = (lp - lm) / (2.0 * FD_STEP)
            analytic = float(grads[name].flat[i])
            rel = abs(analytic - fd) / max(1.0, abs(analytic))
            assert rel <= REL_TOL, f"{name}[{i}]: analytic {analytic} vs fd {fd}"
            checked += 1
    return checked


def plain_config():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    model = build_model(4, 6, 3, (LayerKind.ORIGINAL,) * 2, seed=1)
    jitter_parameters(model, 101)
    feats = random_feats(11, (3, 6, 4))
    targets = np.array([0, 2, 1])
    return model, feats, targets, g.adjacency_matrix(), None


def rewired_config(mode, schedule, seed):
    n = 5
    inst0 = augment(path_graph(n), GeneratorConfig(n=n, k=3, seed=seed))
    inst1 = augment(path_graph(n), GeneratorConfig(n=n, k=3, seed=seed + 1))
    model = build_model(4, 6, 3, schedule, mode=mode, seed=seed)
    jitter_parameters(model, seed + 100)
    feats = np.zeros((2, 2 * n, 4))
    feats[:, :n, :] = random_feats(seed + 7, (2, n, 4))
    targets = np.array([1, 2])
    adj = augmented_adjacency(inst0)
    biadj = np.stack(
        [
            inst0.expander.biadjacency().astype(np.float64),
            inst1.expander.biadjacency().astype(np.float64),
        ]
    )
    return model, feats, targets, adj, biadj


def test_finite_differences_across_all_layer_types():
    rng = SplitMix64(999)
    total = 0
    total += check_model_gradients(*plain_config(), rng=rng, per_param=5)
    total += check_model_gradients(
        *rewired_config(
            HyperedgeMode.SUMMATION,
            (LayerKind.ORIGINAL, LayerKind.EXPANDER, LayerKind.ORIGINAL),
            seed=21,
        ),
        rng=rng,
        per_param=5,
    )
    total += check_model_gradients(
        *rewired_config(
            HyperedgeMode.LEARNED,
            (LayerKind.ORIGINAL, LayerKind.EXPANDER, LayerKind.EXPANDER),
            seed=31,
        ),
        rng=rng,
        per_param=5,
    )
    total += check_model_gradients(
        *rewired_config(HyperedgeMode.SUMMATION, (LayerKind.ORIGINAL, LayerKind.EXPANDER), seed=41),
        rng=rng,
        per_param=5,
    )
    assert total >= 200, f"only {total} coordinates checked"


def test_epsilon_gradient_zero_for_isolated_zero_feature_node():
    # a single isolated node with a zero feature vector: z = (1+eps)*0, so
    # no path from epsilon to the loss
    g = build_graph(1, [])
    model = build_model(3, 4, 2, (LayerKind.ORIGINAL,), seed=6)
    jitter_parameters(model, 66)
    feats = np.zeros((1, 1, 3))
    _, _, grads = loss_and_gradients(model, feats, np.array([0]), g.adjacency_matrix())
    assert grads["layers.0.epsilon"] == 0.0


def test_correct_class_bias_gradient_is_negative():
    # pushing the correct-class logit up always lowers cross-entropy
    g = path_graph(4)
    model = build_model(2, 4, 3, (LayerKind.ORIGINAL,) * 2, seed=8)
    jitter_parameters(model, 88)
    feats = random_feats(17, (1, 4, 2))
    for target in range(3):
        _, _, grads = loss_and_gradients(model, feats, np.array([target]), g.adjacency_matrix())
        assert grads["head.b"][target] < 0.0
        others = [grads["head.b"][c] for c in range(3) if c != target]
        assert all(v > 0.0 for v in others)


def run_layer_stack(model, adj, biadj, feats):
    h = feats
    caches = []
    for kind, layer in zip(model.schedule, model.layers):
        if kind is LayerKind.ORIGINAL:
            h, cache = gin_forward(h, adj, layer)
        else:
            h, cache = expander_forward(h, biadj, layer)
        caches.append(cache)
    return h, caches


def node_input_gradient(model, adj, biadj, feats, node, channel):
    """Exact gradient of one output coordinate w.r.t. the input features."""
    h, caches = run_layer_stack(model, adj, biadj, feats)
    dh = np.zeros_like(h)
    dh[0, node, channel] = 1.0
    grads = zero_gradients(model)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        if model.schedule[i] is LayerKind.ORIGINAL:
            dh = gin_backward(dh, caches[i], layer, grads, f"layers.{i}.")
        else:
            dh = expander_backward(dh, caches[i], layer, grads, f"layers.{i}.")
    return dh[0]


class TestReceptiveField:
    """Three layers on a 7-node path: the far end is 6 hops away, so the
    plain model cannot move information across, while one expander layer
    bridges the distance."""

    def setup_feats(self, n, in_dim, total=None):
        feats = np.zeros((1, total or n, in_dim))
        feats[0, :n] = random_feats(5, (n, in_dim))
        return feats

    def test_plain_path_gradient_exactly_zero(self):
        g = path_graph(7)
        model = build_model(3, 4, 2, (LayerKind.ORIGINAL,) * 3, seed=5)
        jitter_parameters(model, 55)
        feats = self.setup_feats(7, 3)
        ig = node_input_gradient(model, g.adjacency_matrix(), None, feats, node=6, channel=0)
        assert np.all(ig[0] == 0.0)
        # sanity: nearby nodes do influence node 6
        assert np.any(ig[5] != 0.0)

    def test_rewired_path_gradient_nonzero(self):
        inst = augment(path_graph(7), GeneratorConfig(n=7, k=3, seed=11), num_layers=3)
        model = build_model(3, 4, 2, inst.schedule, seed=5)
        jitter_parameters(model, 55)
        adj = augmented_adjacency(inst)
        biadj = inst.expander.biadjacency().astype(np.float64)
        feats = self.setup_feats(7, 3, total=14)
        ig = node_input_gradient(model, adj, biadj, feats, node=6, channel=0)
        assert np.max(np.abs(ig[0])) > 1e-9


def test_backward_matches_fd_on_input_features():
    # the same machinery used for the receptive-field check, validated
    # against finite differences on a couple of input coordinates
    g = path_graph(5)
    model = build_model(2, 4, 2, (LayerKind.ORIGINAL,) * 2, seed=9)
    jitter_parameters(model, 99)
    feats = random_feats(3, (1, 5, 2))
    ig = node_input_gradient(model, g.adjacency_matrix(), None, feats, node=4, channel=1)

    def out_val():
        h, _ = run_layer_stack(model, g.adjacency_matrix(), None, feats)
        return float(h[0, 4, 1])

    for node, channel in [(2, 0), (3, 1), (4, 0)]:
        orig = feats[0, node, channel]
        feats[0, node, channel] = orig + FD_STEP
        vp = out_val()
        feats[0, node, channel] = orig - FD_STEP
        vm = out_val()
        feats[0, node, channel] = orig
        fd = (vp - vm) / (2.0 * FD_STEP)
        assert abs(ig[node, channel] - fd) / max(1.0, abs(fd)) <= REL_TOL
