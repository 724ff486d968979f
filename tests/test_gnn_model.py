from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from hyperexpand.construct import GeneratorConfig
from hyperexpand.gnn import layers
from hyperexpand.gnn.layers import (
    Affine,
    GinLayerParams,
    HyperedgeMode,
    _gin_mlp_forward,
    expander_forward,
    gin_forward,
)
from hyperexpand.gnn.model import (
    backward_batch,
    build_model,
    forward_batch,
    loss_and_gradients,
    named_parameters,
    softmax_cross_entropy,
    zero_gradients,
)
from hyperexpand.graphs import build_graph, cycle_graph, path_graph
from hyperexpand.rewire import LayerKind, augment, layer_schedule

from helpers import augmented_adjacency


def identity_gin(d):
    return GinLayerParams(
        epsilon=np.array(0.0), w1=np.eye(d), b1=np.zeros(d), w2=np.eye(d), b2=np.zeros(d)
    )


def tree_depth1():
    return build_graph(3, [(0, 1), (0, 2)])


def plain_logits(model, g, h):
    """Logits of one plain graph, run as a batch of one."""
    logits, _ = forward_batch(model, h[None], g.adjacency_matrix())
    return logits[0]


def padded_features(inst, feats):
    """(1, 2n, d) features: the original rows, then zero hyperedge rows."""
    padded = np.zeros((1, inst.total_nodes, feats.shape[1]))
    padded[0, : inst.original.n] = feats
    return padded


def rewired_logits(model, inst, feats):
    """Logits of one rewired instance, run as a batch of one."""
    adj = augmented_adjacency(inst)
    logits, _ = forward_batch(model, padded_features(inst, feats), adj, inst.expander.biadjacency())
    return logits[0]


class TestBuildModel:
    def test_layer_kinds_follow_schedule(self):
        model = build_model(5, 8, 4, layer_schedule(4))
        assert model.schedule == layer_schedule(4)
        assert len(model.layers) == 4
        names = [n for n, _ in named_parameters(model)]
        assert "layers.0.w1" in names
        assert "layers.1.summation.w" in names
        assert "layers.1.backward.w1" in names
        assert names[-2:] == ["head.w", "head.b"]

    def test_learned_mode_names(self):
        model = build_model(8, 8, 2, layer_schedule(2), mode=HyperedgeMode.LEARNED)
        names = [n for n, _ in named_parameters(model)]
        assert "layers.1.forward.w1" in names
        assert "layers.1.forward.epsilon" in names
        assert not any("summation" in n for n in names)

    def test_expander_first_needs_matching_width(self):
        with pytest.raises(ValueError, match="ORIGINAL"):
            build_model(5, 8, 4, (LayerKind.EXPANDER,))
        # equal widths are fine
        model = build_model(8, 8, 4, (LayerKind.EXPANDER,))
        assert len(model.layers) == 1

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            build_model(5, 8, 4, ())

    def test_deterministic_in_seed(self):
        a = build_model(5, 8, 4, layer_schedule(3), seed=11)
        b = build_model(5, 8, 4, layer_schedule(3), seed=11)
        c = build_model(5, 8, 4, layer_schedule(3), seed=12)
        for (na, pa), (nb, pb) in zip(named_parameters(a), named_parameters(b)):
            assert na == nb
            assert np.array_equal(pa, pb)
        assert not np.array_equal(a.head.w, c.head.w)

    def test_zero_gradients_shapes(self):
        model = build_model(5, 8, 4, layer_schedule(2))
        grads = zero_gradients(model)
        for name, arr in named_parameters(model):
            assert grads[name].shape == arr.shape
            assert not grads[name].any()


class TestForwardPlain:
    def test_one_layer_equals_gin_layer_forward(self):
        g = path_graph(3)
        model = build_model(2, 4, 3, (LayerKind.ORIGINAL,), seed=5)
        h = np.array([[0.3, -0.2], [1.0, 0.5], [-0.4, 0.8]])
        logits = plain_logits(model, g, h)
        manual, _ = gin_forward(h[None], g.adjacency_matrix(), model.layers[0])
        want = manual[0, 0] @ model.head.w + model.head.b
        assert np.max(np.abs(logits - want)) <= 1e-12

    def test_zero_input_zero_biases_zero_logits(self):
        model = build_model(4, 6, 3, (LayerKind.ORIGINAL,) * 2, seed=0)
        # built biases are all zero already
        logits = plain_logits(model, cycle_graph(5), np.zeros((5, 4)))
        assert np.array_equal(logits, np.zeros(3))

    def test_depth1_tree_identity_hand_check(self):
        # (A+I) twice on the 3-node star: root collects 3 h_root + 2 h_left
        # + 2 h_right, and the root readout is the logits
        model = build_model(2, 2, 2, (LayerKind.ORIGINAL,) * 2, seed=0)
        model.layers = [identity_gin(2), identity_gin(2)]
        model.head = Affine(w=np.eye(2), b=np.zeros(2))
        h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        logits = plain_logits(model, tree_depth1(), h)
        assert logits.tolist() == [5.0, 4.0]
        a_plus_i = tree_depth1().adjacency_matrix() + np.eye(3)
        assert np.array_equal(logits, (a_plus_i @ (a_plus_i @ h))[0])

    def test_plain_graph_rejects_expander_schedule(self):
        model = build_model(4, 4, 2, layer_schedule(2))
        adj = cycle_graph(4).adjacency_matrix()
        with pytest.raises(ValueError, match="EXPANDER"):
            forward_batch(model, np.zeros((1, 4, 4)), adj, biadj=None)


class TestForwardRewired:
    @pytest.fixture
    def inst(self):
        return augment(cycle_graph(4), GeneratorConfig(n=4, k=3, seed=5), num_layers=2)

    def test_matches_manual_composition(self, inst):
        model = build_model(3, 3, 2, layer_schedule(2), seed=9)
        feats = np.array(
            [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9], [1.0, 1.1, 1.2]]
        )
        logits = rewired_logits(model, inst, feats)
        adj = augmented_adjacency(inst)
        h1, _ = gin_forward(padded_features(inst, feats), adj, model.layers[0])
        h2, _ = expander_forward(h1, inst.expander.biadjacency(), model.layers[1])
        want = h2[0, 0] @ model.head.w + model.head.b
        assert np.max(np.abs(logits - want)) <= 1e-12

    def test_hyperedge_rows_start_at_zero(self, inst):
        # an all-ORIGINAL schedule never touches hyperedge rows, so with
        # zero biases the left block behaves as if they were absent
        model = build_model(3, 3, 2, (LayerKind.ORIGINAL, LayerKind.ORIGINAL), seed=9)
        feats = np.arange(12, dtype=np.float64).reshape(4, 3)
        logits_rewired = rewired_logits(model, inst, feats)
        logits_plain = plain_logits(model, cycle_graph(4), feats)
        assert np.max(np.abs(logits_rewired - logits_plain)) <= 1e-12

    def test_original_layer_runs_mlp_on_hyperedge_rows(self, inst):
        # hyperedge rows are isolated in the augmented adjacency, so an
        # ORIGINAL layer after an expander layer maps them through its MLP
        # with zero aggregation; the next LEARNED expander layer reads that
        model = build_model(3, 8, 2, layer_schedule(3), mode=HyperedgeMode.LEARNED, seed=9)
        feats = np.arange(12, dtype=np.float64).reshape(4, 3) / 10.0
        adj = augmented_adjacency(inst)
        biadj = inst.expander.biadjacency()
        h1, _ = gin_forward(padded_features(inst, feats), adj, model.layers[0])
        h2, _ = expander_forward(h1, biadj, model.layers[1])
        h3, _ = gin_forward(h2, adj, model.layers[2])
        h_right = h2[:, 4:]
        want, _ = _gin_mlp_forward(h_right, 0.0, model.layers[2])
        assert np.max(np.abs(h_right)) > 0.0
        assert not np.allclose(h3[:, 4:], h_right)
        assert np.max(np.abs(h3[:, 4:] - want)) <= 1e-12


@pytest.mark.parametrize("mode", list(HyperedgeMode))
def test_each_layer_calls_its_public_kernel_once(mode, monkeypatch):
    # perfbench counts ORIGINAL layers as calls of gin_forward and
    # gin_backward, wrapped wherever a hyperexpand module holds them: an
    # expander phase that called them would count as an ORIGINAL layer.
    calls = Counter()
    for name in ("gin_forward", "gin_backward", "expander_forward", "expander_backward"):
        kernel = getattr(layers, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("hyperexpand") and getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted)
    inst = augment(cycle_graph(4), GeneratorConfig(n=4, k=3, seed=5), num_layers=5)
    schedule = layer_schedule(5)
    model = build_model(3, 4, 2, schedule, mode=mode, seed=9)
    feats = padded_features(inst, np.arange(12, dtype=np.float64).reshape(4, 3) / 10.0)
    logits, caches = forward_batch(model, feats, augmented_adjacency(inst), inst.expander.biadjacency())
    backward_batch(model, softmax_cross_entropy(logits, np.array([1]))[1], caches)
    original = schedule.count(LayerKind.ORIGINAL)
    expander = len(schedule) - original
    assert original and expander
    assert calls == {
        "gin_forward": original, "gin_backward": original,
        "expander_forward": expander, "expander_backward": expander,
    }


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, dlogits, probs = softmax_cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
        assert loss == pytest.approx(np.log(4.0))
        assert np.allclose(probs, 0.25)
        assert dlogits[0, 0] == pytest.approx((0.25 - 1.0) / 2)
        assert dlogits[1, 1] == pytest.approx(0.25 / 2)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        a, _, _ = softmax_cross_entropy(logits, np.array([1]))
        b, _, _ = softmax_cross_entropy(logits + 1000.0, np.array([1]))
        assert a == pytest.approx(b)

    def test_gradient_rows_sum_to_zero(self):
        logits = np.array([[0.2, -1.0, 0.7], [2.0, 0.0, -0.5]])
        _, dlogits, _ = softmax_cross_entropy(logits, np.array([2, 0]))
        assert np.allclose(dlogits.sum(axis=1), 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            softmax_cross_entropy(np.array([[np.inf, 0.0]]), np.array([0]))


class TestLossAndGradients:
    def test_accuracy_and_loss_drop_after_step(self):
        g = tree_depth1()
        model = build_model(2, 4, 2, (LayerKind.ORIGINAL,) * 2, seed=3)
        feats = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
        targets = np.array([1])
        adj = g.adjacency_matrix()
        loss0, acc0, grads = loss_and_gradients(model, feats, targets, adj)
        assert 0.0 <= acc0 <= 1.0
        for name, arr in named_parameters(model):
            arr -= 0.1 * grads[name]
        loss1, _, _ = loss_and_gradients(model, feats, targets, adj)
        assert loss1 < loss0
