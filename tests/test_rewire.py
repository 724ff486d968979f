from __future__ import annotations

import json

import numpy as np
import pytest

from hyperexpand.construct import GeneratorConfig
from hyperexpand.graphs import (
    bfs_diameter,
    build_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from hyperexpand.rewire import (
    REWIRED_FORMAT,
    LayerKind,
    RewiredInstance,
    augment,
    layer_schedule,
    rewired_from_dict,
)
from hyperexpand.serialize import dumps_canonical


class TestLayerSchedule:
    def test_six_layers(self):
        o, x = LayerKind.ORIGINAL, LayerKind.EXPANDER
        assert layer_schedule(6) == (o, x, o, x, o, x)

    def test_one_layer(self):
        assert layer_schedule(1) == (LayerKind.ORIGINAL,)

    def test_two_layers(self):
        assert layer_schedule(2) == (LayerKind.ORIGINAL, LayerKind.EXPANDER)

    @pytest.mark.parametrize("num_layers", range(1, 65))
    def test_alternation_exact(self, num_layers):
        sched = layer_schedule(num_layers)
        assert len(sched) == num_layers
        for i, kind in enumerate(sched):
            want = LayerKind.ORIGINAL if (i + 1) % 2 == 1 else LayerKind.EXPANDER
            assert kind is want

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            layer_schedule(0)


class TestAugment:
    def test_single_edge_k2(self):
        g = build_graph(2, [(0, 1)])
        inst = augment(g, GeneratorConfig(n=2, k=2, seed=0))
        assert inst.total_nodes == 4
        # the only 2-regular 2+2 bipartite graph is a 4-cycle
        view = inst.expander.to_graph()
        assert sorted(view.edge_array().tolist()) == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_c4_k3_left_degrees(self):
        inst = augment(cycle_graph(4), GeneratorConfig(n=4, k=3, seed=5))
        assert inst.expander.k == 3
        degrees = inst.expander.to_graph().degrees()
        assert all(d == 3 for d in degrees)
        assert inst.expander.matchings.tolist() == [[2, 1, 3, 0], [0, 2, 1, 3], [1, 3, 0, 2]]

    def test_n1(self):
        inst = augment(build_graph(1, []), GeneratorConfig(n=1, k=1))
        assert inst.total_nodes == 2
        assert inst.expander.to_graph().edge_array().tolist() == [[0, 1]]

    def test_cfg_n_overridden(self):
        g = path_graph(5)
        inst = augment(g, GeneratorConfig(n=99, k=2, seed=1))
        assert inst.expander.n_left == 5

    def test_k_clamped_to_n(self):
        g = build_graph(2, [(0, 1)])
        inst = augment(g, GeneratorConfig(n=2, k=2, seed=0))
        big = augment(g, GeneratorConfig(n=16, k=3, seed=0))
        assert big.expander.k == 2
        assert big.expander == inst.expander

    def test_ramanujan_flag(self):
        inst = augment(cycle_graph(8), GeneratorConfig(n=8, k=3, seed=0), ramanujan=True)
        from hyperexpand.spectral import analyze

        rep = analyze(inst.expander.to_graph())
        assert rep.ramanujan is True

    def test_num_layers_parameter(self):
        inst = augment(cycle_graph(4), GeneratorConfig(n=4, k=2), num_layers=3)
        assert len(inst.schedule) == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            augment(build_graph(0, []), GeneratorConfig(n=1, k=1))

    def test_deterministic(self):
        g = cycle_graph(6)
        cfg = GeneratorConfig(n=6, k=3, seed=77)
        assert augment(g, cfg).expander == augment(g, cfg).expander


class TestRewiredInstance:
    @pytest.fixture
    def inst(self):
        return augment(cycle_graph(4), GeneratorConfig(n=4, k=3, seed=5))

    def test_mask_selects_hyperedge_ids(self, inst):
        assert inst.hyperedge_mask.tolist() == [False] * 4 + [True] * 4
        assert sum(inst.hyperedge_mask) == 4

    def test_mask_keeps_first_n_feature_rows(self, inst):
        feats = np.arange(8.0).reshape(8, 1)
        kept = feats[~np.array(inst.hyperedge_mask)]
        assert kept[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_expander_view_covers_both_sides(self, inst):
        view = inst.expander.to_graph()
        assert view.n == 8
        assert all(u < 4 <= v for u, v in view.edge_array().tolist())

    def test_validation(self, inst):
        with pytest.raises(ValueError, match="2n"):
            RewiredInstance(
                original=inst.original,
                expander=inst.expander,
                total_nodes=9,
                hyperedge_mask=inst.hyperedge_mask,
                schedule=inst.schedule,
            )
        with pytest.raises(ValueError, match="mask"):
            RewiredInstance(
                original=inst.original,
                expander=inst.expander,
                total_nodes=8,
                hyperedge_mask=tuple(not b for b in inst.hyperedge_mask),
                schedule=inst.schedule,
            )
        with pytest.raises(ValueError, match="left side"):
            RewiredInstance(
                original=cycle_graph(5),
                expander=inst.expander,
                total_nodes=10,
                hyperedge_mask=(False,) * 5 + (True,) * 5,
                schedule=inst.schedule,
            )

    @pytest.mark.parametrize(
        "mask,ok",
        [
            ([False] * 4 + [True] * 4, True),
            ((0,) * 4 + (1,) * 4, True),
            ((False,) * 4 + (True,) * 3, False),
            ((False,) * 3 + (True,) * 5, False),
            ((False,) * 4 + (True,) * 5, False),
            ((), False),
        ],
    )
    def test_mask_is_compared_by_value(self, inst, mask, ok):
        def make():
            return RewiredInstance(
                original=inst.original,
                expander=inst.expander,
                total_nodes=8,
                hyperedge_mask=mask,
                schedule=inst.schedule,
            )

        if ok:
            assert make() == inst
            assert dumps_canonical(make().to_dict()) == dumps_canonical(inst.to_dict())
        else:
            with pytest.raises(ValueError, match="^hyperedge mask must select exactly ids n..2n-1$"):
                make()

    def test_envelope_round_trip(self, inst):
        d = inst.to_dict()
        assert d["format"] == REWIRED_FORMAT
        assert d["schedule"] == ["original", "expander"] * 3
        back = rewired_from_dict(d)
        assert back == inst

    def test_envelope_rejects_wrong_format(self, inst):
        d = inst.to_dict()
        d["format"] = "something-else"
        with pytest.raises(ValueError, match="format"):
            rewired_from_dict(d)

    def test_envelope_rejects_non_dict(self, inst):
        with pytest.raises(ValueError, match=f"^expected format {REWIRED_FORMAT!r}, got 'list'$"):
            rewired_from_dict([inst.to_dict()])


    @pytest.mark.parametrize(
        "field", ["original", "expander", "total_nodes", "hyperedge_mask", "schedule"]
    )
    def test_envelope_names_missing_field(self, inst, field):
        d = inst.to_dict()
        del d[field]
        with pytest.raises(ValueError, match=f"'{field}'"):
            rewired_from_dict(d)

    @pytest.mark.parametrize("field", ["total_nodes", "hyperedge_mask", "schedule"])
    def test_envelope_names_mistyped_field(self, inst, field):
        d = inst.to_dict()
        d[field] = None
        with pytest.raises(ValueError, match=f"'{field}'"):
            rewired_from_dict(d)


    @pytest.mark.parametrize(
        "field,value",
        [
            ("total_nodes", 8.9),
            ("total_nodes", 8.0),
            ("total_nodes", True),
            ("total_nodes", "8"),
            ("hyperedge_mask", [False] * 4 + [True] * 2 + ["yes", 1]),
            ("hyperedge_mask", [0] * 4 + [1] * 4),
            ("hyperedge_mask", "yes"),
        ],
    )
    def test_envelope_refuses_coercion(self, inst, field, value):
        d = inst.to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=f"^malformed field '{field}'"):
            rewired_from_dict(d)

    def test_envelope_round_trip_through_json_text(self, inst):
        back = rewired_from_dict(json.loads(dumps_canonical(inst.to_dict())))
        assert back == inst
        assert back.hyperedge_mask.dtype == bool and type(back.total_nodes) is int


class TestReachability:
    """One expander round is two propagation phases, so ceil(diam/2) rounds
    must spread a one-hot signal from any left node to every left node."""

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_receptive_field_covers_left_side(self, n):
        for seed in (0, 1):
            cfg = GeneratorConfig(n=n, k=min(3, n), seed=seed)
            inst = augment(build_graph(n, []), cfg)
            bip = inst.expander.to_graph()
            assert is_connected(bip)
            diam = bfs_diameter(bip)
            rounds = (diam + 1) // 2
            # biadjacency rows are hyperedge nodes, columns left nodes
            biadj = np.array(inst.expander.biadjacency(), dtype=bool)
            left = np.eye(n, dtype=bool)
            right = np.zeros((n, n), dtype=bool)
            for _ in range(rounds):
                right = right | (left @ biadj.T)
                left = left | (right @ biadj)
            assert left.all()

    def test_one_round_insufficient_on_sparse_overlay(self):
        # k=1 overlay is a single matching: one round reaches only the
        # matched partner, never the whole side
        inst = augment(build_graph(4, []), GeneratorConfig(n=4, k=1, seed=0))
        biadj = np.array(inst.expander.biadjacency(), dtype=bool)
        left = np.eye(4, dtype=bool)
        right = left @ biadj.T
        left = left | (right @ biadj)
        assert not left.all()
