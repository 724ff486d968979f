from __future__ import annotations

import numpy as np
import pytest

from hyperexpand.gnn.layers import (
    Affine,
    ExpanderLayerParams,
    GinLayerParams,
    HyperedgeMode,
    expander_forward,
    gin_forward,
    glorot,
    init_expander_params,
    init_gin_params,
)
from hyperexpand.graphs import (
    build_graph,
    cycle_graph,
    make_bipartite_expander,
    path_graph,
)
from hyperexpand.rng import SplitMix64


def gin_layer(h, g, p):
    """One GIN layer over g, run as a batch of one."""
    out, _ = gin_forward(h[None], g.adjacency_matrix(), p)
    return out[0]


def expander_layer(h, b, p):
    """One expander layer over b, run as a batch of one."""
    out, _ = expander_forward(h[None], b.biadjacency(), p)
    return out[0]


def identity_gin(d, epsilon=0.0):
    return GinLayerParams(
        epsilon=np.array(epsilon),
        w1=np.eye(d),
        b1=np.zeros(d),
        w2=np.eye(d),
        b2=np.zeros(d),
    )


def identity_summation(d, epsilon=0.0):
    return ExpanderLayerParams(
        mode=HyperedgeMode.SUMMATION,
        backward_gin=identity_gin(d, epsilon),
        summation_linear=Affine(w=np.eye(d), b=np.zeros(d)),
    )


def random_graph(seed, max_n=16):
    rng = SplitMix64(seed)
    n = 3 + rng.next_below(max_n - 2)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.next_unit() < 0.4
    ]
    return build_graph(n, edges)


def random_features(rng, rows, cols, nonnegative=False):
    vals = np.array([rng.next_unit() * 2.0 - 1.0 for _ in range(rows * cols)])
    if nonnegative:
        vals = np.abs(vals)
    return vals.reshape(rows, cols)


class TestGinHandExamples:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        out = gin_layer(np.array([[1.0], [2.0]]), g, identity_gin(1))
        assert out.tolist() == [[3.0], [3.0]]

    def test_isolated_node_epsilon_half(self):
        g = build_graph(1, [])
        out = gin_layer(np.array([[2.0]]), g, identity_gin(1, epsilon=0.5))
        assert out.tolist() == [[3.0]]

    def test_triangle_sums_everything(self):
        g = cycle_graph(3)
        out = gin_layer(np.array([[1.0], [2.0], [3.0]]), g, identity_gin(1))
        assert out.tolist() == [[6.0], [6.0], [6.0]]

    def test_isolated_nodes_keep_scaled_self(self):
        g = build_graph(3, [(0, 1)])
        out = gin_layer(np.array([[1.0], [1.0], [5.0]]), g, identity_gin(1, 1.0))
        assert out.tolist() == [[3.0], [3.0], [10.0]]


class TestSumAggregationIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_a_plus_i_times_h(self, seed):
        g = random_graph(seed)
        rng = SplitMix64(seed + 1000)
        h = random_features(rng, g.n, 3, nonnegative=True)
        out = gin_layer(h, g, identity_gin(3))
        want = (g.adjacency_matrix() + np.eye(g.n)) @ h
        assert np.max(np.abs(out - want)) <= 1e-12


class TestExpanderHandExamples:
    def test_k11_summation(self):
        b = make_bipartite_expander(1, 1, 1, ((0,),))
        h = np.array([[5.0], [0.0]])
        out = expander_layer(h, b, identity_summation(1))
        assert out.tolist() == [[10.0], [5.0]]

    def test_k33_summation(self):
        b = make_bipartite_expander(3, 3, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        h = np.array([[1.0], [2.0], [3.0], [0.0], [0.0], [0.0]])
        out = expander_layer(h, b, identity_summation(1))
        assert out[:3].tolist() == [[19.0], [20.0], [21.0]]
        assert out[3:].tolist() == [[6.0], [6.0], [6.0]]

    def test_phases_are_sequential(self):
        # phase 2 must consume phase-1 output, not the stale hyperedge rows
        b = make_bipartite_expander(1, 1, 1, ((0,),))
        h = np.array([[5.0], [7.0]])
        out = expander_layer(h, b, identity_summation(1))
        # phase 1 overwrites the hyperedge feature 7 with 5, so the left
        # node sees 5, not 7
        assert out.tolist() == [[10.0], [5.0]]


LEARNED_GOLDEN = np.array(
    [
        [0.20276280700335267, -0.23701948528345387, -0.1244466213348317],
        [0.6125040039444869, -0.4378991333299731, -0.44045902821954164],
        [0.9925358774679561, -0.7095963418085905, -0.7137445392147806],
        [1.3539104428001685, -0.9679548308100988, -0.9736133545113932],
        [0.2858187106674877, 0.13414721928935674, -0.29447813757581626],
        [0.2758472680781192, 0.1294671852476966, -0.28420459097768086],
        [0.30576159584622437, 0.14350728737267682, -0.31502523077208666],
        [0.3356759236143295, 0.15754738949765704, -0.34584587056649246],
    ]
)


def learned_fixture():
    b = make_bipartite_expander(4, 4, 2, ((0, 1, 2, 3), (1, 2, 3, 0)))
    p = init_expander_params(SplitMix64(2024), HyperedgeMode.LEARNED, 3, 3)
    h = np.arange(24, dtype=np.float64).reshape(8, 3) / 10.0
    return b, p, h


def scalar_gin_row(h_self_row, neighbor_rows, p):
    """One GIN node update with plain Python loops, no matrix ops."""
    d_in = len(h_self_row)
    eps = float(p.epsilon)
    z = [(1.0 + eps) * h_self_row[j] + sum(r[j] for r in neighbor_rows) for j in range(d_in)]
    hidden = len(p.b1)
    a1 = [sum(z[i] * p.w1[i, j] for i in range(d_in)) + p.b1[j] for j in range(hidden)]
    r = [max(x, 0.0) for x in a1]
    d_out = len(p.b2)
    return [sum(r[i] * p.w2[i, j] for i in range(hidden)) + p.b2[j] for j in range(d_out)]


class TestLearnedMode:
    def test_golden_matrix(self):
        b, p, h = learned_fixture()
        out = expander_layer(h, b, p)
        assert np.max(np.abs(out - LEARNED_GOLDEN)) <= 1e-12

    def test_scalar_recomputation(self):
        b, p, h = learned_fixture()
        out = expander_layer(h, b, p)
        n = b.n_left
        biadj = b.biadjacency()
        hyper = []
        for r in range(b.n_right):
            nbrs = [h[l] for l in range(n) if biadj[r, l] == 1.0]
            hyper.append(scalar_gin_row(h[n + r], nbrs, p.forward_gin))
        for r in range(b.n_right):
            assert np.max(np.abs(out[n + r] - np.array(hyper[r]))) <= 1e-12
        for l in range(n):
            nbrs = [hyper[r] for r in range(b.n_right) if biadj[r, l] == 1.0]
            want = scalar_gin_row(h[l], nbrs, p.backward_gin)
            assert np.max(np.abs(out[l] - np.array(want))) <= 1e-12

    def test_hyperedge_rows_update_in_learned_mode(self):
        b, p, h = learned_fixture()
        out = expander_layer(h, b, p)
        assert not np.allclose(out[4:], h[4:])


class TestPermutationEquivariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_gin_layer(self, seed):
        g = random_graph(seed)
        rng = SplitMix64(seed + 500)
        h = random_features(rng, g.n, 4)
        p = init_gin_params(SplitMix64(seed + 900), 4, 5, 4)
        out = gin_layer(h, g, p)
        perm = list(SplitMix64(seed + 77).permutation(g.n))
        g2 = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_array().tolist()])
        h2 = np.empty_like(h)
        h2[perm] = h
        out2 = gin_layer(h2, g2, p)
        assert np.max(np.abs(out2[perm] - out)) <= 1e-12

    @pytest.mark.parametrize("mode", [HyperedgeMode.LEARNED, HyperedgeMode.SUMMATION])
    @pytest.mark.parametrize("seed", range(3))
    def test_expander_layer(self, mode, seed):
        from hyperexpand.construct import GeneratorConfig, k_regular_bipartite

        n = 5
        b = k_regular_bipartite(GeneratorConfig(n=n, k=3, seed=seed))
        rng = SplitMix64(seed + 1)
        h = random_features(rng, 2 * n, 3)
        p = init_expander_params(SplitMix64(seed + 2), mode, 3, 4)
        out = expander_layer(h, b, p)

        perm_l = list(SplitMix64(seed + 3).permutation(n))
        perm_r = list(SplitMix64(seed + 4).permutation(n))
        new_matchings = []
        for m in b.matchings:
            nm = [0] * n
            for l, r in enumerate(m):
                nm[perm_l[l]] = perm_r[r]
            new_matchings.append(tuple(nm))
        b2 = make_bipartite_expander(n, n, b.k, tuple(new_matchings))
        h2 = np.empty_like(h)
        for l in range(n):
            h2[perm_l[l]] = h[l]
        for r in range(n):
            h2[n + perm_r[r]] = h[n + r]
        out2 = expander_layer(h2, b2, p)
        full_perm = perm_l + [n + r for r in perm_r]
        assert np.max(np.abs(out2[full_perm] - out)) <= 1e-12


class TestValidation:
    def test_learned_mode_param_set(self):
        gin = identity_gin(2)
        with pytest.raises(ValueError, match="LEARNED"):
            ExpanderLayerParams(mode=HyperedgeMode.LEARNED, backward_gin=gin)
        with pytest.raises(ValueError, match="LEARNED"):
            ExpanderLayerParams(
                mode=HyperedgeMode.LEARNED,
                backward_gin=gin,
                forward_gin=identity_gin(2),
                summation_linear=Affine(np.eye(2), np.zeros(2)),
            )

    def test_summation_mode_param_set(self):
        gin = identity_gin(2)
        with pytest.raises(ValueError, match="SUMMATION"):
            ExpanderLayerParams(mode=HyperedgeMode.SUMMATION, backward_gin=gin)
        with pytest.raises(ValueError, match="SUMMATION"):
            ExpanderLayerParams(
                mode=HyperedgeMode.SUMMATION,
                backward_gin=gin,
                forward_gin=identity_gin(2),
                summation_linear=Affine(np.eye(2), np.zeros(2)),
            )


class TestInitializers:
    def test_glorot_bounds(self):
        w = glorot(SplitMix64(3), 6, 4)
        limit = np.sqrt(6.0 / 10.0)
        assert w.shape == (6, 4)
        assert np.all(np.abs(w) <= limit)

    def test_gin_init_shapes(self):
        p = init_gin_params(SplitMix64(0), 3, 5, 2)
        assert p.epsilon.shape == ()
        assert float(p.epsilon) == 0.0
        assert p.w1.shape == (3, 5) and p.b1.shape == (5,)
        assert p.w2.shape == (5, 2) and p.b2.shape == (2,)
        assert np.all(p.b1 == 0) and np.all(p.b2 == 0)

    def test_expander_init_modes(self):
        p = init_expander_params(SplitMix64(0), HyperedgeMode.LEARNED, 4, 6)
        assert p.forward_gin is not None and p.summation_linear is None
        q = init_expander_params(SplitMix64(0), HyperedgeMode.SUMMATION, 4, 6)
        assert q.summation_linear is not None and q.forward_gin is None
        assert q.summation_linear.w.shape == (4, 4)

    def test_deterministic(self):
        a = init_gin_params(SplitMix64(9), 3, 4, 3)
        b = init_gin_params(SplitMix64(9), 3, 4, 3)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


def test_path_graph_message_range():
    # one layer moves information exactly one hop
    g = path_graph(3)
    h = np.array([[1.0], [0.0], [0.0]])
    out = gin_layer(h, g, identity_gin(1))
    assert out.tolist() == [[1.0], [1.0], [0.0]]
