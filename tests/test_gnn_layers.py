from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperexpand.gnn import layers
from hyperexpand.gnn.layers import (
    Affine,
    ExpanderLayerParams,
    GinLayerParams,
    HyperedgeMode,
    Workspace,
    expander_forward,
    gin_backward,
    gin_forward,
    glorot,
    init_expander_params,
    init_gin_params,
)
from hyperexpand.gnn.model import build_model, loss_and_gradients
from hyperexpand.gnn.treematch import tree_graph
from hyperexpand.graphs import (
    build_graph,
    cycle_graph,
    make_bipartite_expander,
    path_graph,
)
from hyperexpand.rewire import layer_schedule
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
        backward_gin=identity_gin(d, epsilon),
        hyperedge=Affine(w=np.eye(d), b=np.zeros(d)),
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
            hyper.append(scalar_gin_row(h[n + r], nbrs, p.hyperedge))
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
        assert p.mode is HyperedgeMode.LEARNED and isinstance(p.hyperedge, GinLayerParams)
        q = init_expander_params(SplitMix64(0), HyperedgeMode.SUMMATION, 4, 6)
        assert q.mode is HyperedgeMode.SUMMATION and isinstance(q.hyperedge, Affine)
        assert q.hyperedge.w.shape == (4, 4)

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


def with_signed_zeros(rng, a):
    """a with about a fifth of its entries set to +0.0 or -0.0."""
    a = a.copy()
    hit = rng.random(a.shape) < 0.2
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


def padded(block, rows):
    """block in the top-left corner of a (rows, rows) zero matrix."""
    adj = np.zeros((rows, rows))
    adj[: block.shape[0], : block.shape[1]] = block
    return adj


def two_per_line(rng, m):
    """A random 0/1 (m, m) matrix, not symmetric, with at most two ones in
    each row and each column. A product with it sums at most two nonzero
    terms per entry, and every order sums two terms alike."""
    a = np.zeros((m, m))
    for _ in range(2):
        a[np.arange(m), rng.permutation(m)] = 1.0
    return a * (rng.random((m, m)) < 0.8)


@contextlib.contextmanager
def workspace(entered: bool):
    """An unentered workspace, or an entered one that splits every kernel
    over three threads and pairs the weight-gradient GEMMs."""
    if not entered:
        yield Workspace()
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_SPLIT_MIN_FLOATS", 0)
        mp.setattr(layers, "_WORKERS", 3)
        with Workspace() as ws:
            yield ws


def same_bits(a, b) -> bool:
    """Equal bytes: every float equal, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


GIN_GRADS = ("epsilon", "w1", "b1", "w2", "b2")


def gin_pass(h, adj, dout, p, ws):
    """Copies of out, z, r, d h and the parameter grads of one
    gin_forward and gin_backward."""
    out, cache = gin_forward(h, adj, p, ws)
    got = [out.copy(), cache[1].copy(), cache[2].copy()]
    grads = {name: np.zeros_like(getattr(p, name)) for name in GIN_GRADS}
    got.append(gin_backward(dout, cache, p, grads, "", ws).copy())
    return got + list(grads.values())


gin_shapes = dict(
    batch=st.integers(1, 5),
    m=st.integers(1, 9),
    extra=st.integers(1, 9),
    widths=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    exponent=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)


def gin_inputs(rng, batch, rows, widths, exponent, seed):
    d_in, hidden, d_out = widths
    h = with_signed_zeros(rng, 10.0**exponent * rng.standard_normal((batch, rows, d_in)))
    dout = with_signed_zeros(rng, rng.standard_normal((batch, rows, d_out)))
    return h, dout, init_gin_params(SplitMix64(seed), d_in, hidden, d_out)


class TestTreeBlockAdjacency:
    """A shared (m, m) adjacency over the first m rows computes what the
    same block zero-padded to every row computes: a rewired run's
    ORIGINAL layers take the n x n tree block.

    The rows past m and every op besides the aggregation products match
    bit for bit, signed zeros included. The products sum the same terms
    as the padded product, but BLAS picks its kernel, and with it the
    order of a sum, per shape, so a sum of three or more nonzero terms
    can round differently in the last bit (the padded product itself
    goes to gemv at width 1). So bits are asserted where no order can
    matter, at most two nonzero terms per sum, and on the trees that
    training runs at its default width; elsewhere, agreement to rounding."""

    @settings(max_examples=100, deadline=None)
    @given(**gin_shapes)
    def test_gin_bits_with_two_terms_per_sum(self, batch, m, extra, widths, exponent, seed):
        rng = np.random.default_rng(seed)
        rows = m + extra
        block = two_per_line(rng, m)
        h, dout, p = gin_inputs(rng, batch, rows, widths, exponent, seed)
        for entered in (False, True):
            with workspace(entered) as ws:
                want = gin_pass(h, padded(block, rows), dout, p, ws)
                got = gin_pass(h, block, dout, p, ws)
                assert all(same_bits(a, b) for a, b in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(**gin_shapes)
    def test_gin_agrees_to_rounding(self, batch, m, extra, widths, exponent, seed):
        rng = np.random.default_rng(seed)
        rows = m + extra
        block = rng.integers(0, 2, (m, m)).astype(np.float64)
        h, dout, p = gin_inputs(rng, batch, rows, widths, exponent, seed)
        for entered in (False, True):
            with workspace(entered) as ws:
                want = gin_pass(h, padded(block, rows), dout, p, ws)
                got = gin_pass(h, block, dout, p, ws)
                for a, b in zip(got[:3], want[:3]):  # the rows no adjacency entry reaches
                    assert same_bits(a[:, m:], b[:, m:])
                for a, b in zip(got, want):
                    assert np.allclose(a, b, rtol=1e-9, atol=1e-12 * np.abs(b).max())

    @pytest.mark.parametrize("depth", [2, 5])
    def test_gin_bits_on_the_training_trees(self, depth):
        tree = tree_graph(depth).adjacency_matrix()
        n = tree.shape[0]
        rng = np.random.default_rng(depth)
        h, dout, p = gin_inputs(rng, 4, 2 * n, (32, 32, 32), 0.0, depth)
        for entered in (False, True):
            with workspace(entered) as ws:
                want = gin_pass(h, padded(tree, 2 * n), dout, p, ws)
                got = gin_pass(h, tree, dout, p, ws)
                assert all(same_bits(a, b) for a, b in zip(got, want))

    @settings(max_examples=50, deadline=None)
    @given(
        batch=st.integers(1, 5),
        n=st.integers(1, 8),
        widths=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        num_layers=st.integers(1, 6),
        mode=st.sampled_from(list(HyperedgeMode)),
        exponent=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rewired_loss_and_gradients_bits(self, batch, n, widths, num_layers, mode, exponent, seed):
        rng = np.random.default_rng(seed)
        in_dim, hidden = widths
        tree = two_per_line(rng, n)
        biadj = rng.integers(0, 2, (batch, n, n)).astype(np.float64)
        feats = with_signed_zeros(rng, 10.0**exponent * rng.standard_normal((batch, 2 * n, in_dim)))
        targets = rng.integers(0, 3, batch)
        model = build_model(in_dim, hidden, 3, layer_schedule(num_layers), mode=mode, seed=seed)
        for entered in (False, True):
            with workspace(entered) as ws:
                want = loss_and_gradients(model, feats, targets, padded(tree, 2 * n), biadj, ws)
                got = loss_and_gradients(model, feats, targets, tree, biadj, ws)
                assert got[:2] == want[:2] and list(got[2]) == list(want[2])
                assert all(same_bits(got[2][name], want[2][name]) for name in want[2])

    @pytest.mark.parametrize("shape", [(5, 5), (5, 4), (4, 5)])
    def test_adjacency_past_the_feature_rows_raises(self, shape):
        h = np.ones((3, 4, 2))
        p = init_gin_params(SplitMix64(1), 2, 3, 2)
        for entered in (False, True):
            with workspace(entered) as ws:
                with pytest.raises(ValueError):
                    gin_forward(h, np.ones(shape), p, ws)
