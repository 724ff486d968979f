from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperexpand import spectral
from hyperexpand.construct import GeneratorConfig, k_regular_bipartite, ramanujan_bipartite
from hyperexpand.graphs import (
    BipartiteExpander,
    Graph,
    bipartition,
    build_graph,
    circular_ladder_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    make_bipartite_expander,
    path_graph,
    petersen_graph,
)
from hyperexpand.oracle import verify_bounds
from hyperexpand.serialize import dumps_canonical
from hyperexpand.spectral import (
    MAX_DENSE_N,
    MAX_JACOBI_N,
    EigensolverError,
    NotRegularError,
    adjacency_eigenvalues,
    alon_boppana_reference,
    analyze,
    chung_diameter_bound,
    dodziuk_bounds,
    expander_constant_lower_bound,
    jacobi_eigenvalues,
)
from hyperexpand.spectral import _side_block

from helpers import (
    disjoint_matchings,
    disjoint_union,
    generalized_petersen,
    jacobi_by_slices,
    outcome,
    side_block_by_loop,
    tuple_graph_by_loop,
)

TOL = 1e-8


def cycle_spectrum(n):
    return sorted((2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)), reverse=True)


def assert_multiset_close(got, want, tol=TOL):
    got, want = sorted(got), sorted(want)
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= tol


class TestEigensolvers:
    @pytest.mark.parametrize("n", [4, 5, 8, 12, 31, 64])
    def test_cycle_spectra_lapack(self, n):
        assert_multiset_close(adjacency_eigenvalues(cycle_graph(n)), cycle_spectrum(n))

    @pytest.mark.parametrize("n", [4, 7, 16])
    def test_cycle_spectra_jacobi(self, n):
        eigs = adjacency_eigenvalues(cycle_graph(n), method="jacobi")
        assert_multiset_close(eigs, cycle_spectrum(n))

    def test_petersen_spectrum(self):
        want = [3.0] + [1.0] * 5 + [-2.0] * 4
        assert_multiset_close(adjacency_eigenvalues(petersen_graph()), want)
        assert_multiset_close(adjacency_eigenvalues(petersen_graph(), method="jacobi"), want)

    def test_complete_bipartite_spectrum(self):
        for m in (2, 3, 5):
            want = [float(m)] + [0.0] * (2 * m - 2) + [float(-m)]
            assert_multiset_close(adjacency_eigenvalues(complete_bipartite_graph(m)), want)

    def test_jacobi_agrees_with_lapack_on_k4(self):
        g = complete_graph(4)
        assert_multiset_close(
            adjacency_eigenvalues(g, method="jacobi"),
            adjacency_eigenvalues(g, method="lapack"),
        )

    def test_jacobi_on_diagonal_matrix(self):
        d = np.diag([3.0, -1.0, 2.0])
        assert_multiset_close(jacobi_eigenvalues(d, TOL), [3.0, 2.0, -1.0])

    def test_jacobi_two_by_two_analytic(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert_multiset_close(jacobi_eigenvalues(m, TOL), [3.0, 1.0])

    def test_jacobi_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL)

    def test_nonconvergence_raises_with_residual(self):
        g = cycle_graph(12)
        with pytest.raises(EigensolverError) as err:
            jacobi_eigenvalues(g.adjacency_matrix(), TOL, max_sweeps=1)
        residual = err.value.residual
        assert residual >= TOL
        assert str(err.value) == (
            f"Jacobi sweeps exhausted (1), off-diagonal norm {residual:.3e} >= tolerance {TOL:.3e}"
        )

    def test_trace_is_zero(self):
        for g in (cycle_graph(9), petersen_graph(), complete_bipartite_graph(4)):
            assert abs(sum(adjacency_eigenvalues(g))) <= g.n * TOL

    def test_single_vertex(self):
        assert adjacency_eigenvalues(build_graph(1, [])).tolist() == [0.0]


def assert_matches_full_eigvalsh(g):
    """The LAPACK route against a test-time eigvalsh of the full matrix."""
    eigs = adjacency_eigenvalues(g)
    assert_multiset_close(eigs, np.linalg.eigvalsh(g.adjacency_matrix()), tol=1e-10)
    assert eigs.tolist() == sorted(eigs.tolist(), reverse=True)
    assert not np.signbit(eigs[eigs == 0.0]).any()


@st.composite
def bipartite_graphs(draw):
    """Random edge subsets of L x R with |L| != |R| and shuffled vertex ids."""
    n_left = draw(st.integers(1, 7))
    n_right = draw(st.integers(1, 7).filter(lambda r: r != n_left))
    label = draw(st.permutations(range(n_left + n_right)))
    pairs = [(l, n_left + r) for l in range(n_left) for r in range(n_right)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(label[u], label[v]) for (u, v), kept in zip(pairs, keep) if kept]
    return build_graph(n_left + n_right, edges)


class TestBipartiteRoute:
    """Bipartite input: the singular values of the biadjacency block."""

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(4),
            build_graph(4, [(0, 1), (0, 2), (0, 3)]),
            path_graph(5),
            build_graph(5, [(i, 2 + j) for i in range(2) for j in range(3)]),
            disjoint_union(cycle_graph(6), build_graph(1, [])),
            build_graph(1, []),
        ],
        ids=["C4", "K1,3", "P5", "K2,3", "C6+K1", "n1"],
    )
    def test_small_graphs_match_eigvalsh(self, g):
        assert_matches_full_eigvalsh(g)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [64, 256])
    def test_expanders_match_eigvalsh(self, n, k):
        expander = k_regular_bipartite(GeneratorConfig(n=n, k=k, seed=n + k))
        assert_matches_full_eigvalsh(expander.to_graph())

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_random_unequal_sides_match_eigvalsh(self, g):
        assert_matches_full_eigvalsh(g)

    def test_full_matrix_never_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("bipartite route built the n x n matrix")

        monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
        assert_multiset_close(adjacency_eigenvalues(cycle_graph(8)), cycle_spectrum(8))

    @pytest.mark.parametrize("n", [5, 9])
    def test_odd_cycles_take_eigvalsh(self, n, monkeypatch):
        def refuse(b):
            raise AssertionError("non-bipartite input reached the SVD route")

        monkeypatch.setattr(np.linalg, "svdvals", refuse)
        assert_multiset_close(adjacency_eigenvalues(cycle_graph(n)), cycle_spectrum(n))


    @pytest.mark.parametrize("g", [cycle_graph(8), petersen_graph()], ids=["C8", "Petersen"])
    def test_analyze_two_colours_once(self, g, monkeypatch):
        import hyperexpand.spectral as spectral

        calls = []
        real = spectral.components
        monkeypatch.setattr(spectral, "components", lambda h: calls.append(h) or real(h))
        report = analyze(g)
        assert calls == [g]
        assert report.is_bipartite is (real(g)[2] is not None)
        assert report.eigenvalues == tuple(adjacency_eigenvalues(g).tolist())


class TestExpanderRoute:
    """An expander goes to the spectral routes as it is: the block comes
    from its matchings, in the orientation its derived graph's block has."""

    @settings(max_examples=200, deadline=None)
    @given(disjoint_matchings())
    def test_analyze_equals_derived_graph(self, case):
        n, ms = case
        b = make_bipartite_expander(n, n, len(ms), ms)
        for method in ("auto", "jacobi"):
            # Jacobi may put lambda_2 of a disconnected draw just above k,
            # which analyze refuses; the two inputs must then fail alike.
            got, want = (outcome(lambda h: dumps_canonical(analyze(h, method=method).to_dict()), h)
                         for h in (b, b.to_graph()))
            assert got == want

    @pytest.mark.parametrize("n,k", [(64, 3), (128, 4), (300, 5)])
    def test_block_is_the_derived_graphs(self, n, k):
        b = k_regular_bipartite(GeneratorConfig(n=n, k=k, seed=n))
        g = b.to_graph()
        assert np.array_equal(b.biadjacency().T, _side_block(g, bipartition(g)))
        assert adjacency_eigenvalues(b).tobytes() == adjacency_eigenvalues(g).tobytes()

    def test_ramanujan_builds_no_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("derived graph built")

        want = ramanujan_bipartite(GeneratorConfig(n=32, k=3, seed=5))
        monkeypatch.setattr(BipartiteExpander, "to_graph", refuse)
        monkeypatch.setattr("hyperexpand.spectral.components", refuse)
        assert ramanujan_bipartite(GeneratorConfig(n=32, k=3, seed=5)) == want

    def test_expander_has_derived_vertex_count(self):
        assert make_bipartite_expander(3, 3, 2, [[0, 1, 2], [1, 2, 0]]).n == 6


class TestSideBlock:
    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs())
    def test_matches_loop(self, g):
        side = bipartition(g)
        t = tuple_graph_by_loop(g.n, g.edge_array().tolist())
        assert np.array_equal(_side_block(g, side), side_block_by_loop(t, side))


class TestDenseCap:
    def test_cap_covers_benchmark_sizes(self):
        assert MAX_DENSE_N >= 8192

    @pytest.mark.parametrize("method", ["auto", "lapack", "jacobi"])
    def test_above_cap_rejected_before_allocation(self, method, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built above the cap")

        monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
        g = build_graph(MAX_DENSE_N + 1, [])
        with pytest.raises(ValueError, match=f"n={MAX_DENSE_N + 1}.*{MAX_DENSE_N}"):
            adjacency_eigenvalues(g, method=method)
        with pytest.raises(ValueError, match="MAX_DENSE_N"):
            analyze(g, method=method)

    def test_analyze_refuses_before_two_colouring(self, monkeypatch):
        def refuse(g):
            raise AssertionError("two-coloured a graph above the cap")

        monkeypatch.setattr(spectral, "components", refuse)
        with pytest.raises(ValueError, match=f"n={MAX_DENSE_N + 1}.*MAX_DENSE_N={MAX_DENSE_N}"):
            analyze(cycle_graph(MAX_DENSE_N + 1))


class TestJacobiCap:
    def test_cap_covers_verify_sizes(self):
        assert 24 < MAX_JACOBI_N < MAX_DENSE_N

    def test_above_cap_rejected_before_allocation(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built above the Jacobi cap")

        monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
        g = build_graph(MAX_JACOBI_N + 1, [])
        with pytest.raises(ValueError, match=f"n={MAX_JACOBI_N + 1}.*MAX_JACOBI_N={MAX_JACOBI_N}"):
            adjacency_eigenvalues(g, method="jacobi")
        with pytest.raises(ValueError, match="MAX_JACOBI_N"):
            analyze(g, method="jacobi")

    def test_lapack_route_not_capped_there(self):
        assert analyze(cycle_graph(2 * MAX_JACOBI_N + 2)).k == 2


class TestJacobiSweepBudget:
    """The residual is checked once more after the last allowed sweep."""

    def test_two_by_two_converges_in_its_one_sweep(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        got = jacobi_eigenvalues(m, TOL, max_sweeps=1)
        assert got.tolist() == pytest.approx([3.0, 1.0], abs=TOL)
        assert got.tobytes() == jacobi_eigenvalues(m, TOL).tobytes()

    def test_diagonal_needs_no_sweep(self):
        assert jacobi_eigenvalues(np.diag([1.0, 3.0]), TOL, max_sweeps=0).tolist() == [3.0, 1.0]


def jacobi_outcome(fn, matrix, max_sweeps):
    """The eigenvalue bytes, or the message and residual bytes of the
    EigensolverError raised; max_sweeps None means the default budget."""
    kwargs = {} if max_sweeps is None else {"max_sweeps": max_sweeps}
    try:
        return fn(matrix, TOL, **kwargs).tobytes()
    except EigensolverError as e:
        return str(e), np.float64(e.residual).tobytes()


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n matrices, n in 1..12, entries +-0.0, small integers
    and floats at scales 1e-3 to 1e3."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.integers(-3, 3).map(float),
        st.builds(
            lambda x, scale: x * scale,
            st.floats(-1.0, 1.0),
            st.sampled_from([1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3]),
        ),
    )
    a = np.zeros((n, n))
    for p in range(n):
        for q in range(p, n):
            a[p, q] = a[q, p] = draw(entry)
    return a


class TestJacobiRotationBits:
    """The in-place ufunc rotation gives the whole-row expressions' bytes."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_matrices(), st.one_of(st.integers(0, 4), st.none()))
    def test_random_symmetric(self, a, max_sweeps):
        assert jacobi_outcome(jacobi_eigenvalues, a, max_sweeps) == jacobi_outcome(
            jacobi_by_slices, a, max_sweeps
        )

    @pytest.mark.parametrize("m,s", [(10, 2), (10, 3), (11, 1), (11, 2), (12, 5)])
    def test_oracle_corpus(self, m, s):
        a = generalized_petersen(m, s).adjacency_matrix()
        assert jacobi_eigenvalues(a, TOL).tobytes() == jacobi_by_slices(a, TOL).tobytes()

    @pytest.mark.parametrize("n", [64, 128])
    def test_random_regular(self, n):
        g = k_regular_bipartite(GeneratorConfig(n=n // 2, k=3, seed=n)).to_graph()
        a = g.adjacency_matrix()
        assert jacobi_eigenvalues(a, TOL).tobytes() == jacobi_by_slices(a, TOL).tobytes()

    @pytest.mark.parametrize("tolerance", [TOL, 1e-16])
    @pytest.mark.parametrize("g", [cycle_graph(4), petersen_graph()], ids=["C4", "Petersen"])
    def test_below_rounding(self, g, tolerance):
        # at 1e-16 both stop on the n * eps * ||A|| floor, not the tolerance
        a = g.adjacency_matrix()
        assert jacobi_eigenvalues(a, tolerance).tobytes() == jacobi_by_slices(a, tolerance).tobytes()


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 2.0, math.nan, math.inf])
    def test_rejected_at_every_boundary(self, tol, k33):
        with pytest.raises(ValueError, match="tolerance"):
            analyze(k33, tolerance=tol)
        with pytest.raises(ValueError, match="tolerance"):
            verify_bounds(k33, tolerance=tol)
        with pytest.raises(ValueError, match="tolerance"):
            GeneratorConfig(n=4, k=2, tolerance=tol)


class TestRamanujan:
    """The verdict analyze reports as SpectralReport.ramanujan."""

    def test_c4_true(self):
        assert analyze(cycle_graph(4)).ramanujan is True

    def test_k33_true(self, k33):
        assert analyze(k33).ramanujan is True

    def test_circular_ladder_16_false(self):
        rep = analyze(circular_ladder_graph(16))
        assert rep.ramanujan is False
        assert rep.lambda_nontrivial == pytest.approx(2 * math.cos(2 * math.pi / 16) + 1, abs=TOL)

    def test_disconnected_absent(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        assert analyze(g).ramanujan is None

    def test_non_regular_raises(self):
        with pytest.raises(NotRegularError):
            analyze(build_graph(3, [(0, 1)]))


class TestBoundFormulas:
    def test_chung_lambda_zero_collapses_to_alpha(self):
        assert chung_diameter_bound(6, 3, 0.0, bipartite=True) == 2.0
        assert chung_diameter_bound(9, 8, 0.0, bipartite=False) == 1.0

    def test_chung_c6_value(self):
        want = 2 + math.log(6) / math.log(2 + math.sqrt(3))
        assert chung_diameter_bound(6, 2, 1.0, bipartite=True) == pytest.approx(want)
        assert want == pytest.approx(3.3605, abs=5e-5)

    def test_chung_petersen_value(self):
        want = 1 + math.log(20) / math.log((3 + math.sqrt(5)) / 2)
        assert chung_diameter_bound(10, 3, 2.0, bipartite=False) == pytest.approx(want)
        assert want == pytest.approx(4.1127, abs=5e-5)

    def test_chung_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            chung_diameter_bound(6, 2, 2.0, bipartite=False)
        with pytest.raises(ValueError):
            chung_diameter_bound(6, 2, -0.1, bipartite=False)

    def test_alon_boppana(self):
        assert alon_boppana_reference(2) == 2.0
        assert alon_boppana_reference(3) == pytest.approx(2.8284271, abs=1e-7)
        assert alon_boppana_reference(5) == 4.0

    def test_expander_constant(self):
        assert expander_constant_lower_bound(3, 0.0) == 1.5
        assert expander_constant_lower_bound(2, 2.0) == 0.0
        assert expander_constant_lower_bound(3, 1.0) == 1.0

    def test_dodziuk(self):
        lo, hi = dodziuk_bounds(3, 0.0)
        assert (lo, hi) == (1.5, pytest.approx(math.sqrt(18)))
        assert dodziuk_bounds(2, 0.0) == (1.0, pytest.approx(math.sqrt(8)))
        assert dodziuk_bounds(3, 3.0) == (0.0, 0.0)


class TestAnalyze:
    def test_k33_report(self, k33):
        rep = analyze(k33)
        assert rep.k == 3
        assert rep.is_bipartite and rep.is_connected
        assert rep.ramanujan is True
        assert rep.chung_bound == 2.0
        assert rep.expander_constant_lb == pytest.approx(1.5)
        assert rep.lambda_nontrivial == pytest.approx(0.0, abs=TOL)
        # bipartite regular: lambda_n = -k
        assert rep.eigenvalues[-1] == pytest.approx(-3.0, abs=TOL)
        assert rep.eigenvalues[0] == pytest.approx(3.0, abs=TOL)

    def test_report_dict_key_order(self, k33):
        d = analyze(k33).to_dict()
        assert list(d)[:4] == ["eigenvalues", "k", "lambda_nontrivial", "lambda_2"]

    def test_disconnected_union(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        rep = analyze(g)
        assert rep.is_connected is False
        assert rep.ramanujan is None
        assert rep.chung_bound is None

    def test_multiplicity_counts_components(self):
        for parts in (2, 3):
            g = disjoint_union(*[cycle_graph(5)] * parts)
            eigs = adjacency_eigenvalues(g)
            near_k = sum(1 for e in eigs if e >= 2 - 2 * TOL)
            assert near_k == parts
            assert analyze(g).is_connected is False

    def test_non_regular_raises(self):
        with pytest.raises(NotRegularError):
            analyze(build_graph(3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("derived", [False, True])
    def test_jacobi_lambda_2_a_few_ulps_above_k(self, derived):
        # two 10-cycles: Jacobi gives the second eigenvalue 2 as 2.000000000000005
        b = make_bipartite_expander(10, 10, 2, [range(10), [(i + 2) % 10 for i in range(10)]])
        g = b.to_graph() if derived else b
        jac, lap = analyze(g, method="jacobi"), analyze(g, method="lapack")
        assert jac.eigenvalues[1] > 2.0
        assert jac.is_connected is lap.is_connected is False
        assert jac.lambda_2 == 2.0 and abs(jac.lambda_2 - lap.lambda_2) <= TOL
        assert abs(jac.expander_constant_lb - lap.expander_constant_lb) <= TOL

    def test_lambda_2_further_above_k_raises(self, monkeypatch):
        eigs = np.array([2.0, 2.0 + 3 * TOL, 1.0, -1.0, -1.0, -2.0])  # slack is 2 * TOL at k=2
        monkeypatch.setattr(spectral, "adjacency_eigenvalues", lambda *args, **kwargs: eigs)
        with pytest.raises(EigensolverError) as err:
            analyze(cycle_graph(6))
        assert str(err.value) == (
            "spectrum contradicts the structure (components=1, bipartite=1, k=2): "
            "an eigenvalue is 3.000e-08 off, above the slack 2.000e-08"
        )
        assert err.value.residual == pytest.approx(3 * TOL)

    @pytest.mark.parametrize(
        "g,want",
        [(complete_bipartite_graph(3), 0.0), (cycle_graph(6), 1.0), (build_graph(2, [(0, 1)]), None)],
        ids=["K3,3", "C6", "K2"],
    )
    def test_lambda_nontrivial(self, g, want):
        lam = analyze(g).lambda_nontrivial
        assert lam is None if want is None else lam == pytest.approx(want, abs=TOL)

    def test_tolerance_below_rounding(self):
        # The trivial eigenvalue 3 comes out 2.9999999999999982; the slack
        # never falls below n * eps, so 1e-16 reads the spectrum as 1e-8 does.
        b = k_regular_bipartite(GeneratorConfig(n=1024, k=3, seed=3))
        sub, ref = analyze(b, tolerance=1e-16), analyze(b, tolerance=1e-8)
        assert sub.is_connected is True and sub.ramanujan is True
        assert sub.lambda_nontrivial == ref.lambda_nontrivial

    def test_dodziuk_interval_ordered(self):
        for g in (cycle_graph(7), petersen_graph(), circular_ladder_graph(6)):
            rep = analyze(g)
            assert rep.dodziuk_lower <= rep.dodziuk_upper

    def test_jacobi_and_lapack_reports_agree(self, c6):
        a = analyze(c6, method="lapack")
        b = analyze(c6, method="jacobi")
        assert a.lambda_nontrivial == pytest.approx(b.lambda_nontrivial, abs=1e-7)
        assert a.ramanujan == b.ramanujan


@st.composite
def regular_unions(draw):
    """(k, g): one to three random k-regular graphs side by side, with
    vertex ids shuffled. Matching unions and bipartite circulants or
    generalized Petersen graphs mix with complete graphs, odd circulants
    and the rest, so a union may hold bipartite and other components."""
    k = draw(st.integers(1, 4))
    kinds = ["matchings", "complete"] + ["circulant"] * (k % 2 == 0) + ["petersen"] * (k == 3)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "matchings":  # may itself be disconnected
            n = draw(st.integers(k, 6))
            sigma = draw(st.permutations(range(n)))
            shifts = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
            rows = [[sigma[(l + s) % n] for l in range(n)] for s in shifts]
            parts.append(make_bipartite_expander(n, n, k, rows).to_graph())
        elif kind == "complete":
            parts.append(complete_graph(k + 1))
        elif kind == "circulant":  # bipartite iff n is even and every jump odd
            n = draw(st.integers(k + 1, 10))
            jumps = draw(st.lists(st.integers(1, (n - 1) // 2), min_size=k // 2, max_size=k // 2, unique=True))
            parts.append(build_graph(n, [(i, (i + j) % n) for i in range(n) for j in jumps]))
        else:
            m = draw(st.integers(3, 8))
            parts.append(generalized_petersen(m, draw(st.integers(1, (m - 1) // 2))))
    union = disjoint_union(*parts)
    label = draw(st.permutations(range(union.n)))
    return k, build_graph(union.n, [(label[u], label[v]) for u, v in union.edge_array().tolist()])


def lambda_by_components(g: Graph) -> float | None:
    """Largest |lambda| left once one k, and one -k per bipartite
    component, is removed from each component's own spectrum."""
    nxg = nx.Graph(g.edge_array().tolist())
    rest = []
    for part in nx.connected_components(nxg):
        sub = nxg.subgraph(part)
        eigs = np.linalg.eigvalsh(nx.to_numpy_array(sub))  # ascending
        rest += eigs[1 if nx.is_bipartite(sub) else 0 : -1].tolist()
    return max(map(abs, rest)) if rest else None


class TestStructureFromGraph:
    """Connectivity and bipartiteness are read from the graph at every
    tolerance, and the trivial eigenvalues removed by position."""

    @settings(max_examples=150, deadline=None)
    @given(regular_unions(), st.floats(1e-6, 16.0), st.sampled_from(["lapack", "jacobi"]))
    def test_facts_and_lambda_at_any_tolerance(self, case, exponent, method):
        k, g = case
        tolerance = 10.0 ** -exponent
        rep = analyze(g, tolerance=tolerance, method=method)
        assert rep.k == k
        assert rep.is_connected is is_connected(g)
        assert rep.is_bipartite is (bipartition(g) is not None)
        want = lambda_by_components(g)
        if want is None:
            assert rep.lambda_nontrivial is None
        else:
            # Jacobi stops at an off-diagonal norm below the tolerance
            # (or its rounding floor), which bounds each eigenvalue's
            # error (Weyl).
            err = 1e-9 + (tolerance if method == "jacobi" else 0.0)
            assert rep.lambda_nontrivial == pytest.approx(want, abs=err)

    @pytest.mark.parametrize("g", [cycle_graph(4), petersen_graph()], ids=["C4", "Petersen"])
    def test_jacobi_below_rounding_agrees_with_lapack(self, g):
        # the off-diagonal norm stalls near 3e-16 (C4) and 9e-16 (Petersen)
        jacobi = analyze(g, tolerance=1e-16, method="jacobi").to_dict()
        lapack = analyze(g, tolerance=1e-16, method="lapack").to_dict()
        assert jacobi.pop("eigenvalues") == pytest.approx(lapack.pop("eigenvalues"), abs=1e-14)
        assert jacobi == pytest.approx(lapack, abs=1e-14)
