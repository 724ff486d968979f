from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperexpand.oracle as oracle
from hyperexpand.construct import GeneratorConfig, k_regular_bipartite
from hyperexpand.graphs import (
    build_graph,
    circular_ladder_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    petersen_graph,
)
from hyperexpand.oracle import (
    MAX_ORACLE_N,
    STATUS_KNOWN,
    STATUS_PASS,
    STATUS_UNEXPECTED,
    OracleDomainError,
    edge_expansion,
    verify_bounds,
    vertex_expansion,
)
from hyperexpand.rng import SplitMix64
from hyperexpand.serialize import dumps_canonical
from hyperexpand.spectral import NotRegularError, expander_constant_lower_bound

GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_golden.json"


def gray_code_expansion(g, mode):
    """Independent reference: walk subsets in Gray-code order, maintaining
    the boundary incrementally, and keep the best (ratio, size, subset) key.

    Deliberately shares no code with the table-based oracle.
    """
    n = g.n
    adj = [sorted(nbrs) for nbrs in g.adjacency]
    in_a = [False] * n
    nbr_in = [0] * n  # neighbours currently inside A
    subset: set[int] = set()
    size = 0
    vert_boundary = 0  # |N(A) \ A|
    cut = 0  # edges between A and its complement
    best = None
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        if in_a[v]:
            in_a[v] = False
            subset.discard(v)
            size -= 1
            for u in adj[v]:
                nbr_in[u] -= 1
                if not in_a[u] and nbr_in[u] == 0:
                    vert_boundary -= 1
                cut += 1 if in_a[u] else -1
            if nbr_in[v] > 0:
                vert_boundary += 1
        else:
            in_a[v] = True
            subset.add(v)
            size += 1
            if nbr_in[v] > 0:
                vert_boundary -= 1
            for u in adj[v]:
                nbr_in[u] += 1
                if not in_a[u] and nbr_in[u] == 1:
                    vert_boundary += 1
                cut += -1 if in_a[u] else 1
        if 1 <= size <= n // 2:
            value = vert_boundary if mode == "vertex" else cut
            key = (Fraction(value, size), size, tuple(sorted(subset)))
            if best is None or key < best:
                best = key
    return best


def random_graph(seed):
    rng = SplitMix64(seed)
    n = 4 + rng.next_below(7)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.next_unit() < 0.4
    ]
    return build_graph(n, edges)


def generalized_petersen(m, s):
    """GP(m, s): outer m-cycle, spokes, inner star polygon {m/s}."""
    edges = []
    for i in range(m):
        edges += [(i, (i + 1) % m), (i, m + i), (m + i, m + (i + s) % m)]
    return build_graph(2 * m, edges)


def assert_matches_gray_code(g, mode, label=""):
    fn = vertex_expansion if mode == "vertex" else edge_expansion
    ratio, size, subset = gray_code_expansion(g, mode)
    w = fn(g)
    assert (w.fraction(), len(w.subset), w.subset) == (ratio, size, subset), label


class TestAgainstGrayCodeReference:
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_fifty_random_graphs(self, mode):
        fn = vertex_expansion if mode == "vertex" else edge_expansion
        for seed in range(50):
            g = random_graph(seed)
            ratio, size, subset = gray_code_expansion(g, mode)
            w = fn(g)
            assert w.fraction() == ratio, f"seed {seed}"
            assert len(w.subset) == size, f"seed {seed}"
            assert w.subset == subset, f"seed {seed}"


class TestChunkedScan:
    """Masks are scanned in chunks split by high bits; neither the witnesses
    nor the worst margin may depend on the chunk width."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_fifty_random_graphs_many_chunks(self, mode, width, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK_BITS", width)
        for seed in range(50):
            assert_matches_gray_code(random_graph(seed), mode, f"seed {seed}")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_graphs_any_width(self, data):
        n = data.draw(st.integers(2, 10), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # sparse draws are often disconnected, where the ratio is 0
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
        width = data.draw(st.integers(1, n), label="width")
        g = build_graph(n, edges)
        with mock.patch.object(oracle, "_CHUNK_BITS", width):
            for mode in ("vertex", "edge"):
                assert_matches_gray_code(g, mode)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_verify_report_independent_of_width(self, width, monkeypatch):
        graphs = [
            complete_bipartite_graph(3),
            petersen_graph(),
            circular_ladder_graph(5),
            k_regular_bipartite(GeneratorConfig(n=5, k=3, seed=1)).to_graph(),
        ]
        want = [verify_bounds(g).to_dict() for g in graphs]
        monkeypatch.setattr(oracle, "_CHUNK_BITS", width)
        assert [verify_bounds(g).to_dict() for g in graphs] == want

    @pytest.mark.parametrize("which", ["bipartite-18", "disconnected-17"])
    def test_default_width_several_chunks(self, which):
        if which == "bipartite-18":
            g = k_regular_bipartite(GeneratorConfig(n=9, k=3, seed=0)).to_graph()
        else:
            g = disjoint_union(petersen_graph(), cycle_graph(7))
        assert g.n > oracle._CHUNK_BITS
        for mode in ("vertex", "edge"):
            assert_matches_gray_code(g, mode)


class TestGoldenVerify:
    """verify_bounds on the 20-24-vertex corpus, pinned byte for byte."""

    @pytest.mark.parametrize("m,s", [(10, 2), (10, 3), (11, 1), (11, 2), (12, 5)])
    def test_report(self, m, s):
        want = json.loads(GOLDEN_VERIFY.read_text())[f"GP({m},{s})"]
        got = verify_bounds(generalized_petersen(m, s)).to_dict()
        assert dumps_canonical(got) == dumps_canonical(want)

    def test_memory_bounded(self):
        g = generalized_petersen(11, 1)
        tracemalloc.start()
        try:
            verify_bounds(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestKnownWitnesses:
    def test_c4_vertex(self):
        w = vertex_expansion(cycle_graph(4))
        assert w.ratio == 1.0
        assert w.subset == (0, 1)
        assert w.boundary_size == 2

    def test_k33_vertex(self, k33):
        w = vertex_expansion(k33)
        assert w.ratio == 1.0
        assert w.subset == (0, 1, 2)
        assert w.boundary_size == 3

    def test_c8_vertex(self, c8):
        w = vertex_expansion(c8)
        assert w.ratio == 0.5
        assert (w.numerator, w.denominator) == (1, 2)
        assert w.subset == (0, 1, 2, 3)
        assert w.boundary_size == 2

    def test_c4_edge(self):
        w = edge_expansion(cycle_graph(4))
        assert w.ratio == 1.0
        assert w.subset == (0, 1)
        assert w.boundary_size == 2

    def test_k33_edge(self, k33):
        w = edge_expansion(k33)
        assert w.fraction() == Fraction(5, 3)
        assert (w.numerator, w.denominator) == (5, 3)
        assert len(w.subset) == 3
        assert w.boundary_size == 5

    def test_c8_edge(self, c8):
        w = edge_expansion(c8)
        assert w.ratio == 0.5
        assert w.subset == (0, 1, 2, 3)
        assert w.boundary_size == 2

    def test_witness_modes_and_dict(self, c6):
        v, e = vertex_expansion(c6), edge_expansion(c6)
        assert v.mode == "vertex" and e.mode == "edge"
        d = v.to_dict()
        assert d["subset"] == list(v.subset)
        assert d["ratio"] == v.ratio

    def test_disconnected_ratio_zero(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(4))
        for fn in (vertex_expansion, edge_expansion):
            w = fn(g)
            assert w.ratio == 0.0
            assert w.boundary_size == 0
            assert w.subset == (0, 1, 2, 3)

    def test_determinism(self, petersen):
        a = vertex_expansion(petersen)
        b = vertex_expansion(petersen)
        assert a == b


class TestInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_witness_size_admissible(self, seed):
        g = random_graph(seed)
        for fn in (vertex_expansion, edge_expansion):
            w = fn(g)
            assert 1 <= len(w.subset) <= g.n // 2

    @pytest.mark.parametrize("seed", range(12))
    def test_monotone_sanity(self, seed):
        # growing the witness by one vertex (while still admissible) can
        # never beat the reported minimum
        g = random_graph(seed)
        w = vertex_expansion(g)
        base = set(w.subset)
        if len(base) + 1 > g.n // 2:
            return
        for v in range(g.n):
            if v in base:
                continue
            grown = base | {v}
            nbrs = set()
            for u in grown:
                nbrs.update(g.adjacency[u])
            ratio = Fraction(len(nbrs - grown), len(grown))
            assert ratio >= w.fraction()

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 2), (8, 3), (10, 4)])
    def test_generated_expanders_within_dodziuk(self, n, k):
        for seed in (0, 1, 2):
            b = k_regular_bipartite(GeneratorConfig(n=n, k=k, seed=seed))
            report = verify_bounds(b.to_graph())
            assert report.check("dodziuk_interval").status == STATUS_PASS
            assert report.check("chung_diameter").status == STATUS_PASS
            assert not report.has_unexpected()


class TestDomainErrors:
    def test_empty_graph(self):
        with pytest.raises(OracleDomainError, match="empty"):
            vertex_expansion(build_graph(0, []))

    def test_single_vertex(self):
        with pytest.raises(OracleDomainError, match="n >= 2"):
            edge_expansion(build_graph(1, []))

    def test_too_large(self):
        g = cycle_graph(MAX_ORACLE_N + 1)
        with pytest.raises(OracleDomainError, match="capped"):
            vertex_expansion(g)

    def test_cap_is_inclusive(self):
        w = vertex_expansion(cycle_graph(MAX_ORACLE_N))
        assert w.fraction() == Fraction(2, 12)


class TestVerifyBounds:
    def test_k33_report(self, k33):
        rep = verify_bounds(k33)
        assert (rep.n, rep.k, rep.is_bipartite) == (6, 3, True)
        assert rep.diameter == 2
        assert rep.check("chung_diameter").status == STATUS_PASS
        assert rep.check("chung_diameter").bound == 2.0
        assert rep.check("dodziuk_interval").status == STATUS_PASS
        # one full side: vertex ratio 1 against a spectral bound of 1.5
        assert rep.vertex.ratio == 1.0
        assert expander_constant_lower_bound(rep.k, rep.lambda_2) == pytest.approx(1.5)
        eq4 = rep.check("spectral_vertex_expansion")
        assert eq4.status == STATUS_KNOWN
        assert eq4.detail["worst_margin"] == pytest.approx(-0.5)
        assert not rep.has_unexpected()

    def test_c6_all_pass(self, c6):
        rep = verify_bounds(c6)
        assert {c.status for c in rep.checks} == {STATUS_PASS}

    def test_petersen(self, petersen):
        rep = verify_bounds(petersen)
        assert rep.check("chung_diameter").status == STATUS_PASS
        assert rep.check("dodziuk_interval").status == STATUS_PASS
        assert rep.edge.ratio == 1.0
        assert rep.diameter == 2
        # the vertex-boundary reading of the spectral inequality fails here
        # too: {0, 2, 3, 5} has four outside neighbours, below 2 * 6/10
        eq4 = rep.check("spectral_vertex_expansion")
        assert eq4.status == STATUS_UNEXPECTED
        assert eq4.detail["worst_subset"] == [0, 2, 3, 5]
        assert eq4.detail["worst_margin"] == pytest.approx(-0.2)

    def test_report_dict(self, k33):
        d = verify_bounds(k33).to_dict()
        assert d["vertex_expansion"]["ratio"] == 1.0
        assert [c["name"] for c in d["checks"]] == [
            "chung_diameter",
            "dodziuk_interval",
            "spectral_vertex_expansion",
        ]

    def test_requires_regular(self):
        with pytest.raises(NotRegularError):
            verify_bounds(build_graph(3, [(0, 1)]))

    def test_requires_connected(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        with pytest.raises(ValueError, match="connected"):
            verify_bounds(g)

    def test_requires_small(self):
        with pytest.raises(OracleDomainError):
            verify_bounds(cycle_graph(30))

    def test_unknown_check_name(self, c6):
        with pytest.raises(KeyError):
            verify_bounds(c6).check("nope")
