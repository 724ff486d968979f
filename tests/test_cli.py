from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from hyperexpand.cli import EXIT_BUDGET, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, entry
from hyperexpand.construct import GeneratorConfig, k_regular_bipartite
from hyperexpand.gnn.training import MAX_TRAIN_BYTES
from hyperexpand.graphs import (
    MAX_VERTICES,
    circular_ladder_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    build_graph,
)
from hyperexpand.rewire import augment, rewired_from_dict
from hyperexpand.serialize import (
    bipartite_from_dict,
    dumps_canonical,
    graph_to_dict,
    load_graph_file,
)
from hyperexpand.spectral import MAX_DENSE_N, MAX_JACOBI_N

from helpers import child_env, disjoint_union


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(dumps_canonical(graph_to_dict(g)) + "\n")
    return str(path)


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Fail the test if any command reaches an eigensolve."""

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr("hyperexpand.spectral.adjacency_eigenvalues", refuse)


def run_module(argv, address_space=None, cpus=None):
    """Run `python -m hyperexpand argv` in a child process that finds this
    source tree; address_space caps the child's memory in bytes, and cpus
    sets the child's CPU affinity mask."""

    def cap():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        if cpus is not None:
            os.sched_setaffinity(0, cpus)

    return subprocess.run(
        [sys.executable, "-m", "hyperexpand", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=cap,
        timeout=120,
    )


def run_to_file(argv, tmp_path, name):
    out = tmp_path / name
    code = entry(argv + ["--out", str(out)])
    return code, out


class TestGenerate:
    def test_golden_n8_k3_seed7(self, tmp_path):
        code, out = run_to_file(
            ["generate", "--n", "8", "--k", "3", "--seed", "7"], tmp_path, "g.json"
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["tool_version"]
        assert payload["config"]["subcommand"] == "generate"
        assert payload["config"]["seed"] == 7
        expander = bipartite_from_dict(payload["result"]["expander"])
        want = k_regular_bipartite(GeneratorConfig(n=8, k=3, seed=7))
        assert expander == want

    def test_n3_k3_is_complete_bipartite(self, tmp_path):
        code, out = run_to_file(["generate", "--n", "3", "--k", "3"], tmp_path, "g.json")
        assert code == EXIT_OK
        expander = bipartite_from_dict(json.loads(out.read_text())["result"]["expander"])
        g = expander.to_graph()
        assert g.edge_count == 9
        assert all(d == 3 for d in g.degrees())

    def test_k_larger_than_n_exits_1(self, capsys):
        assert entry(["generate", "--n", "2", "--k", "5"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["generate", "--n", "10", "--k", "3", "--seed", "4"]
        _, a = run_to_file(argv, tmp_path, "a.json")
        _, b = run_to_file(argv, tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_edgelist_format(self, tmp_path):
        code, out = run_to_file(
            ["generate", "--n", "6", "--k", "3", "--seed", "1", "--format", "edgelist"],
            tmp_path,
            "g.edges",
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("# config: ")
        assert "# tool_version: " in text
        assert "# n=12" in text
        g = load_graph_file(out)
        assert g.n == 12
        assert all(d == 3 for d in g.degrees())

    def test_ramanujan_reports_attempts(self, tmp_path):
        code, out = run_to_file(
            ["generate", "--n", "8", "--k", "3", "--seed", "1", "--ramanujan"],
            tmp_path,
            "g.json",
        )
        assert code == EXIT_OK
        result = json.loads(out.read_text())["result"]
        assert result["attempts"] >= 1
        assert result["report"]["ramanujan"] is True

    def test_budget_exhaustion_exits_2(self, capsys):
        code = entry(
            [
                "generate",
                "--n", "2",
                "--k", "2",
                "--seed", "3",
                "--max-matching-retries", "0",
                "--require-connected", "no",
            ]
        )
        assert code == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_stdout_default(self, capsys):
        assert entry(["generate", "--n", "2", "--k", "1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["expander"]["format"] == "hyperexpand-bipartite-v1"

    def test_json_output_chains_into_other_subcommands(self, tmp_path):
        _, gen = run_to_file(["generate", "--n", "6", "--k", "3", "--seed", "2"], tmp_path, "g.json")
        code, out = run_to_file(["analyze", "--in", str(gen)], tmp_path, "a.json")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["k"] == 3
        assert entry(["verify", "--in", str(gen), "--out", str(tmp_path / "v.json")]) == EXIT_OK
        code, out = run_to_file(["rewire", "--in", str(gen), "--seed", "1"], tmp_path, "r.json")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["total_nodes"] == 24


class TestGoldenAboveBlockCut:
    """Byte goldens at n=1000, where permutations come from numpy blocks
    of SplitMix64 draws (the n=8 goldens above use the scalar loop)."""

    GOLDEN = {
        "g.json": "94fdaf2bb76525d3f555245e7cb35a27dd43949ca20f253d34e235a5c5b47c21",
        "g.edges": "f2e50934d84a57ae5406504a2e088afe3bf00eaae40277c73ac0ce61284902ac",
        "r.json": "e4927c397ec485e88a4d4d82044aefc1da246c95f3310bbef66dc328fd580759",
    }

    def test_generate_and_rewire_sha256(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # rewire records its --in path
        gen = ["generate", "--n", "1000", "--k", "3", "--seed", "7"]
        assert entry(gen + ["--out", "g.json"]) == EXIT_OK
        assert entry(gen + ["--format", "edgelist", "--out", "g.edges"]) == EXIT_OK
        assert entry(["rewire", "--in", "g.edges", "--k", "3", "--seed", "7", "--out", "r.json"]) == EXIT_OK
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.GOLDEN}
        assert got == self.GOLDEN


class TestGoldenBuildScale:
    """Byte goldens at the scale of the build benchmark: generate n=50000
    k=3 as an edge list, then rewire it (a k=3 overlay at n=10^5), with
    seeds 4 and 14 from the benchmark's build pools. The hashes were
    recorded with the line-by-line edge-list parser, the per-edge
    build_graph and the recursive JSON writer, before the array-native
    I/O replaced them."""

    GOLDEN = {
        "b.edges": "128aac2ce275dbf9c25eb3548159c8e146af4309b4ac827454222cf42b69bba0",
        "b.json": "6cd28343c15831ca584ee16e42b898fbcba87772df234adbb9257fcc3ef63c4e",
    }

    def test_generate_edgelist_and_rewire_sha256(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # rewire records its --in path
        gen = ["generate", "--n", "50000", "--k", "3", "--seed", "4", "--format", "edgelist"]
        assert entry(gen + ["--out", "b.edges"]) == EXIT_OK
        assert entry(["rewire", "--in", "b.edges", "--k", "3", "--seed", "14", "--out", "b.json"]) == EXIT_OK
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.GOLDEN}
        assert got == self.GOLDEN


class TestGoldenTrain:
    """Byte goldens of rewired train runs, recorded with the per-instance
    set-up (one make_dataset draw and one k_regular_bipartite call per
    sample) before the whole-array set-up replaced it. The files hold
    float64 losses, so the runs go to a child with one BLAS thread."""

    GOLDEN = {
        "d2-summation": "63ae2557cf6eb6b78186030cd3e6aa9b43bd9774078578eb59f1a9544587fc72",
        "d2-learned": "d4770276c4d462b621f1d3bfe58f92e062bfaeb847b2231d279ff92d1ab956a3",
        "d5-summation": "006988d7d8d149aa368ca29153b21a25360049d26bd0418c116858455662e732",
        "d5-learned": "a4799920de388e37e72df049ccae6c294fbbce0ad141cf30701a0dd4f2155dd0",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_train_sha256(self, name, tmp_path):
        depth, mode = name[1], name[3:]
        size = {"2": ["--epochs", "2", "--dataset-size", "48"], "5": ["--epochs", "1", "--dataset-size", "24"]}
        out = tmp_path / f"{name}.json"
        proc = run_module(["train", "--layers", "3", "--hidden", "8", "--seed", "6", "--depth", depth,
                           *size[depth], "--rewire", "--mode", mode, "--out", str(out)])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[name]


class TestGoldenSpectral:
    """Byte goldens of the spectral routes: generate --ramanujan at n=128
    and analyze of its output (singular values of the biadjacency block),
    analyze of the Petersen graph (a dense eigvalsh, as it is not
    bipartite) and verify of GP(10, 2) from the oracle corpus. The files
    hold float64 eigenvalues, so the commands run in a child with one
    BLAS thread."""

    GOLDEN = {
        "r.json": "da40d1acb0d8239a111f8085961be0ea3c7a79e65ecea08a129c5430200e3ad5",
        "ra.json": "e8f8e835f0f47a5068d51bef5e64ea0093ef9320c59a1b08dfdf9c8baa53f6e0",
        "pa.json": "66a9a47b57c558d849c390c1bc664ad7246ff4442e4cbf7d0e17f4ab6f059b20",
        "gv.json": "4a5e1ea61e5fef814313ddeddb311f8de0f1add097eaf4dbea6d825f74a7739e",
    }

    def test_sha256(self, tmp_path):
        petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
        petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        gp = [e for i in range(10) for e in ((i, (i + 1) % 10), (i, 10 + i), (10 + i, 10 + (i + 2) % 10))]
        for name, n, edges in (("p.edges", 10, petersen), ("gp.edges", 20, gp)):
            (tmp_path / name).write_text(f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        for argv in (
            ["generate", "--ramanujan", "--n", "128", "--k", "3", "--seed", "3", "--out", "r.json"],
            ["analyze", "--in", "r.json", "--out", "ra.json"],
            ["analyze", "--in", "p.edges", "--out", "pa.json"],
            ["verify", "--in", "gp.edges", "--out", "gv.json"],
        ):
            proc = subprocess.run([sys.executable, "-m", "hyperexpand", *argv], capture_output=True,
                                  text=True, env=child_env(), cwd=tmp_path, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.GOLDEN}
        assert got == self.GOLDEN


class TestGoldenJacobi:
    """Byte golden of analyze --method jacobi on the Nauru graph GP(12, 5),
    recorded with the whole-row rotation expressions before the in-place
    ufunc rotation replaced them."""

    GOLDEN = "e1d9bb81aae6b41ac4f3c3f3fb37ac78a40f832d938966591651b817b1ec5564"

    def test_sha256(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # analyze records its --in path
        edges = [e for i in range(12) for e in ((i, (i + 1) % 12), (i, 12 + i), (12 + i, 12 + (i + 5) % 12))]
        (tmp_path / "gp.edges").write_text("# n=24\n" + "".join(f"{u} {v}\n" for u, v in edges))
        assert entry(["analyze", "--in", "gp.edges", "--method", "jacobi", "--out", "gj.json"]) == EXIT_OK
        assert hashlib.sha256((tmp_path / "gj.json").read_bytes()).hexdigest() == self.GOLDEN


class TestAnalyze:
    def test_k33(self, tmp_path):
        path = write_graph(tmp_path, "k33.json", complete_bipartite_graph(3))
        code, out = run_to_file(["analyze", "--in", path], tmp_path, "r.json")
        assert code == EXIT_OK
        result = json.loads(out.read_text())["result"]
        assert result["ramanujan"] is True
        assert result["chung_bound"] == 2.0

    def test_circular_ladder_not_ramanujan(self, tmp_path):
        path = write_graph(tmp_path, "cl16.json", circular_ladder_graph(16))
        code, out = run_to_file(["analyze", "--in", path], tmp_path, "r.json")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["ramanujan"] is False

    def test_non_regular_exits_1(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bad.json", build_graph(3, [(0, 1)]))
        assert entry(["analyze", "--in", path]) == EXIT_USAGE
        assert "regular" in capsys.readouterr().err

    def test_edgelist_input(self, tmp_path):
        path = tmp_path / "c6.edges"
        path.write_text("\n".join(f"{i} {(i + 1) % 6}" for i in range(6)) + "\n")
        code, out = run_to_file(["analyze", "--in", str(path)], tmp_path, "r.json")
        assert code == EXIT_OK
        result = json.loads(out.read_text())["result"]
        assert result["k"] == 2

    def test_jacobi_method_flag(self, tmp_path):
        path = write_graph(tmp_path, "k33.json", complete_bipartite_graph(3))
        code, out = run_to_file(
            ["analyze", "--in", path, "--method", "jacobi"], tmp_path, "r.json"
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["config"]["method"] == "jacobi"

    def test_non_integer_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("# n=abc\n0 1\n")
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert "'n'" in capsys.readouterr().err

    def test_above_dense_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.edges"
        path.write_text(f"# n={MAX_DENSE_N + 1}\n")
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"n={MAX_DENSE_N + 1}" in err and str(MAX_DENSE_N) in err

    def test_above_jacobi_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "big.edges"
        path.write_text(f"# n={MAX_JACOBI_N + 1}\n")
        assert entry(["analyze", "--in", str(path), "--method", "jacobi"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"n={MAX_JACOBI_N + 1}" in err and str(MAX_JACOBI_N) in err

    def test_late_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "late.edges"
        path.write_text("0 1\n1 2\n2 0\n# n=5\n")
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert "'n'" in capsys.readouterr().err

    def test_spectrum_contradicting_structure_exits_3(self, tmp_path, capsys, monkeypatch):
        # C6 is connected and bipartite, so its top eigenvalue must be 2.
        eigs = np.array([1.5, 1.0, 1.0, -1.0, -1.0, -2.0])
        monkeypatch.setattr("hyperexpand.spectral.adjacency_eigenvalues", lambda *args, **kwargs: eigs)
        path = write_graph(tmp_path, "c6.json", cycle_graph(6))
        assert entry(["analyze", "--in", path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure: spectrum contradicts the structure (components=1, bipartite=1, k=2)" in err

    def test_byte_identical_rerun(self, tmp_path):
        path = write_graph(tmp_path, "k33.json", complete_bipartite_graph(3))
        _, a = run_to_file(["analyze", "--in", path], tmp_path, "a.json")
        _, b = run_to_file(["analyze", "--in", path], tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()


class TestBadTolerance:
    """Each command rejects a tolerance outside (0, 1) before any eigensolve."""

    @pytest.fixture
    def triangle(self, tmp_path):
        return write_graph(tmp_path, "k3.json", cycle_graph(3))

    def test_analyze_negative(self, triangle, capsys, no_eigensolve):
        assert entry(["analyze", "--in", triangle, "--tolerance", "-1"]) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err

    def test_analyze_nan(self, triangle, capsys, no_eigensolve):
        assert entry(["analyze", "--in", triangle, "--tolerance", "nan"]) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err

    def test_generate_ramanujan_nan(self, capsys, no_eigensolve):
        argv = ["generate", "--n", "1024", "--k", "3", "--ramanujan", "--tolerance", "nan"]
        assert entry(argv) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err

    def test_verify_one(self, tmp_path, capsys, no_eigensolve):
        path = write_graph(tmp_path, "c6.json", cycle_graph(6))
        assert entry(["verify", "--in", path, "--tolerance", "1"]) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err

    def test_rewire_inf(self, triangle, capsys, no_eigensolve):
        assert entry(["rewire", "--in", triangle, "--tolerance", "inf"]) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err


class TestVertexCountCap:
    """A declared vertex count above MAX_VERTICES exits 1 before anything is
    allocated. The child runs with 2 GiB of address space, so a missing check
    fails the test instead of exhausting the machine."""

    def test_huge_header_exits_1(self, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("# n=1000000000000\n0 1\n")
        proc = run_module(["analyze", "--in", str(path)], address_space=2 << 30)
        assert proc.returncode == EXIT_USAGE
        assert "n=1000000000000" in proc.stderr and str(MAX_VERTICES) in proc.stderr

    def test_huge_json_n_exits_1(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"format": "hyperexpand-graph-v1", "n": 10**12, "edges": []}))
        proc = run_module(["verify", "--in", str(path)], address_space=2 << 30)
        assert proc.returncode == EXIT_USAGE
        assert str(MAX_VERTICES) in proc.stderr

    def test_huge_generate_n_exits_1(self):
        proc = run_module(["generate", "--n", str(10**12), "--k", "3"], address_space=2 << 30)
        assert proc.returncode == EXIT_USAGE
        assert f"n={10**12}" in proc.stderr and str(MAX_VERTICES) in proc.stderr

    def test_limit_holds_the_largest_benchmark_graph(self):
        assert 2 * 100_000 <= MAX_VERTICES


class TestMalformedPayload:
    """Parse errors name the field; other exceptions are not usage errors."""

    def test_missing_edges_exits_1(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"format": "hyperexpand-graph-v1", "n": 3}))
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert "edges" in capsys.readouterr().err

    def test_null_n_exits_1(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"format": "hyperexpand-graph-v1", "n": None, "edges": []}))
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert "'n'" in capsys.readouterr().err

    def test_bad_matchings_exits_1(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        payload = {"format": "hyperexpand-bipartite-v1", "n_left": 2, "n_right": 2, "k": 1, "matchings": 5}
        path.write_text(json.dumps(payload))
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert "matchings" in capsys.readouterr().err

    def test_ragged_matchings_exit_1_naming_the_matching(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        payload = {"format": "hyperexpand-bipartite-v1", "n_left": 3, "n_right": 3, "k": 2,
                   "matchings": [[0, 1, 2], [1, 2]]}
        path.write_text(json.dumps(payload))
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert "matching 1 is not a permutation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"format": "hyperexpand-graph-v1", "n": 3.9, "edges": [[0, 1.7], ["2", True]]}, "'n'"),
            ({"format": "hyperexpand-graph-v1", "n": 3.0, "edges": [[0, 1]]}, "'n'"),
            ({"format": "hyperexpand-graph-v1", "n": "3", "edges": [[0, 1]]}, "'n'"),
            ({"format": "hyperexpand-graph-v1", "n": 3, "edges": [[0, 1.0]]}, "(0, 1.0) ids must be integers"),
            ({"format": "hyperexpand-graph-v1", "n": 3, "edges": [[0, 1.7]]}, "(0, 1.7) ids must be integers"),
            ({"format": "hyperexpand-graph-v1", "n": 3, "edges": [[0, "2"]]}, "(0, '2') ids must be integers"),
            ({"format": "hyperexpand-graph-v1", "n": 3, "edges": [[0, 1], [2, True]]}, "'edges'"),
            ({"format": "hyperexpand-bipartite-v1", "n_left": 2, "n_right": 2, "k": 1.0,
              "matchings": [[1, 0]]}, "'k'"),
            ({"format": "hyperexpand-bipartite-v1", "n_left": 2.0, "n_right": 2, "k": 1,
              "matchings": [[1, 0]]}, "'n_left'"),
            ({"format": "hyperexpand-bipartite-v1", "n_left": 2, "n_right": True, "k": 1,
              "matchings": [[1, 0]]}, "'n_right'"),
            ({"format": "hyperexpand-bipartite-v1", "n_left": 2, "n_right": 2, "k": 1,
              "matchings": [[1.0, 0]]}, "matching 0 is not a permutation"),
            ({"format": "hyperexpand-bipartite-v1", "n_left": 3, "n_right": 3, "k": 1,
              "matchings": [[1, True, 2]]}, "'matchings'"),
        ],
    )
    def test_non_integer_values_exit_1_naming_the_field(self, tmp_path, capsys, payload, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        assert entry(["analyze", "--in", str(path)]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_internal_type_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr("hyperexpand.cli.verify_bounds", broken)
        path = write_graph(tmp_path, "c6.json", cycle_graph(6))
        with pytest.raises(TypeError, match="internal bug"):
            entry(["verify", "--in", path])


class TestVerify:
    def test_k33_known_discrepancy(self, tmp_path):
        path = write_graph(tmp_path, "k33.json", complete_bipartite_graph(3))
        code, out = run_to_file(["verify", "--in", path], tmp_path, "r.json")
        assert code == EXIT_OK
        checks = {c["name"]: c["status"] for c in json.loads(out.read_text())["result"]["checks"]}
        assert checks["spectral_vertex_expansion"] == "known-discrepancy"
        assert checks["chung_diameter"] == "pass"
        assert checks["dodziuk_interval"] == "pass"

    def test_c6_all_pass(self, tmp_path):
        path = write_graph(tmp_path, "c6.json", cycle_graph(6))
        code, out = run_to_file(["verify", "--in", path], tmp_path, "r.json")
        assert code == EXIT_OK
        statuses = {c["status"] for c in json.loads(out.read_text())["result"]["checks"]}
        assert statuses == {"pass"}

    def test_oracle_cap_exits_1(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c30.json", cycle_graph(30))
        assert entry(["verify", "--in", path]) == EXIT_USAGE
        assert "capped" in capsys.readouterr().err

    def test_disconnected_exits_1(self, tmp_path, capsys):
        path = write_graph(tmp_path, "2k4.json", disjoint_union(complete_graph(4), complete_graph(4)))
        assert entry(["verify", "--in", path]) == EXIT_USAGE
        assert "requires a connected graph" in capsys.readouterr().err

    def test_oracle_cap_comes_before_the_eigensolve(self, tmp_path, capsys, no_eigensolve):
        path = write_graph(tmp_path, "2c15.json", disjoint_union(cycle_graph(15), cycle_graph(15)))
        assert entry(["verify", "--in", path]) == EXIT_USAGE
        assert "capped" in capsys.readouterr().err


class TestRewire:
    def test_c4_envelope(self, tmp_path):
        path = write_graph(tmp_path, "c4.json", cycle_graph(4))
        code, out = run_to_file(
            ["rewire", "--in", path, "--k", "3", "--seed", "5", "--layers", "6"],
            tmp_path,
            "r.json",
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        inst = rewired_from_dict(payload["result"])
        assert inst.total_nodes == 8
        assert inst.expander.matchings.tolist() == [[2, 1, 3, 0], [0, 2, 1, 3], [1, 3, 0, 2]]
        assert payload["result"]["schedule"] == ["original", "expander"] * 3

    def test_written_files_load_to_the_same_objects(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        want = k_regular_bipartite(GeneratorConfig(n=12, k=3, seed=8))
        generate = ["generate", "--n", "12", "--k", "3", "--seed", "8"]
        assert entry(generate + ["--out", "g.json"]) == EXIT_OK
        assert entry(generate + ["--format", "edgelist", "--out", "g.edges"]) == EXIT_OK
        assert bipartite_from_dict(json.loads((tmp_path / "g.json").read_text())["result"]["expander"]) == want
        assert load_graph_file("g.json") == load_graph_file("g.edges") == want.to_graph()
        for source in ("g.json", "g.edges"):
            assert entry(["rewire", "--in", source, "--seed", "2", "--out", "r.json"]) == EXIT_OK
            inst = rewired_from_dict(json.loads((tmp_path / "r.json").read_text())["result"])
            assert inst == augment(want.to_graph(), GeneratorConfig(n=24, k=3, seed=2))

    def test_single_node_graph(self, tmp_path):
        path = write_graph(tmp_path, "one.json", build_graph(1, []))
        code, out = run_to_file(["rewire", "--in", path], tmp_path, "r.json")
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["total_nodes"] == 2

    def test_missing_input_exits_1(self, capsys):
        assert entry(["rewire", "--in", "/nonexistent/g.json"]) == EXIT_USAGE
        assert capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        path = write_graph(tmp_path, "c4.json", cycle_graph(4))
        argv = ["rewire", "--in", path, "--k", "2", "--seed", "9"]
        _, a = run_to_file(argv, tmp_path, "a.json")
        _, b = run_to_file(argv, tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()


TINY_TRAIN = [
    "train",
    "--depth", "1",
    "--layers", "2",
    "--hidden", "8",
    "--epochs", "4",
    "--dataset-size", "8",
]


class TestTrain:
    def test_summary_and_csv(self, tmp_path):
        csv = tmp_path / "metrics.csv"
        code, out = run_to_file(
            TINY_TRAIN + ["--seed", "1", "--csv", str(csv)], tmp_path, "s.json"
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        runs = payload["result"]["runs"]
        assert len(runs) == 1
        assert runs[0]["seed"] == 1
        assert runs[0]["epochs"] == 4
        assert "final_accuracy" in runs[0]
        lines = csv.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 5
        assert lines[1].startswith("1,")

    def test_zero_lr_constant_loss_column(self, tmp_path):
        csv = tmp_path / "m.csv"
        code, _ = run_to_file(TINY_TRAIN + ["--lr", "0", "--csv", str(csv)], tmp_path, "s.json")
        assert code == EXIT_OK
        losses = {line.split(",")[1] for line in csv.read_text().splitlines()[1:]}
        assert len(losses) == 1

    def test_multiple_seeds(self, tmp_path):
        csv = tmp_path / "run-{seed}.csv"
        code, out = run_to_file(
            TINY_TRAIN + ["--seeds", "1,2", "--csv", str(csv)], tmp_path, "s.json"
        )
        assert code == EXIT_OK
        runs = json.loads(out.read_text())["result"]["runs"]
        assert [r["seed"] for r in runs] == [1, 2]
        assert (tmp_path / "run-1.csv").exists()
        assert (tmp_path / "run-2.csv").exists()

    def test_seed_suffix_without_placeholder(self, tmp_path):
        csv = tmp_path / "m.csv"
        code, _ = run_to_file(TINY_TRAIN + ["--seeds", "3,4", "--csv", str(csv)], tmp_path, "s.json")
        assert code == EXIT_OK
        assert (tmp_path / "m-seed3.csv").exists()
        assert (tmp_path / "m-seed4.csv").exists()

    def test_byte_identical_rerun(self, tmp_path):
        _, a = run_to_file(TINY_TRAIN + ["--seed", "2"], tmp_path, "a.json")
        _, b = run_to_file(TINY_TRAIN + ["--seed", "2"], tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        code = entry(
            [
                "train",
                "--depth", "2",
                "--layers", "3",
                "--hidden", "8",
                "--epochs", "50",
                "--dataset-size", "8",
                "--lr", "1e12",
                "--rewire",
            ]
        )
        assert code == EXIT_NUMERIC
        assert "numerical" in capsys.readouterr().err

    def test_rewired_vs_plain_summary(self, tmp_path):
        _, plain = run_to_file(TINY_TRAIN + ["--seed", "1"], tmp_path, "p.json")
        _, rew = run_to_file(
            TINY_TRAIN + ["--seed", "1", "--rewire", "--k", "3", "--mode", "summation"],
            tmp_path,
            "r.json",
        )
        a = json.loads(plain.read_text())["result"]["runs"][0]["final_accuracy"]
        b = json.loads(rew.read_text())["result"]["runs"][0]["final_accuracy"]
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
    def test_bad_lr_exits_1(self, lr, capsys):
        assert entry(TINY_TRAIN + ["--lr", lr]) == EXIT_USAGE
        assert "learning rate" in capsys.readouterr().err

    def test_bad_seeds_list_exits_1(self, capsys):
        assert entry(TINY_TRAIN + ["--seeds", "1,x"]) == EXIT_USAGE
        assert "seeds" in capsys.readouterr().err

    def test_negative_batch_size_exits_1(self, capsys):
        assert entry(TINY_TRAIN + ["--batch-size", "-3"]) == EXIT_USAGE
        assert "batch_size must be >= 0" in capsys.readouterr().err

    def test_csv_template_braces_besides_seed_are_kept(self, tmp_path):
        csv = tmp_path / "run-{seed}-{epoch}.csv"
        code, _ = run_to_file(TINY_TRAIN + ["--seeds", "1,2", "--csv", str(csv)], tmp_path, "s.json")
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.glob("run-*.csv")) == ["run-1-{epoch}.csv", "run-2-{epoch}.csv"]


    def test_output_independent_of_cpu_count(self, tmp_path):
        # at depth 5 over 300 samples every kernel of a split-enabled run splits
        argv = ["train", "--depth", "5", "--rewire", "--epochs", "1", "--dataset-size", "300",
                "--seed", "3"]
        cpus = os.sched_getaffinity(0)
        outs = []
        for label, mask in (("one", {min(cpus)}), ("all", cpus)):
            out = tmp_path / f"{label}.json"
            proc = run_module([*argv, "--out", str(out)], cpus=mask)
            assert proc.returncode == EXIT_OK, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTrainOutputPaths:
    """--out and every per-seed --csv path are checked before the first run."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("hyperexpand.cli.train", refuse)

    @pytest.mark.parametrize(
        "flag,path,why",
        [
            ("--csv", "nodir/m.csv", "directory nodir does not exist"),
            ("--out", "nodir/s.json", "directory nodir does not exist"),
            ("--csv", "sub", "is a directory"),
            ("--out", "sub", "is a directory"),
        ],
    )
    def test_exits_1_naming_flag_and_path(self, flag, path, why, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert entry(TINY_TRAIN + [flag, path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {flag} {path}" in err and why in err

    def test_later_seed_path_checked_before_the_first_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "1").mkdir()
        assert entry(TINY_TRAIN + ["--seeds", "1,2", "--csv", "{seed}/m.csv"]) == EXIT_USAGE
        assert "--csv 2/m.csv: directory 2 does not exist" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []


class TestTrainMemoryLimit:
    """A train run whose estimated working set exceeds MAX_TRAIN_BYTES exits
    1 naming the field and the limit before anything is allocated. The child
    runs with 2 GiB of address space, so a missing check fails the test
    instead of exhausting the machine."""

    @pytest.mark.parametrize(
        "args,field",
        [
            (["--depth", "8", "--rewire", "--dataset-size", "100000"], "dataset_size"),
            (["--depth", "5", "--rewire", "--dataset-size", "5000"], "dataset_size"),
            (["--hidden", "1000000"], "hidden_dim"),
            (["--layers", "100000000"], "num_layers"),
        ],
    )
    def test_exits_1(self, args, field):
        proc = run_module(["train", *args, "--epochs", "1"], address_space=2 << 30)
        assert proc.returncode == EXIT_USAGE
        assert field in proc.stderr and f"MAX_TRAIN_BYTES = {MAX_TRAIN_BYTES}" in proc.stderr

    def test_depth_above_limit_exits_1(self, capsys):
        assert entry(TINY_TRAIN + ["--depth", "9"]) == EXIT_USAGE
        assert "depth must be in 1..8" in capsys.readouterr().err

class TestNumpyOnlyRuntime:
    """scipy and networkx are installed for test-time cross-checks only:
    no subcommand may import them."""

    CHILD = (
        "import sys\n"
        "from hyperexpand.cli import entry\n"
        "code = entry(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--ramanujan", "--n", "16", "--k", "3", "--out", "g.json"],
            ["generate", "--n", "16", "--k", "3", "--format", "edgelist", "--out", "g.edges"],
            ["analyze", "--in", "p.edges", "--out", "a.json"],
            ["analyze", "--in", "p.edges", "--method", "jacobi", "--out", "a.json"],
            ["verify", "--in", "p.edges", "--out", "v.json"],
            ["rewire", "--in", "p.edges", "--ramanujan", "--out", "r.json"],
            ["train", "--depth", "2", "--layers", "2", "--hidden", "4", "--epochs", "2",
             "--dataset-size", "8", "--rewire", "--out", "t.json"],
        ],
    )
    def test_subcommand_imports_neither(self, argv, tmp_path):
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        (tmp_path / "p.edges").write_text("".join(f"{u} {v}\n" for u, v in edges))
        proc = subprocess.run([sys.executable, "-c", self.CHILD, *argv], capture_output=True, text=True,
                              env=child_env(), cwd=tmp_path, timeout=120)
        assert proc.stdout.strip() == "0 []", proc.stderr


def argv_from_config(config: dict) -> list[str]:
    """The command line a "config" echo stands for: each key as its flag
    (a true switch bare, a false one left out, the seed list joined by
    commas, floats by repr)."""
    argv = [config["subcommand"]]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if key == "subcommand" or value is False:
            continue
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, repr(value) if isinstance(value, float) else str(value)]
    return argv


class TestConfigEcho:
    """Every subcommand's echoed config, turned back into a command line,
    reproduces its output byte for byte."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", "8", "--k", "3", "--seed", "7", "--ramanujan", "--tolerance", "1e-9"],
            ["generate", "--n", "6", "--k", "2", "--require-connected", "no", "--max-matching-retries", "50",
             "--format", "edgelist"],
            ["analyze", "--in", "c6.json", "--method", "jacobi"],
            ["verify", "--in", "c6.json", "--tolerance", "1e-7"],
            ["rewire", "--in", "c6.json", "--k", "2", "--seed", "5", "--layers", "4", "--ramanujan"],
            TINY_TRAIN + ["--seeds", "1,2", "--batch-size", "4", "--rewire", "--mode", "learned",
                          "--optimizer", "adam", "--csv", "m.csv"],
            TINY_TRAIN + ["--seed", "3", "--lr", "0.05"],
        ],
    )
    def test_round_trip(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_graph(tmp_path, "c6.json", cycle_graph(6))
        assert entry(argv + ["--out", "a.out"]) == EXIT_OK
        text = (tmp_path / "a.out").read_text()
        if "--format" in argv:  # an edge list carries its config as a header comment
            config = json.loads(text.splitlines()[0].removeprefix("# config: "))
        else:
            config = json.loads(text)["config"]
        assert not {"out", "csv", "input", "func"} & config.keys()
        assert entry(argv_from_config(config) + ["--out", "b.out"]) == EXIT_OK
        assert (tmp_path / "b.out").read_bytes() == (tmp_path / "a.out").read_bytes()


class TestParser:
    def test_missing_subcommand_exits_1(self, capsys):
        assert entry([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag_exits_1(self, capsys):
        assert entry(["generate", "--n", "4", "--k", "2", "--frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert entry(["--version"]) == EXIT_OK
        assert "hyperexpand" in capsys.readouterr().out

    # One parser serves every entry call in a process; a usage error in the
    # middle of the sequence must leave it as it was.
    SEQUENCE = [
        ["generate", "--n", "10", "--k", "3", "--seed", "2", "--format", "edgelist", "--out", "g.edges"],
        ["analyze", "--in", "g.edges", "--out", "a.json"],
        ["verify", "--in", "g.edges", "--out", "v.json"],
        ["analyze", "--in", "g.edges", "--method", "lanczos", "--out", "bad.json"],
        ["rewire", "--in", "g.edges", "--k", "3", "--seed", "5", "--out", "r.json"],
        ["analyze", "--in", "g.edges", "--method", "jacobi", "--out", "j.json"],
    ]
    CHILD = (
        "import json, sys\n"
        "from hyperexpand.cli import build_parser, entry\n"
        "codes = [entry(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, build_parser.cache_info().misses]))\n"
    )

    def test_one_process_matches_fresh_processes(self, tmp_path):
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        proc = subprocess.run([sys.executable, "-c", self.CHILD, json.dumps(self.SEQUENCE)], capture_output=True,
                              text=True, env=child_env(), cwd=one, timeout=120)
        assert json.loads(proc.stdout) == [[0, 0, 0, 1, 0, 0], 1], proc.stderr
        for argv in self.SEQUENCE:
            proc = subprocess.run([sys.executable, "-m", "hyperexpand", *argv], capture_output=True,
                                  text=True, env=child_env(), cwd=fresh, timeout=120)
            assert proc.returncode == (EXIT_USAGE if "lanczos" in argv else EXIT_OK), proc.stderr
        names = ["g.edges", "a.json", "v.json", "r.json", "j.json"]
        assert sorted(p.name for p in one.iterdir()) == sorted(names)
        for name in names:
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name


def test_module_entry_point():
    proc = run_module(["generate", "--n", "2", "--k", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["expander"]["n_left"] == 2
