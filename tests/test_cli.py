from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

from hyperexpand.cli import EXIT_BUDGET, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, entry
from hyperexpand.construct import GeneratorConfig, k_regular_bipartite
from hyperexpand.gnn.training import MAX_TRAIN_BYTES
from hyperexpand.graphs import (
    MAX_VERTICES,
    circular_ladder_graph,
    complete_bipartite_graph,
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

from helpers import child_env


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
    monkeypatch.setattr("hyperexpand.oracle.adjacency_eigenvalues", refuse)


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
        assert expander.matchings == want.matchings

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
        assert inst.expander.matchings == ((2, 1, 3, 0), (0, 2, 1, 3), (1, 3, 0, 2))
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


def test_module_entry_point():
    proc = run_module(["generate", "--n", "2", "--k", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["expander"]["n_left"] == 2
