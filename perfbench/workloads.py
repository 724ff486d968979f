"""The benchmark's workloads: the items each one sends, and their output checks.

An item is one or more `hyperexpand` command lines, run in-process through
`hyperexpand.cli.entry`, plus a check of the files they wrote. Items come
in cycles; every cycle has the same mix of item kinds, so throughput over
whole cycles does not depend on where a run stops. All inputs derive from
the workload seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LAMBDA_TOL = 1e-9  # generate's and analyze's lambda come from the same solve
EIG_TOL = 1e-6  # Jacobi against LAPACK, on graphs of at most 24 vertices
LOSS_RTOL = 1e-6  # training final loss against the committed reference
ACC_TOL = 0.004  # two samples of 500

TRAIN_SAMPLES = 500
TRAIN_ARGS = ["--layers", "3", "--hidden", "32", "--lr", "0.01", "--dataset-size", str(TRAIN_SAMPLES)]
TRAIN_VARIANTS = {
    "plain": [],
    "summation": ["--rewire", "--mode", "summation"],
    "learned": ["--rewire", "--mode", "learned"],
}
TRAIN_EPOCHS = {"train-d2": 40, "train-d5": 3}
TRAIN_SEED_POOL = tuple(range(1, 9))
BUILD_N, BUILD_K = 50000, 3
REFERENCES = Path(__file__).with_name("references.json")


class CheckFailed(Exception):
    """An item's output is wrong."""


@dataclass
class Item:
    kind: str
    argvs: list[list[str]]
    check: Callable[[], None]
    units: float = 1.0  # work done, in the workload's throughput unit


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_result(path: Path) -> dict:
    return json.loads(path.read_text())["result"]


# ---------------------------------------------------------------------------
# independent checks on matchings


def check_matchings(matchings, n: int, k: int) -> np.ndarray:
    """k permutations of range(n), disjoint at every left vertex."""
    m = np.asarray(matchings, dtype=np.int64)
    _require(m.shape == (k, n), f"expected {k} matchings of length {n}, got shape {m.shape}")
    ids = np.arange(n)
    for i in range(k):
        _require(np.array_equal(np.sort(m[i]), ids), f"matching {i} is not a permutation")
        for j in range(i):
            clash = np.flatnonzero(m[i] == m[j])
            _require(clash.size == 0, f"matchings {j} and {i} share left vertex {clash[:1]}")
    return m


def check_connected(m: np.ndarray) -> None:
    """The bipartite union of the matchings is connected (frontier BFS)."""
    k, n = m.shape
    inverse = np.empty_like(m)
    for i in range(k):
        inverse[i, m[i]] = np.arange(n)
    seen_left = np.zeros(n, dtype=bool)
    seen_right = np.zeros(n, dtype=bool)
    seen_left[0] = True
    frontier = np.array([0])
    while frontier.size:
        right = np.unique(m[:, frontier])
        right = right[~seen_right[right]]
        seen_right[right] = True
        left = np.unique(inverse[:, right])
        frontier = left[~seen_left[left]]
        seen_left[frontier] = True
    _require(bool(seen_left.all() and seen_right.all()), "expander graph is disconnected")


# ---------------------------------------------------------------------------
# certify: Ramanujan rejection sampling, then a second spectral report


def check_certify(gen_path: Path, ana_path: Path, n: int, k: int) -> None:
    result = _read_result(gen_path)
    m = check_matchings(result["expander"]["matchings"], n, k)
    check_connected(m)
    report = result["report"]
    lam = report["lambda_nontrivial"]
    bound = 2.0 * math.sqrt(k - 1.0)
    _require(report["ramanujan"] is True and lam is not None, "generate did not certify")
    _require(lam <= bound + report["tolerance"], f"lambda {lam} above 2 sqrt(k-1) = {bound}")
    other = _read_result(ana_path)["lambda_nontrivial"]
    _require(other is not None and abs(other - lam) <= LAMBDA_TOL, f"analyze lambda {other} != {lam}")


def certify_item(workdir: Path, n: int, k: int, seed: int) -> Item:
    gen, ana = workdir / f"certify-{n}-{k}.json", workdir / f"certify-{n}-{k}.analyze.json"
    return Item(
        kind=f"n{n}k{k}",
        argvs=[
            ["generate", "--ramanujan", "--n", str(n), "--k", str(k), "--seed", str(seed), "--out", str(gen)],
            ["analyze", "--in", str(gen), "--out", str(ana)],
        ],
        check=lambda: check_certify(gen, ana, n, k),
    )


# ---------------------------------------------------------------------------
# build: a large plain expander as an edge list, then a rewiring overlay


def check_build(edge_path: Path, rewired_path: Path, n: int, k: int) -> None:
    lines = edge_path.read_text().splitlines()
    _require(f"# n={2 * n}" in lines, "edge list lacks its '# n=' header")
    body = [line for line in lines if line and not line.startswith("#")]
    edges = np.fromiter(map(int, " ".join(body).split()), dtype=np.int64).reshape(-1, 2)
    _require(edges.shape[0] == n * k, f"expected {n * k} edges, got {edges.shape[0]}")
    _require(bool((edges[:, 0] < n).all() and (edges[:, 1] >= n).all()), "edge crosses no bipartition")
    _require(bool((np.bincount(edges.ravel(), minlength=2 * n) == k).all()), "graph is not k-regular")

    rewired = _read_result(rewired_path)
    original = rewired["original"]
    _require(original["n"] == 2 * n, "rewired original has the wrong vertex count")
    _require(np.array_equal(np.asarray(original["edges"], dtype=np.int64), edges), "original edges differ")
    expander = rewired["expander"]
    _require(expander["n_left"] == expander["n_right"] == 2 * n, "overlay sides differ from 2n")
    check_matchings(expander["matchings"], 2 * n, k)
    _require(rewired["total_nodes"] == 4 * n, "augmented node count is not 2 * 2n")
    mask = np.asarray(rewired["hyperedge_mask"], dtype=bool)
    _require(np.array_equal(mask, np.arange(4 * n) >= 2 * n), "hyperedge mask is wrong")


def build_item(workdir: Path, n: int, k: int, seed: int, rewire_seed: int) -> Item:
    edges, rewired = workdir / f"build-{n}.txt", workdir / f"build-{n}.rewired.json"
    return Item(
        kind=f"n{n}",
        argvs=[
            ["generate", "--n", str(n), "--k", str(k), "--seed", str(seed), "--format", "edgelist",
             "--out", str(edges)],
            ["rewire", "--k", str(k), "--seed", str(rewire_seed), "--in", str(edges), "--out", str(rewired)],
        ],
        check=lambda: check_build(edges, rewired, n, k),
    )


# ---------------------------------------------------------------------------
# verify: exhaustive oracle and Jacobi on a fixed corpus of small regular graphs


def generalized_petersen(m: int, s: int) -> list[tuple[int, int]]:
    """GP(m, s): outer m-cycle, spokes, inner star polygon {m/s}; 3-regular on 2m."""
    edges = []
    for i in range(m):
        edges.append((i, (i + 1) % m))
        edges.append((i, m + i))
        edges.append((m + i, m + (i + s) % m))
    return edges


# name -> (vertices, edges). GP(m, 1) is circular_ladder_graph(m).
CORPUS = {
    "dodecahedron": (20, generalized_petersen(10, 2)),
    "desargues": (20, generalized_petersen(10, 3)),
    "prism-11": (22, generalized_petersen(11, 1)),
    "gp-11-2": (22, generalized_petersen(11, 2)),
    "nauru": (24, generalized_petersen(12, 5)),
}


def check_verify(verify_path: Path, jacobi_path: Path, adjacency: np.ndarray) -> None:
    report = _read_result(verify_path)
    statuses = [c["status"] for c in report["checks"]]
    _require("unexpected" not in statuses, f"verify reported an unexpected bound: {statuses}")
    _require(report["n"] == adjacency.shape[0], "verify saw the wrong vertex count")
    jacobi = _read_result(jacobi_path)
    jac = np.asarray(jacobi["eigenvalues"])
    lapack = np.linalg.eigvalsh(adjacency)[::-1]
    _require(jac.shape == lapack.shape, "Jacobi returned the wrong number of eigenvalues")
    gap = float(np.max(np.abs(jac - lapack)))
    _require(gap <= EIG_TOL, f"Jacobi and LAPACK eigenvalues differ by {gap:.3e}")
    _require(abs(jacobi["lambda_2"] - report["lambda_2"]) <= EIG_TOL, "verify and Jacobi lambda_2 differ")


def write_corpus_member(workdir: Path, name: str, rng: random.Random) -> tuple[Path, np.ndarray]:
    """Write the member with seeded vertex labels; returns (path, adjacency)."""
    n, edges = CORPUS[name]
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    path = workdir / f"verify-{name}.txt"
    path.write_text(f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in relabelled))
    adjacency = np.zeros((n, n))
    for u, v in relabelled:
        adjacency[u, v] = adjacency[v, u] = 1.0
    return path, adjacency


def verify_item(workdir: Path, name: str, path: Path, adjacency: np.ndarray) -> Item:
    ver, jac = workdir / f"verify-{name}.verify.json", workdir / f"verify-{name}.jacobi.json"
    return Item(
        kind=name,
        argvs=[
            ["verify", "--in", str(path), "--out", str(ver)],
            ["analyze", "--method", "jacobi", "--in", str(path), "--out", str(jac)],
        ],
        check=lambda: check_verify(ver, jac, adjacency),
    )


# ---------------------------------------------------------------------------
# train: Tree-NeighborsMatch at the acceptance-criterion-8 config


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def train_argv(depth: int, variant: str, seed: int, epochs: int, out: Path) -> list[str]:
    return ["train", "--depth", str(depth), *TRAIN_ARGS, "--epochs", str(epochs), "--seed", str(seed),
            *TRAIN_VARIANTS[variant], "--out", str(out)]


def reference_key(depth: int, variant: str, seed: int, epochs: int) -> str:
    return f"depth{depth}/{variant}/seed{seed}/epochs{epochs}"


def check_train(out: Path, expected: list[float] | None) -> None:
    _require(expected is not None, "no committed reference for this run")
    run = _read_result(out)["runs"][0]
    loss, acc = run["final_loss"], run["final_accuracy"]
    ref_loss, ref_acc = expected
    _require(abs(loss - ref_loss) <= LOSS_RTOL * max(1.0, abs(ref_loss)), f"final loss {loss} != {ref_loss}")
    _require(abs(acc - ref_acc) <= ACC_TOL, f"final accuracy {acc} != {ref_acc}")


def train_item(workdir: Path, refs: dict[str, list[float]], depth: int, variant: str, seed: int, epochs: int) -> Item:
    out = workdir / f"train-d{depth}-{variant}.json"
    expected = refs.get(reference_key(depth, variant, seed, epochs))
    return Item(
        kind=variant,
        argvs=[train_argv(depth, variant, seed, epochs, out)],
        check=lambda: check_train(out, expected),
        units=float(TRAIN_SAMPLES * epochs),
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """warmup() is the untimed first item; cycle() yields the next timed cycle."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.rng = random.Random(f"{name}:{seed}")
        if name == "verify":
            self.members = {m: write_corpus_member(workdir, m, self.rng) for m in CORPUS}
        elif name == "build":
            self.pools = load_references()["build"]
        elif name.startswith("train-"):
            self.depth = int(name[-1])
            self.epochs = TRAIN_EPOCHS[name]
            self.refs = load_references()["train"]

    def _seed(self) -> int:
        return self.rng.getrandbits(32)

    def warmup(self) -> Item:
        if self.name == "certify":
            return certify_item(self.workdir, 512, 4, self._seed())
        if self.name == "build":
            return build_item(self.workdir, 2000, BUILD_K, self._seed(), self._seed())
        if self.name == "verify":
            return verify_item(self.workdir, "dodecahedron", *self.members["dodecahedron"])
        return train_item(self.workdir, self.refs, self.depth, "plain", self.rng.choice(TRAIN_SEED_POOL), 1)

    def cycle(self) -> list[Item]:
        if self.name == "certify":
            return [
                certify_item(self.workdir, 1024, 3, self._seed()),
                certify_item(self.workdir, 512, 4, self._seed()),
                certify_item(self.workdir, 1024, 3, self._seed()),
            ]
        if self.name == "build":
            # Seeds from the pools of typical draw counts (see make_references.py).
            gen, rewire = self.rng.choice(self.pools["generate_seeds"]), self.rng.choice(self.pools["rewire_seeds"])
            return [build_item(self.workdir, BUILD_N, BUILD_K, gen, rewire)]
        if self.name == "verify":
            return [verify_item(self.workdir, m, *self.members[m]) for m in CORPUS]
        return [
            train_item(self.workdir, self.refs, self.depth, variant, self.rng.choice(TRAIN_SEED_POOL), self.epochs)
            for variant in TRAIN_VARIANTS
        ]


WORKLOADS = ("certify", "build", "verify", "train-d2", "train-d5")
