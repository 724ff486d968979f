"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL scorecard line to the real stdout (capture is suspended for the
print), so a plain ``pytest tests/test_acceptance.py`` run doubles as the
scorecard. The corpus-based criteria share one verification pass.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest

from hyperexpand.cli import entry
from hyperexpand.construct import (
    GeneratorConfig,
    k_regular_bipartite,
    ramanujan_bipartite,
)
from hyperexpand.gnn.layers import HyperedgeMode
from hyperexpand.gnn.model import build_model
from hyperexpand.gnn.training import TrainConfig, train
from hyperexpand.graphs import (
    circular_ladder_graph,
    complete_bipartite_graph,
    cycle_graph,
    is_connected,
    is_k_regular,
    path_graph,
    petersen_graph,
)
from hyperexpand.oracle import (
    STATUS_KNOWN,
    STATUS_PASS,
    STATUS_SKIPPED,
    verify_bounds,
)
from hyperexpand.rewire import LayerKind, augment
from hyperexpand.rng import SplitMix64
from hyperexpand.serialize import dumps_canonical, graph_to_dict
from hyperexpand.spectral import adjacency_eigenvalues, analyze

from helpers import augmented_adjacency


@pytest.fixture
def scorecard(capsys):
    def _report(num: int, name: str, ok: bool, note: str = "") -> None:
        tail = f"  [{note}]" if note else ""
        line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}{tail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_1_construction_soundness(scorecard):
    start = time.perf_counter()
    failures = 0
    for n, k in itertools.product((8, 16, 32), (3, 5)):
        for seed in range(100):
            b = k_regular_bipartite(GeneratorConfig(n=n, k=k, seed=seed))
            g = b.to_graph()
            ok = is_k_regular(g) == k
            ok = ok and all(u < n <= v for u, v in g.edge_array().tolist())
            ok = ok and all(len({m[l] for m in b.matchings}) == k for l in range(n))
            ok = ok and is_connected(g)
            if not ok:
                failures += 1
    elapsed = time.perf_counter() - start
    scorecard(
        1,
        "construction soundness",
        failures == 0 and elapsed < 10.0,
        f"600/{600 - failures} valid, {elapsed:.1f}s",
    )


def test_criterion_2_ramanujan_certification(scorecard):
    bound = 2.0 * math.sqrt(2.0)
    bad = 0
    for seed in range(100):
        _, _, rep = ramanujan_bipartite(GeneratorConfig(n=16, k=3, seed=seed))
        if rep.ramanujan is not True or rep.lambda_nontrivial > bound + 1e-8:
            bad += 1
    cl16 = analyze(circular_ladder_graph(16))
    scorecard(
        2,
        "ramanujan certification",
        bad == 0 and cl16.ramanujan is False,
        f"{100 - bad}/100 accepted samples within bound, CL16 rejected",
    )


def test_criterion_3_eigensolver_accuracy(scorecard):
    worst = 0.0
    for n in range(4, 65):
        got = np.sort(adjacency_eigenvalues(cycle_graph(n)))
        want = np.sort([2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)])
        worst = max(worst, float(np.max(np.abs(got - want))))
    pet = np.sort(adjacency_eigenvalues(petersen_graph()))
    want = np.sort(np.array([3.0] + [1.0] * 5 + [-2.0] * 4))
    worst = max(worst, float(np.max(np.abs(pet - want))))
    scorecard(3, "eigensolver accuracy", worst <= 1e-8, f"max deviation {worst:.2e}")


@functools.lru_cache(maxsize=1)
def corpus_reports():
    """Connected regular graphs on at most 14 vertices, verified once."""
    members = []
    for n in range(3, 15):
        members.append(cycle_graph(n))
    for m in range(1, 8):
        members.append(complete_bipartite_graph(m))
    for m in range(3, 8):
        members.append(circular_ladder_graph(m))
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (7, 4)):
        for seed in range(5):
            members.append(k_regular_bipartite(GeneratorConfig(n=n, k=k, seed=seed)).to_graph())
    start = time.perf_counter()
    reports = tuple(verify_bounds(g) for g in members)
    return reports, time.perf_counter() - start


def test_criterion_4_bound_verification(scorecard):
    reports, elapsed = corpus_reports()
    ok = len(reports) >= 50
    for rep in reports:
        chung = rep.check("chung_diameter")
        dod = rep.check("dodziuk_interval")
        if rep.lambda_nontrivial is None:
            alpha = 2 if rep.is_bipartite else 1
            ok = ok and chung.status == STATUS_SKIPPED and rep.diameter <= alpha
            ok = ok and dod.status == STATUS_SKIPPED
        else:
            ok = ok and chung.status == STATUS_PASS and dod.status == STATUS_PASS
    ok = ok and elapsed < 60.0
    scorecard(4, "bound verification", ok, f"{len(reports)} graphs, {elapsed:.1f}s")


def test_criterion_5_eq4_diagnostic(scorecard):
    rep = verify_bounds(complete_bipartite_graph(3))
    eq4 = rep.check("spectral_vertex_expansion")
    ok = eq4.observed == 1.0
    ok = ok and abs(eq4.bound - 1.5) <= 1e-9
    ok = ok and eq4.status == STATUS_KNOWN
    reports, _ = corpus_reports()
    non_bip = [r for r in reports if not r.is_bipartite]
    ok = ok and len(non_bip) > 0
    ok = ok and all(not r.has_unexpected() for r in non_bip)
    scorecard(
        5,
        "eq4 diagnostic",
        ok,
        f"K33 flagged {eq4.status}, {len(non_bip)} non-bipartite members clean",
    )


def test_criterion_6_gradient_correctness(scorecard):
    import test_gradients as tg

    rng = SplitMix64(2026)
    try:
        total = tg.check_model_gradients(*tg.plain_config(), rng=rng, per_param=5)
        total += tg.check_model_gradients(
            *tg.rewired_config(
                HyperedgeMode.SUMMATION,
                (LayerKind.ORIGINAL, LayerKind.EXPANDER, LayerKind.ORIGINAL),
                seed=21,
            ),
            rng=rng,
            per_param=5,
        )
        total += tg.check_model_gradients(
            *tg.rewired_config(
                HyperedgeMode.LEARNED,
                (LayerKind.ORIGINAL, LayerKind.EXPANDER, LayerKind.EXPANDER),
                seed=31,
            ),
            rng=rng,
            per_param=5,
        )
        total += tg.check_model_gradients(
            *tg.rewired_config(
                HyperedgeMode.SUMMATION, (LayerKind.ORIGINAL, LayerKind.EXPANDER), seed=41
            ),
            rng=rng,
            per_param=5,
        )
        ok, note = total >= 200, f"{total} coordinates within 1e-4 of finite differences"
    except AssertionError as exc:
        ok, note = False, str(exc)[:100]
    scorecard(6, "gradient correctness", ok, note)


def test_criterion_7_over_squashing_mechanism(scorecard):
    import test_gradients as tg

    g = path_graph(7)
    model = build_model(3, 4, 2, (LayerKind.ORIGINAL,) * 3, seed=5)
    tg.jitter_parameters(model, 55)
    feats = np.zeros((1, 7, 3))
    feats[0] = tg.random_feats(5, (7, 3))
    ig = tg.node_input_gradient(model, g.adjacency_matrix(), None, feats, node=6, channel=0)
    plain_zero = bool(np.all(ig[0] == 0.0))

    inst = augment(path_graph(7), GeneratorConfig(n=7, k=3, seed=11), num_layers=3)
    connected = is_connected(inst.expander.to_graph())
    model = build_model(3, 4, 2, inst.schedule, seed=5)
    tg.jitter_parameters(model, 55)
    feats = np.zeros((1, 14, 3))
    feats[0, :7] = tg.random_feats(5, (7, 3))
    ig = tg.node_input_gradient(
        model,
        augmented_adjacency(inst),
        inst.expander.biadjacency().astype(np.float64),
        feats,
        node=6,
        channel=0,
    )
    rewired_mag = float(np.max(np.abs(ig[0])))
    scorecard(
        7,
        "over-squashing mechanism",
        plain_zero and connected and rewired_mag > 1e-9,
        f"plain gradient exactly 0, rewired magnitude {rewired_mag:.2e}",
    )


def test_criterion_8_tree_neighborsmatch(scorecard):
    start = time.perf_counter()
    res = train(
        TrainConfig(
            depth=1,
            num_layers=3,
            hidden_dim=32,
            learning_rate=0.01,
            epochs=150,
            dataset_size=1000,
            seed=0,
        )
    )
    elapsed = time.perf_counter() - start
    solved = any(a == 1.0 for a in res.accuracies) or res.final_accuracy == 1.0
    part_a = solved and elapsed < 60.0

    pairs = []
    for seed in (1, 2, 3):
        kw = dict(
            depth=2,
            num_layers=3,
            hidden_dim=32,
            learning_rate=0.01,
            epochs=1500,
            dataset_size=500,
            seed=seed,
        )
        plain = train(TrainConfig(**kw))
        rewired = train(
            TrainConfig(
                rewire=True,
                expander_k=3,
                hyperedge_mode=HyperedgeMode.SUMMATION,
                **kw,
            )
        )
        pairs.append((rewired.final_accuracy, plain.final_accuracy))
    part_b = all(r >= p for r, p in pairs)
    detail = ", ".join(f"{r:.3f} vs {p:.3f}" for r, p in pairs)
    scorecard(
        8,
        "tree-neighborsmatch desk scale",
        part_a and part_b,
        f"depth-1 solved in {elapsed:.0f}s, depth-2 rewired vs plain: {detail}",
    )


def _graph_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(dumps_canonical(graph_to_dict(g)) + "\n")
    return str(path)


def test_criterion_9_determinism(scorecard, tmp_path):
    c6 = _graph_file(tmp_path, "c6.json", cycle_graph(6))
    c4 = _graph_file(tmp_path, "c4.json", cycle_graph(4))
    cases = {
        "generate": ["generate", "--n", "8", "--k", "3", "--seed", "7"],
        "analyze": ["analyze", "--in", c6],
        "verify": ["verify", "--in", c6],
        "rewire": ["rewire", "--in", c4, "--k", "3", "--seed", "5"],
        "train": [
            "train",
            "--depth", "1",
            "--layers", "2",
            "--hidden", "8",
            "--epochs", "3",
            "--dataset-size", "8",
            "--seed", "2",
        ],
    }
    ok = True
    for name, argv in cases.items():
        out_a = tmp_path / f"{name}-a.json"
        out_b = tmp_path / f"{name}-b.json"
        ok = ok and entry(argv + ["--out", str(out_a)]) == 0
        ok = ok and entry(argv + ["--out", str(out_b)]) == 0
        ok = ok and out_a.read_bytes() == out_b.read_bytes()

    # round-trip the echoed config of a generate run through a fresh argv
    payload = json.loads((tmp_path / "generate-a.json").read_text())
    cfg = payload["config"]
    echoed = [
        "generate",
        "--n", str(cfg["n"]),
        "--k", str(cfg["k"]),
        "--seed", str(cfg["seed"]),
        "--require-connected", cfg["require_connected"],
        "--max-matching-retries", str(cfg["max_matching_retries"]),
        "--max-ramanujan-attempts", str(cfg["max_ramanujan_attempts"]),
        "--tolerance", repr(cfg["tolerance"]),
        "--format", cfg["format"],
    ]
    if cfg["ramanujan"]:
        echoed.append("--ramanujan")
    out_c = tmp_path / "generate-c.json"
    ok = ok and entry(echoed + ["--out", str(out_c)]) == 0
    ok = ok and out_c.read_bytes() == (tmp_path / "generate-a.json").read_bytes()
    scorecard(
        9,
        "determinism",
        ok,
        "all five subcommands byte-identical, echoed config round-trips",
    )
