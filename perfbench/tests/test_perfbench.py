"""Self-tests of the benchmark: tracing leaves the program as it found it,
self times add up, and corrupted outputs count as failed items."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_program()


def _snapshot() -> dict:
    """Every hyperexpand module attribute and traced class method, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "hyperexpand" or name.startswith("hyperexpand."):
            for key, value in vars(module).items():
                snap[name, key] = id(value)
    for module_name, attr, _ in spans.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            snap[module_name, attr] = id(cls.__dict__[meth])
    return snap


def _small_items(tmp_path: Path) -> list:
    graph = tmp_path / "prism.txt"
    graph.write_text("# n=10\n" + "".join(f"{u} {v}\n" for u, v in workloads.generalized_petersen(5, 1)))
    return [
        workloads.certify_item(tmp_path, 64, 3, seed=5),
        workloads.build_item(tmp_path, 200, 3, seed=1, rewire_seed=2),
        workloads.Item("train", [["train", "--depth", "1", "--epochs", "2", "--dataset-size", "16", "--rewire",
                                  "--out", str(tmp_path / "train.json")]], check=lambda: None),
        workloads.Item("verify", [["verify", "--in", str(graph), "--out", str(tmp_path / "v.json")]],
                       check=lambda: None),
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("traced")
    before = _snapshot()
    recorder = spans.Recorder()
    failures: list[str] = []
    start = time.perf_counter()
    patches = spans.install(recorder)
    try:
        during = _snapshot()
        oks = [worker.run_item(cli, item, failures)[1] for item in _small_items(tmp_path)]
    finally:
        spans.restore(patches)
    wall = time.perf_counter() - start
    return {"before": before, "during": during, "after": _snapshot(), "recorder": recorder,
            "wall": wall, "oks": oks, "failures": failures}


def test_traced_items_pass(traced):
    assert traced["oks"] == [True] * 4, traced["failures"]


def test_wrapped_names_are_restored(traced):
    changed = {k for k in traced["before"] if traced["during"].get(k) != traced["before"][k]}
    assert len(changed) >= len(spans.TARGETS)  # every target was wrapped somewhere
    assert traced["after"] == traced["before"]


def test_self_times_are_nonnegative_and_within_wall_time(traced):
    recorded = traced["recorder"].spans
    names = {s[spans.NAME] for s in recorded}
    assert {"cli.entry", "spectral.adjacency_eigenvalues", "oracle.verify_bounds",
            "gnn.layers.expander_forward", "rewire.augment"} <= names
    selfs = [spans.self_time(s) for s in recorded]
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= traced["wall"]


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = spans.layer_metrics(traced["recorder"].spans, items=4)
    metrics.update({"trace.untraced_throughput": 0, "trace.traced_throughput": 0, "trace.overhead_ratio": 0})
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(metrics)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert metrics["spectral.eigensolve_calls"][0] > 0
    assert 0 < metrics["gnn.layers.original_useful_row_ratio"][0] < 1


def _run_certify(tmp_path: Path):
    item = workloads.certify_item(tmp_path, 64, 3, seed=11)
    failures: list[str] = []
    assert worker.run_item(cli, item, failures)[1], failures
    return item, tmp_path / "certify-64-3.json", tmp_path / "certify-64-3.analyze.json"


def _rewrite(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload["result"])
    path.write_text(json.dumps(payload))


def test_swapped_matching_entry_is_a_failure(tmp_path):
    item, gen, _ = _run_certify(tmp_path)

    def swap(result):
        m0, m1 = result["expander"]["matchings"][:2]
        j = m1.index(m0[0])  # m1 stays a permutation but now shares left vertex 0 with m0
        m1[0], m1[j] = m1[j], m1[0]

    _rewrite(gen, swap)
    with pytest.raises(workloads.CheckFailed, match="share left vertex"):
        item.check()


def test_wrong_lambda_is_a_failure(tmp_path):
    item, _, ana = _run_certify(tmp_path)
    _rewrite(ana, lambda result: result.update(lambda_nontrivial=result["lambda_nontrivial"] + 1e-6))
    with pytest.raises(workloads.CheckFailed, match="analyze lambda"):
        item.check()


def test_failed_check_counts_as_failed_item(tmp_path):
    item, _, ana = _run_certify(tmp_path)
    _rewrite(ana, lambda result: result.update(lambda_nontrivial=0.5))
    item.argvs = []  # keep the corrupted output; run only the check
    failures: list[str] = []
    assert worker.run_item(cli, item, failures)[1] is False
    assert "analyze lambda" in failures[0]


def test_disconnected_matchings_are_rejected():
    identity = list(range(4))
    shifted = [1, 0, 3, 2]  # two components: {0, 1} and {2, 3} on each side
    m = workloads.check_matchings([identity, shifted], 4, 2)
    with pytest.raises(workloads.CheckFailed, match="disconnected"):
        workloads.check_connected(m)


def test_wrong_training_result_is_a_failure(tmp_path):
    out = tmp_path / "train.json"
    assert cli.entry(workloads.train_argv(1, "plain", 3, 2, out)) == 0
    run_result = json.loads(out.read_text())["result"]["runs"][0]
    workloads.check_train(out, [run_result["final_loss"], run_result["final_accuracy"]])
    with pytest.raises(workloads.CheckFailed, match="final loss"):
        workloads.check_train(out, [run_result["final_loss"] * 1.01, run_result["final_accuracy"]])
    with pytest.raises(workloads.CheckFailed, match="no committed reference"):
        workloads.check_train(out, None)
