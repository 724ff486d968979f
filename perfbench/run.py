"""hyperexpand benchmark: closed-loop workloads over the in-process CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in its own worker process with BLAS pinned to one
thread. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. A result file per run goes to perfbench/out/. The exit code
is nonzero, with no result printed, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify", "build", "verify", "train-d2", "train-d5")
SETUP_RUNS = 3  # cold starts per run; setup_s is their median
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"

UNITS = {"throughput": "items/s", "item_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(workload: str, seed: int, seconds: float, trace: int, out: Path, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    out.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    if trace:
        result = start_worker(workload, seed, seconds, 1, stem.with_suffix(".json"), False)
        result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in result.pop("layer_metrics").items()}
    else:
        probe = stem.with_suffix(".setup.json")
        setups = [start_worker(workload, seed, seconds, 0, probe, True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        probe.unlink()
        result = start_worker(workload, seed, seconds, 0, stem.with_suffix(".json"), False)
        setups.append(result["setup_s"])
        result["setup_runs_s"] = setups
        result["setup_s"] = statistics.median(setups)
        result["metrics"] = {name: {"value": result[name], "unit": unit} for name, unit in UNITS.items()}
    result["failed_ratio"] = result["failed"] / result["attempted"]
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    env = result.get("environment")
    print(f"# {result['workload']}: {result['items']} timed items, attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_ratio {result['failed_ratio']:.4f})")
    if env:
        print("#   env " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:>9} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result.get("baseline", {}).items():
        print(f"{result['workload']:>9} baseline.{name:<31} {value:>16.6g}")
    for failure in result.get("failures", []):
        print(f"#   FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperexpand" / "cli.py").is_file():
        print(f"benchmark: no hyperexpand sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
