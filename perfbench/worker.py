"""One workload in one process: set up, warm up, run timed cycles, check.

Started by run.py with BLAS pinned; writes its result as JSON to --out.
Closed loop: one client sends the next item only after the previous one
returned. Each item's command lines run in-process through
`hyperexpand.cli.entry`; only those calls are timed, not the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import hyperexpand from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hyperexpand.cli

    if not Path(hyperexpand.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hyperexpand imported from {hyperexpand.cli.__file__}, not {SRC}")
    return hyperexpand.cli


def run_item(cli, item, failures: list[str]) -> tuple[float, bool]:
    """(seconds spent in the program, ok). A failure is recorded, not raised."""
    elapsed = 0.0
    try:
        for argv in item.argvs:
            start = time.perf_counter()
            code = cli.entry(argv)
            elapsed += time.perf_counter() - start
            if code != 0:
                failures.append(f"{item.kind}: exit code {code} from {argv[0]}")
                return elapsed, False
        item.check()
    except Exception:  # any crash or failed check counts as a failed item
        failures.append(f"{item.kind}: {traceback.format_exc(limit=3)}")
        return elapsed, False
    return elapsed, True


def run_phase(cli, workload, seconds: float, failures: list[str], recorder=None) -> dict:
    """Whole cycles until the program time reaches `seconds`."""
    times: list[float] = []
    kinds: list[str] = []
    failed = 0
    while sum(times) < seconds:
        cycle = workload.cycle()
        for item in cycle:
            if recorder is not None:
                recorder.item = len(times)
            elapsed, ok = run_item(cli, item, failures)
            times.append(elapsed)
            kinds.append(item.kind)
            failed += not ok
    return {"times": times, "kinds": kinds, "failed": failed,
            "throughput": median_throughput(cycle, kinds, times)}


def median_throughput(cycle, kinds: list[str], times: list[float]) -> float:
    """A cycle's work over the sum of its items' median times, kind by kind.

    The median form of work per second: one item slowed by a busy host
    or an unlucky draw does not move it.
    """
    median = {k: statistics.median(t for kk, t in zip(kinds, times) if kk == k) for k in set(kinds)}
    return sum(item.units for item in cycle) / sum(median[item.kind] for item in cycle)


def blas_record() -> dict:
    import ctypes

    import numpy as np

    record = {"numpy": np.__version__, "blas": None, "blas_threads": None,
              "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                record["blas_threads"] = fn()
                return record
    return record


def environment(seed: int) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "hyperexpand").rglob("*.py"))
    return {
        **blas_record(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "src_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    cli = import_program()
    from workloads import Workload

    workdir = ROOT / "perfbench" / "out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    try:
        workload = Workload(args.workload, args.seed, workdir)
        _, warm_ok = run_item(cli, workload.warmup(), failures)
        setup_s = time.monotonic() - args.t0
        result = {"workload": args.workload, "setup_s": setup_s, "warmup_ok": warm_ok}
        if not args.setup_only:
            result.update(timed_run(cli, workload, args, failures))
            result["failed"] += not warm_ok
            result["attempted"] += 1
            result["failures"] = failures[:10]
            result["environment"] = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


def timed_run(cli, workload, args, failures: list[str]) -> dict:
    if not args.trace:
        phase = run_phase(cli, workload, args.seconds, failures)
        times = phase["times"]
        return {
            "attempted": len(times),
            "failed": phase["failed"],
            "items": len(times),
            "throughput": phase["throughput"],
            "item_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "item_times_s": [[k, round(t, 4)] for k, t in zip(phase["kinds"], times)],
        }

    import spans

    plain = run_phase(cli, workload, args.seconds / 2, failures)
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        traced = run_phase(cli, workload, args.seconds / 2, failures, recorder)
    finally:
        spans.restore(patches)
    untraced_tp, traced_tp = plain["throughput"], traced["throughput"]
    metrics = spans.layer_metrics(recorder.spans, len(traced["times"]))
    metrics["trace.untraced_throughput"] = (untraced_tp, "items/s")
    metrics["trace.traced_throughput"] = (traced_tp, "items/s")
    metrics["trace.overhead_ratio"] = (untraced_tp / traced_tp - 1.0, "ratio")
    stem = Path(args.out).with_suffix("")
    recorder.write_jsonl(f"{stem}.spans.jsonl")
    return {
        "attempted": len(plain["times"]) + len(traced["times"]),
        "failed": plain["failed"] + traced["failed"],
        "items": len(traced["times"]),
        "layer_metrics": metrics,
        "baseline": {
            **spans.baseline(recorder.spans),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
