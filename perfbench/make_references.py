"""Regenerate perfbench/references.json.

    python3 perfbench/make_references.py

"train": final loss and accuracy of every training run the train-*
workloads can send, computed the way the benchmark runs them (in-process
CLI, BLAS pinned to one thread).

"build": the seed pools of the build workload. Building one expander
resamples whole matchings until they are disjoint, so its cost scales
with the number of matchings drawn, which swings 3x from seed to seed.
The pools keep the seeds, out of BUILD_CANDIDATES tried, whose draw count
equals the median count at that size, so a build item costs the same
whichever seeds a run picks.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import worker  # noqa: E402
from workloads import (  # noqa: E402
    BUILD_K,
    BUILD_N,
    REFERENCES,
    TRAIN_EPOCHS,
    TRAIN_SEED_POOL,
    TRAIN_VARIANTS,
    reference_key,
    train_argv,
)

BUILD_CANDIDATES = 32


def train_references(cli) -> dict:
    out = worker.ROOT / "perfbench" / "out" / "references-run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    refs = {}
    for name, epochs in TRAIN_EPOCHS.items():
        depth = int(name[-1])
        runs = [(v, epochs) for v in TRAIN_VARIANTS] + [("plain", 1)]  # plain at 1 epoch is the warm-up
        for variant, n_epochs in runs:
            for seed in TRAIN_SEED_POOL:
                if cli.entry(train_argv(depth, variant, seed, n_epochs, out)) != 0:
                    raise SystemExit(f"train failed: depth {depth} {variant} seed {seed}")
                run = json.loads(out.read_text())["result"]["runs"][0]
                key = reference_key(depth, variant, seed, n_epochs)
                refs[key] = [run["final_loss"], run["final_accuracy"]]
                print(key, refs[key], flush=True)
    out.unlink()
    return refs


def typical_seeds(n: int) -> tuple[int, list[int]]:
    """(median draw count, seeds drawing exactly that many matchings) at side n."""
    from hyperexpand import construct

    original = construct.random_perfect_matching
    draws = [0]

    def counting(size, rng):
        draws[0] += 1
        return original(size, rng)

    construct.random_perfect_matching = counting
    try:
        counts = {}
        for seed in range(BUILD_CANDIDATES):
            draws[0] = 0
            construct.k_regular_bipartite(construct.GeneratorConfig(n=n, k=BUILD_K, seed=seed))
            counts[seed] = draws[0]
    finally:
        construct.random_perfect_matching = original
    median = int(statistics.median_low(counts.values()))
    print(f"n={n}: draws per seed {counts}", flush=True)
    return median, [s for s, c in counts.items() if c == median]


def main() -> int:
    cli = worker.import_program()
    gen_draws, gen_seeds = typical_seeds(BUILD_N)
    rewire_draws, rewire_seeds = typical_seeds(2 * BUILD_N)
    refs = {
        "build": {
            "generate_draws": gen_draws,
            "generate_seeds": gen_seeds,
            "rewire_draws": rewire_draws,
            "rewire_seeds": rewire_seeds,
        },
        "train": train_references(cli),
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
