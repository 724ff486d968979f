"""Each demo, and README's quick tour, runs to completion against this
source tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# Runs the demo at argv[1] with every train() call cut to one epoch on 16
# samples: 05 imports and prints as it would, without its 23 s of
# training, which the training tests cover. The other demos never train.
RUN_WITH_SHORT_TRAINING = """
import dataclasses, runpy, sys
from hyperexpand.gnn import training
train = training.train
training.train = lambda cfg: train(dataclasses.replace(cfg, epochs=1, dataset_size=16))
runpy.run_path(sys.argv[1], run_name="__main__")
"""


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_exits_0(name):
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITH_SHORT_TRAINING, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def quick_tour() -> str:
    """The Python block under README's "Quick tour" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def same_word(got: str, want: str) -> bool:
    """Equal, or numbers within 1e-12: λ's last digits depend on the BLAS
    kernel."""
    try:
        return got == want or abs(float(got) - float(want)) <= 1e-12
    except ValueError:
        return False


def test_readme_quick_tour_prints_its_comments():
    code = quick_tour()
    want = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert len(g.split()) == len(w.split()), (g, w)
        assert all(map(same_word, g.split(), w.split())), (g, w)
