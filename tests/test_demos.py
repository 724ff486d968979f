"""Each demo runs to completion against this source tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"

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
