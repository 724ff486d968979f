"""Each demo runs to completion against this source tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# 05 trains for about 23 s and calls only train, which the training tests
# already cover.
FAST_DEMOS = [
    "01_build_expanders",
    "02_spectral_certificates",
    "03_expansion_oracles",
    "04_rewiring_schedule",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_0(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
