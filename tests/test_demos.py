"""Smoke test of the demos: each runs to completion with its defaults.

RuntimeWarnings are errors here, as in the rest of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treecast

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["channel_bounds", "density_evolution",
                                  "coupling_demo", "hardcore_gibbs",
                                  "population_threshold"])
def test_demo_runs(name, tmp_path):
    src = Path(treecast.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
