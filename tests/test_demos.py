"""Smoke test: every demo exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# riemann_box_shapes.py (about 11 s) and coulomb_box_limit.py (about 7 s) are
# the slowest; the rest take a few seconds each.
@pytest.mark.parametrize("demo", [
    "step_stability.py",
    "action_bookkeeping.py",
    "step_convergence.py",
    "mode_lattice_tour.py",
    "photon_ladder_tour.py",
    "field_reconstruction.py",
    "offset_damped_step.py",
    "riemann_box_shapes.py",
    "coulomb_box_limit.py",
])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
