"""The narrative scripts under demos/ run and say what they claim."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_energy_audit_walkthrough_halves_the_residual():
    # Criterion 4's band: each dt halving cuts the residual by 1.5 to 3,
    # in the additive and the multiplicative run.
    out = run_demo("energy_audit_walkthrough.py")
    factors = [float(f) for f in re.findall(r"factor (\S+)", out)]
    assert len(factors) == 4, out
    assert all(1.5 <= f <= 3.0 for f in factors), factors
