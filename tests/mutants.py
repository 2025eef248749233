"""Physics mutants: does a test that pins no bytes catch a wrong equation?

Each mutant is a (file, old text, new text) edit of one file under
src/plrds.  For each, the script copies src/ to a temporary directory,
applies the edit and runs the suite without its `slow` and `bytes` tests on
the copy, stopping at the first failure.  A mutant that fails a test is
killed; one that passes them all survived, and the suite cannot tell it from
the real equation.  The unmutated copy runs first and must pass.  Run it
from anywhere, sequentially, in a few minutes:

    python tests/mutants.py

Every edit must match its file exactly once, or the script stops before it
runs anything; tests/test_mutants.py checks that in the tier-1 suite.  Exit status 0 whether or not mutants survive; 2 when an edit
does not apply or the unmutated copy fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file under src/plrds, old text, new text)
MUTANTS = {
    "ou-rate-1-to-2": (
        "integrator.py", "lambda spec: 1.0, False,",
        "lambda spec: 2.0, False,"),
    "alpha-z-v-dropped": (
        "integrator.py", "        + (spec.alpha * z) * v\n",
        "        + 0.0 * v\n"),
    "left-endpoint-z": (
        "integrator.py", "z_mid, eta_mid = 0.5 * (z[:-1] + z[1:]),",
        "z_mid, eta_mid = z[:-1],"),
    "h-is-gauss": (
        "integrator.py",
        "self.h = make_field(grid, np.exp(-0.5 * arrs.radial_sq)).values",
        "self.h = make_field(grid, np.exp(-arrs.radial_sq)).values"),
    "flux-exponent-p-2": (
        "fields.py", "e, dd = 0.5 * (p - 2.0), delta * delta",
        "e, dd = (p - 2.0), delta * delta"),
    "eta-mean-ignored": (
        "noise.py", "return cfg.mean + z if cfg.mean != 0.0 else z",
        "return z"),
    "forcing-phase-plus-1": (
        "integrator.py", "phases = (tau_k + np.arange(nsteps)) % m * dt",
        "phases = (tau_k + 1 + np.arange(nsteps)) % m * dt"),
    "audit-noise-sign": (
        "analysis.py", "2.0 * eps * zk[b] * _pairing(faces, dx, h_grads)",
        "-2.0 * eps * zk[b] * _pairing(faces, dx, h_grads)"),
}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "-m", "not slow and not bytes"]


def check_edits() -> list:
    """The edits that do not match their file exactly once, as messages."""
    bad = []
    for name, (file, old, _) in MUTANTS.items():
        count = (ROOT / "src" / "plrds" / file).read_text().count(old)
        if count != 1:
            bad.append(f"{name}: {file} holds its old text {count} times")
    return bad


def run_suite(src: Path) -> tuple:
    """(passed, first failing test) of the suite with src on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(PYTEST, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, failed[0] if failed else ""


def run_mutant(name: str | None, tmp: Path) -> tuple:
    """Copy src/ under tmp, apply the named edit (none for None), run."""
    src = tmp / (name or "unmutated") / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if name:
        file, old, new = MUTANTS[name]
        path = src / "plrds" / file
        path.write_text(path.read_text().replace(old, new))
    return run_suite(src)


def main() -> int:
    bad = check_edits()
    if bad:
        print("\n".join(bad))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        passed, failed = run_mutant(None, Path(tmp))
        if not passed:
            print(f"the unmutated copy fails {failed or 'the suite'}")
            return 2
        survivors = []
        for name in MUTANTS:
            passed, failed = run_mutant(name, Path(tmp))
            print(f"{'survived' if passed else 'killed  '} {name}"
                  + (f"  ({failed})" if failed else ""), flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
