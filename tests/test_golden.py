"""Golden bytes: every report file the CLI writes, pinned by SHA-256.

Each run executes one experiment on a small grid (1D n = 33, plus the 2D
attractor estimates, energy audits and a 2D simulate on n = 17) and hashes
every output file except manifest.json, which carries wall-clock fields.  A
change meant to leave the numbers alone must leave every digest alone.  The
fixture records the environment key it was made under (conftest's
environment_key: the NumPy version, the platform and NumPy's SIMD dispatch);
under another key the last bits of NumPy's transcendentals may differ, so
the comparison is skipped there, naming the entry that differs.

To pin new runs, regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py

which prints every run whose digests it adds, changes or drops.  It writes
the file only when no existing digest changes or drops; after a deliberate
change of output, pass --accept-changes to write it anyway.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import environment_key, skip_unless_environment

from plrds import cli
from plrds.cli import FAN_OUT

pytestmark = pytest.mark.bytes

FIXTURE = Path(__file__).with_name("golden_digests.json")

_BASE = """\
[problem]
noise_case = {case}
[grid]
dim = {dim}
n = {n}
[stepper]
dt = 0.01
[output]
formats = csv,json,binary
[experiment]
"""

# experiment -> (noise cases, [experiment] keys).  usc-sweep sets the case of
# every run itself, so one noise case covers it.
_EXPERIMENTS = {
    "simulate": (("additive", "multiplicative", "deterministic"),
                 "horizon = 1\n"),
    "cocycle-test": (("additive", "multiplicative", "deterministic"), ""),
    "energy-audit": (("additive", "multiplicative", "deterministic"),
                     "warmup = 0.2\nhorizon = 0.3\n"),
    "absorb-check": (("additive", "multiplicative", "deterministic"),
                     "horizons = 0.5, 1\nn_seeds = 2\nn_initials = 2\n"),
    "tail-check": (("additive", "multiplicative", "deterministic"),
                   "horizon = 1\nn_seeds = 2\nn_sigma = 4\n"),
    "estimate-attractor": (("additive", "multiplicative", "deterministic"),
                           "horizon = 1\nn_initials = 3\n"),
    "usc-sweep": (("multiplicative",),
                  "alphas = 0.4, 0.1\nn_seeds = 2\nhorizon = 1\n"),
    "periodicity-check": (("additive", "multiplicative", "deterministic"),
                          "horizon = 1\nn_seeds = 2\n"),
}

RUNS = {f"{exp}-{case}-1d": (exp, _BASE.format(case=case, dim=1, n=33) + keys)
        for exp, (cases, keys) in _EXPERIMENTS.items() for case in cases}
RUNS.update({f"estimate-attractor-{case}-2d": (
    "estimate-attractor",
    _BASE.format(case=case, dim=2, n=17) + "horizon = 1\nn_initials = 3\n")
    for case in _EXPERIMENTS["estimate-attractor"][0]})
RUNS.update({f"energy-audit-{case}-2d": (
    "energy-audit",
    _BASE.format(case=case, dim=2, n=17) + _EXPERIMENTS["energy-audit"][1])
    for case in _EXPERIMENTS["energy-audit"][0]})
# At lam = 8 the absorbing-radius windows are shorter than four time units,
# so the noise-free window rule differs visibly from the noisy one.
RUNS.update({f"absorb-check-{case}-lam8-1d": (
    "absorb-check",
    _BASE.format(case=case, dim=1, n=33).replace("[grid]", "lam = 8\n[grid]")
    + _EXPERIMENTS["absorb-check"][1])
    for case in _EXPERIMENTS["absorb-check"][0]})
# Off tau = 0 the audited node times are not multiples of dt in binary;
# every audited row must still carry its residual.
RUNS.update({f"energy-audit-{case}-tau0.3-1d": (
    "energy-audit",
    _BASE.format(case=case, dim=1, n=33) + "tau = 0.3\n"
    + _EXPERIMENTS["energy-audit"][1])
    for case in _EXPERIMENTS["energy-audit"][0]})
# A custom reaction term, through the multiplicative rescaling f(t, e^z v).
_CUSTOM = ("f_kind = custom\n"
           "f_expression = -abspow(s, 2) + 0.5*sin(2*t)*exp(-(x*x + y*y))\n")
RUNS.update({f"simulate-custom-multiplicative-{dim}d": (
    "simulate",
    _BASE.format(case="multiplicative", dim=dim, n=n).replace(
        "[grid]", _CUSTOM + "[grid]") + "horizon = 1\n")
    for dim, n in ((1, 33), (2, 17))})
# Noise inputs no run above reaches: a constant eta, eta on its own seed's
# path, and a path step half the stepper's, so the OU is read at m = 2.
_NOISE = {"eta-constant": "eta_kind = constant\neta_mean = 0.5\n",
          "eta-seed": "eta_seed = 7\n",
          "noise-dt-half": "dt = 0.005\n"}
RUNS.update({f"simulate-additive-{label}-1d": (
    "simulate",
    _BASE.format(case="additive", dim=1, n=33) + "horizon = 1\n[noise]\n"
    + keys)
    for label, keys in _NOISE.items()})
# The default step: each OU anchor weights 27,633 nodes, where the 2,765 of
# dt = 0.01 sit below the size at which a threaded BLAS would split a dot.
RUNS["simulate-additive-dt1e-3-1d"] = (
    "simulate", _BASE.format(case="additive", dim=1, n=33).replace(
        "dt = 0.01\n", "dt = 0.001\n") + "horizon = 0.2\n")


def run_and_hash(name: str, root: Path, workers: int = 1) -> dict:
    """Run one golden experiment under root; return {file name: sha256}.

    The output directory is given relative to root because report.json
    echoes it.  report.json echoes the worker count too; it is written back
    as 1 before hashing, so every worker count must give the same digests."""
    experiment, text = RUNS[name]
    (root / f"{name}.ini").write_text(text)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = cli.main([experiment, "--config", f"{name}.ini",
                         "--out", f"out/{name}", "--workers", str(workers)])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{name}: plrds {experiment} exited {code}")
    out = root / "out" / name
    if workers != 1:
        report = out / "report.json"
        report.write_text(report.read_text().replace(
            f'"workers": {workers}', '"workers": 1'))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _fixture() -> dict:
    body = json.loads(FIXTURE.read_text())
    skip_unless_environment(body["environment"], "golden digests")
    return body["digests"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path):
    expected = _fixture()[name]
    assert run_and_hash(name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(
    name for name, (experiment, _) in RUNS.items() if experiment in FAN_OUT))
def test_pool_writes_the_golden_bytes(name, tmp_path):
    # The fan-out experiments send noise paths to two worker processes.
    expected = _fixture()[name]
    assert run_and_hash(name, tmp_path, workers=2) == expected


# No output bit reads BLAS, so neither OpenBLAS's thread count nor its kernel
# may move a digest.  Each setting acts only on the child process it is given.
_BLAS_SETTINGS = {"one-thread": {"OPENBLAS_NUM_THREADS": "1"},
                  "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
                  "prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
_BLAS_RUNS = ("simulate-additive-dt1e-3-1d", "absorb-check-multiplicative-1d")
_CHILD = """\
import json, sys
from pathlib import Path
import test_golden
print(json.dumps({name: test_golden.run_and_hash(name, Path(sys.argv[1]))
                  for name in test_golden._BLAS_RUNS}))
"""


@pytest.mark.parametrize("setting", sorted(_BLAS_SETTINGS))
def test_blas_settings_keep_the_golden_bytes(setting, tmp_path):
    if platform.machine() != "x86_64":
        pytest.skip(f"OpenBLAS kernels are named for x86_64, this is "
                    f"{platform.machine()}")
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"NumPy is built against {blas}, not OpenBLAS")
    expected = _fixture()
    here = Path(__file__).parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **_BLAS_SETTINGS[setting],
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got == {name: expected[name] for name in _BLAS_RUNS}


def _report_changes(old: dict, new: dict) -> bool:
    """Print each run whose digests the rewrite adds, changes or drops;
    return whether any existing digest changes or drops."""
    altered = False
    for name in sorted(set(old) | set(new)):
        if name not in old:
            print(f"added   {name}")
        elif name not in new:
            print(f"dropped {name}")
        elif old[name] != new[name]:
            files = sorted(f for f in set(old[name]) | set(new[name])
                           if old[name].get(f) != new[name].get(f))
            print(f"changed {name}: {', '.join(files)}")
        altered |= name in old and old[name] != new.get(name)
    return altered


def main(root: Path, accept_changes: bool = False) -> int:
    """Rewrite the fixture; exit status 1, writing nothing, when an existing
    digest would change or drop and accept_changes is not set."""
    digests = {name: run_and_hash(name, root) for name in sorted(RUNS)}
    old = json.loads(FIXTURE.read_text())["digests"] if FIXTURE.exists() \
        else {}
    if _report_changes(old, digests) and not accept_changes:
        print(f"not writing {FIXTURE}: existing digests would change or "
              "drop; pass --accept-changes if that is deliberate")
        return 1
    body = {"environment": environment_key(), "digests": digests}
    FIXTURE.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({sum(map(len, digests.values()))} files)")
    return 0


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile
    parser = argparse.ArgumentParser(description="Regenerate the fixture.")
    parser.add_argument("--accept-changes", action="store_true",
                        help="write the fixture even when existing digests "
                        "change or drop")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main(Path(tmp), args.accept_changes))
