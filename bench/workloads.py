"""The four benchmark workloads: generated configs, one experiment call each,
and the correctness checks on what the call produced.

Every workload is sized so one call takes 0.25-1.5 s on a 2-core Xeon
sandbox; a run repeats the call until its time is up (see run.py).
The seed picks the noise seed and the initial-state sampler seed; the
program only ever sees the generated config text.  See README.md for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

WORK = Path(".bench_out") / "work"


def _seeds(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")
    return rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Config generation shared by all workloads; `cfg` is set by the runner
    from plrds' own parser, so values reach the program only through it."""

    name = ""
    body = ""
    min_calls = 3
    ref_grid = (257,)    # shape of the reference loop's work (run.py)
    cfg = None

    def __init__(self, seed: int):
        noise_seed, sampler_seed = _seeds(self.name, seed)
        self.dir = WORK / self.name
        self.out = self.dir / "out"
        self.config_path = self.dir / "config.ini"
        self.config_text = self.body.format(
            noise_seed=noise_seed, sampler_seed=sampler_seed,
            out=self.out.as_posix())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(self.config_text)

    def run_problems(self) -> list:
        """Checks that need every call of the run; none by default."""
        return []


class _CliWorkload(Workload):
    """One plrds CLI experiment per call, always written to the same relative
    directory so report.json (which embeds it) is byte-stable."""

    command = ""
    work_unit = "steps"

    def prepare(self, rep: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, plrds, rep: int):
        argv = [self.command, "--config", self.config_path.as_posix(),
                "--workers", "1"]
        try:
            return plrds.cli.main(argv)
        except SystemExit as exc:
            return exc.code

    def check(self, rep: int, code) -> tuple:
        """(problems, digests) for one finished call."""
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        files = sorted(p for p in self.out.glob("*")
                       if p.is_file() and p.name != "manifest.json")
        digests = {p.name: _digest(p) for p in files}
        if code == 0:
            try:
                problems += self.check_outputs()
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        return problems, digests

    def _report(self) -> dict:
        return json.loads((self.out / "report.json").read_text())


class PullbackWorkload(_CliWorkload):
    name = "pullback-1d"
    command = "absorb-check"
    body = """\
[problem]
noise_case = additive
[grid]
dim = 1
n = 257
[stepper]
dt = 0.001
[noise]
seed = {noise_seed}
[experiment]
horizons = 0.5, 1, 2
n_seeds = 2
n_initials = 2
sampler_seed = {sampler_seed}
workers = 1
[output]
directory = {out}
formats = csv, json
"""

    def work(self) -> int:
        cfg = self.cfg
        per = sum(round(h / cfg.dt) for h in cfg.horizons)
        return cfg.n_seeds * cfg.n_initials * per

    def check_outputs(self) -> list:
        cfg = self.cfg
        problems = []
        with open(self.out / "absorbing.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != cfg.n_seeds * len(cfg.horizons):
            problems.append(f"absorbing.csv has {len(rows)} rows")
        bad = [r for r in rows if r["satisfied"] != "true"]
        if bad:
            problems.append(f"{len(bad)} absorbing rows not satisfied")
        if self._report()["n_failures"] != 0:
            problems.append("report.json n_failures != 0")
        return problems


class AttractorWorkload(_CliWorkload):
    name = "attractor-2d"
    command = "estimate-attractor"
    ref_grid = (65, 65)
    body = """\
[problem]
noise_case = multiplicative
[grid]
dim = 2
n = 65
[stepper]
dt = 0.002
[noise]
seed = {noise_seed}
[experiment]
horizon = 1.0
n_initials = 2
sampler_seed = {sampler_seed}
workers = 1
[output]
directory = {out}
formats = csv, binary, json
"""

    def work(self) -> int:
        cfg = self.cfg
        # estimate_attractor also checks contraction at half the horizon.
        full = round(cfg.horizon / cfg.dt)
        return cfg.n_initials * (full // 2 + full)

    def check_outputs(self) -> list:
        # The library exits 0 on an empty ensemble, so count it here.
        members = self._report()["members"]
        problems = [] if members >= 1 else ["empty attractor ensemble"]
        for kind in ("csv", "bin"):
            found = len(list(self.out.glob(f"member_*.{kind}")))
            if found != members:
                problems.append(f"{found} member .{kind} files for "
                                f"{members} members")
        return problems


class AuditWorkload(_CliWorkload):
    name = "audit-1d"
    command = "energy-audit"
    body = """\
[problem]
noise_case = additive
[grid]
dim = 1
n = 257
[stepper]
dt = 0.001
[noise]
seed = {noise_seed}
[experiment]
warmup = 0.5
horizon = 2.5
sampler_seed = {sampler_seed}
workers = 1
[output]
directory = {out}
formats = csv, json
"""

    def work(self) -> int:
        cfg = self.cfg
        return round((cfg.warmup + cfg.horizon) / cfg.dt)

    def check_outputs(self) -> list:
        cfg = self.cfg
        problems = []
        report = self._report()
        if not math.isfinite(report["max_abs_residual"]):
            problems.append("max_abs_residual is not finite")
        with open(self.out / "energy.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != round(cfg.horizon / cfg.dt) + 1:
            problems.append(f"energy.csv has {rows} rows")
        return problems


class NoiseWorkload(Workload):
    """Criterion-12 shape through library calls: per noise seed, a path at
    dt = 0.25, its OU signal over 10^4 time units, and the ergodic ratios.

    The run's seeds form a fixed set visited in batches, one batch per call,
    so a run covers the set at least once (min_calls) and later passes must
    reproduce the first pass bit for bit.
    """

    name = "noise-ergodic"
    work_unit = "ou_nodes"
    batch = 2
    min_calls = 10
    body = """\
[problem]
lam = 1.0
[noise]
seed = {noise_seed}
dt = 0.25
block_length = 4.0
[experiment]
horizon = 10000
n_seeds = 20
"""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.results = {}
        self.passed = {}

    def _batch(self, rep: int) -> list:
        start = (rep % (self.cfg.n_seeds // self.batch)) * self.batch
        return [self.cfg.seed + start + i for i in range(self.batch)]

    def work(self) -> int:
        return self.batch * (round(self.cfg.horizon / self.cfg.path_dt()) + 1)

    def prepare(self, rep: int) -> None:
        self.results = {}

    def call(self, plrds, rep: int):
        cfg, noise = self.cfg, plrds.noise
        for s in self._batch(rep):
            path = noise.make_path(s, cfg.path_dt(), cfg.block_length)
            z = noise.ou_from_path(path, cfg.lam, 0.0, cfg.horizon,
                                   cfg.path_dt())
            self.results[s] = (z, noise.ergodic_diagnostics(z))
        return 0

    def check(self, rep: int, code) -> tuple:
        problems, digests = [], {}
        expected = round(self.cfg.horizon / self.cfg.path_dt()) + 1
        for s, (z, diag) in sorted(self.results.items()):
            if len(z.values) != expected or not np.all(np.isfinite(z.values)):
                problems.append(f"seed {s}: OU values malformed")
            h = hashlib.sha256(np.ascontiguousarray(z.values).tobytes())
            for key in ("horizons", "sublinear_ratio", "mean_ratio"):
                h.update(np.ascontiguousarray(diag[key]).tobytes())
            digests[f"seed-{s}"] = h.hexdigest()
            self.passed[s] = bool(
                np.all(diag["sublinear_ratio"] <= 0.05)
                and np.all(np.abs(diag["mean_ratio"])
                           <= 3.0 / np.sqrt(diag["horizons"])))
        return problems, digests

    def run_problems(self) -> list:
        """Criterion 12 over the whole seed set: >= 95% within bounds."""
        seen, total = len(self.passed), self.cfg.n_seeds
        if seen != total:
            return [f"only {seen} of {total} noise seeds evaluated"]
        ok = sum(self.passed.values())
        if ok < 0.95 * seen:
            return [f"criterion 12 holds on {ok}/{seen} seeds"]
        return []


WORKLOADS = {w.name: w for w in (PullbackWorkload, AttractorWorkload,
                                 AuditWorkload, NoiseWorkload)}
