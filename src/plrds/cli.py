"""Command-line orchestration: experiments, manifests, CSV/JSON reports.

Exit codes: 0 all tasks succeeded, 1 task failure (details in the manifest),
2 usage or configuration error (nothing written).  Identical config + seed
produce bit-identical report files; only the manifest carries wall-clock
fields and is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .config import (_SCHEMA, EXPERIMENTS, FAN_OUT, ConfigError, RunConfig,
                     parse_config)
from .fields import (_write_csv, field_to_binary, field_to_csv,
                     hausdorff_semidistance, l2_sq)
from .integrator import StiffnessError, cocycle_apply
from .noise import make_path, shift


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


class _Manifest:
    """Written before the run starts, finalized when it ends."""

    def __init__(self, out: Path, cfg: RunConfig, seeds):
        self.path = out / "manifest.json"
        self.body = {
            "artifact_version": __version__,
            "experiment": cfg.experiment,
            "config": cfg.as_dict(),
            "seeds": list(seeds),
            "status": "running",
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tasks": [],
            "outputs": [],
        }
        _write_json(self.path, self.body)

    def finish(self, status: str, tasks, outputs) -> None:
        self.body["status"] = status
        self.body["tasks"] = tasks
        self.body["outputs"] = [str(o) for o in outputs]
        self.body["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                 time.gmtime())
        _write_json(self.path, self.body)


def _seeds(cfg: RunConfig) -> list:
    """The run's noise seeds: n_seeds of them for the fan-out experiments."""
    n = cfg.n_seeds if cfg.experiment in FAN_OUT else 1
    return [cfg.seed + i for i in range(n)]


def _paths(cfg: RunConfig) -> list:
    """One noise path per seed of the run, in seed order."""
    return [make_path(s, cfg.path_dt(), cfg.block_length) for s in _seeds(cfg)]


def _noise_path(cfg: RunConfig):
    """The path driving a single-seed run; the deterministic model has none."""
    return None if cfg.noise_case == "deterministic" else _paths(cfg)[0]


def _initials(cfg: RunConfig, n: int) -> list:
    """n initial states drawn from the configured ball."""
    return analysis.sample_initial_ball(cfg.grid(), cfg.ball_radius, n,
                                        cfg.sampler_seed)


def _single_seed_inputs(cfg: RunConfig):
    return (cfg.problem_spec(), cfg.stepper(), _noise_path(cfg),
            _initials(cfg, 1)[0])


def _estimator(cfg: RunConfig) -> partial:
    """estimate_attractor bound to the config's arguments; it still takes tau
    and path.  A cluster_tol of 0 asks for the default tolerance."""
    return partial(analysis.estimate_attractor, spec=cfg.problem_spec(),
                   horizon=cfg.horizon, n_initials=cfg.n_initials, c=cfg.c,
                   grid=cfg.grid(), cfg=cfg.stepper(), quad_tol=cfg.quad_tol,
                   cluster_tol=cfg.cluster_tol or None,
                   sampler_seed=cfg.sampler_seed)


def _series_rows(rec, spec) -> list:
    """One (t, l2_sq, grad_p, q_norm, z, eta) row per node of spec's record."""
    gp = np.asarray(rec.diss_p) ** (1.0 / spec.p)
    qn = np.asarray(rec.diss_q) ** (1.0 / spec.q)
    return list(zip(rec.times, rec.l2_sq, gp, qn, rec.z, rec.eta))


def _write_field(cfg: RunConfig, out: Path, stem: str, field, files) -> None:
    """Write field as stem.csv and/or stem.bin, as cfg.formats asks."""
    # The writers are looked up per call, so wrapping them takes effect.
    for fmt, suffix, writer in (("csv", ".csv", field_to_csv),
                                ("binary", ".bin", field_to_binary)):
        if fmt in cfg.formats:
            files.append(out / (stem + suffix))
            writer(field, files[-1])


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (files, report, failures): the data files
# it wrote, the report.json fields beyond artifact_version/config/seeds, and
# its pullback failures.  run_experiment writes report.json and the manifest.
# ---------------------------------------------------------------------------

def _run_simulate(cfg: RunConfig, out: Path):
    spec, stepper, path, u0 = _single_seed_inputs(cfg)
    endpoint, rec = cocycle_apply(cfg.horizon, cfg.tau, path, u0, spec,
                                  stepper, snapshot_indices=())
    files = [out / "series.csv"]
    _write_csv(files[0], "t,l2_sq,grad_p,q_norm,z,eta",
               _series_rows(rec, spec))
    _write_field(cfg, out, "endpoint", endpoint, files)
    return files, {"endpoint_l2_sq": l2_sq(endpoint),
                   "final_time": cfg.tau + cfg.horizon}, []


def _run_cocycle_test(cfg: RunConfig, out: Path):
    spec, stepper, path, u0 = _single_seed_inputs(cfg)
    residuals = {}
    for (s, t) in ((1.0, 1.0), (2.0, 3.0)):
        long = cocycle_apply(s + t, cfg.tau, path, u0, spec, stepper)
        first = cocycle_apply(s, cfg.tau, path, u0, spec, stepper)
        view = shift(path, s) if path is not None else None
        second = cocycle_apply(t, cfg.tau + s, view, first, spec, stepper)
        residuals[f"({s:g},{t:g})"] = float(
            np.max(np.abs(long.values - second.values)))
    files = [out / "cocycle.csv"]
    _write_csv(files[0], "max_composition_residual",
               [(max(residuals.values()),)])
    return files, {"residuals": residuals}, []


def _run_energy_audit(cfg: RunConfig, out: Path):
    spec, stepper, path, u0 = _single_seed_inputs(cfg)
    nsteps = int(round((cfg.warmup + cfg.horizon) / stepper.dt))
    k0 = int(round(cfg.warmup / stepper.dt))
    _, rec = cocycle_apply(cfg.warmup + cfg.horizon, cfg.tau, path, u0,
                           spec, stepper,
                           snapshot_indices=range(k0, nsteps + 1))
    max_res, series = analysis.energy_audit(rec, spec)
    res_at = dict(zip(series["nodes"], series["residuals"]))
    rows = [row + (res_at.get(k, float("nan")),)
            for k, row in enumerate(_series_rows(rec, spec)[k0:], k0)]
    files = [out / "energy.csv"]
    _write_csv(files[0], "t,l2_sq,grad_p,q_norm,z,eta,residual", rows)
    return files, {"max_abs_residual": max_res,
                   "audited_nodes": len(series["residuals"])}, []


def _run_absorb_check(cfg: RunConfig, out: Path):
    rep = analysis.absorbing_check(
        cfg.tau, cfg.problem_spec(), _paths(cfg),
        _initials(cfg, cfg.n_initials), horizons=cfg.horizons,
        cfg=cfg.stepper(), quad_tol=cfg.quad_tol, c=cfg.c,
        workers=cfg.workers)
    files = [out / "absorbing.csv"]
    _write_csv(files[0], "seed,horizon,endpoint_l2_sq,bound,satisfied",
               rep.rows)
    return files, {"radius_sq": rep.radius_sq, "entry_time": rep.entry_time,
                   "per_path": [{"seed": s, "satisfied": ok, "margin": m}
                                for s, ok, m in rep.per_path],
                   "n_failures": len(rep.failures)}, rep.failures


def _run_tail_check(cfg: RunConfig, out: Path):
    rep = analysis.tail_check(
        cfg.tau, cfg.problem_spec(), _paths(cfg), _initials(cfg, 1)[0],
        horizon=cfg.horizon, k_list=cfg.k_list, cfg=cfg.stepper(),
        n_sigma=cfg.n_sigma, workers=cfg.workers)
    files = [out / "tail.csv"]
    _write_csv(files[0], "seed,k,sigma,tail_mass",
               [(r[0], r[1], r[2], r[3]) for r in rep.rows])
    return files, {"max_per_k": {f"{k:.17g}": v
                                 for k, v in rep.max_per_k.items()},
                   "monotone_in_k": rep.monotone_in_k,
                   "sigmas": list(rep.sigmas),
                   "n_failures": len(rep.failures)}, rep.failures


def _run_estimate_attractor(cfg: RunConfig, out: Path):
    ens = _estimator(cfg)(cfg.tau, path=_noise_path(cfg))
    files = []
    for i, member in enumerate(ens.members):
        _write_field(cfg, out, f"member_{i:03d}", member, files)
    tag = ens.tag
    return files, {"members": len(ens.members), "spread": ens.spread(),
                   "tag": {"tau": tag.tau, "seed": tag.seed,
                           "alpha": tag.alpha, "horizon": tag.horizon}}, \
        list(ens.failures)


def _run_usc_sweep(cfg: RunConfig, out: Path):
    rep = analysis.usc_sweep(
        cfg.tau, cfg.problem_spec(), _paths(cfg), alphas=cfg.alphas,
        horizon=cfg.horizon, n_initials=cfg.n_initials, grid=cfg.grid(),
        cfg=cfg.stepper(), sampler_seed=cfg.sampler_seed,
        quad_tol=cfg.quad_tol, c=cfg.c, workers=cfg.workers)
    files = [out / "usc.csv", out / "usc_medians.csv"]
    _write_csv(files[0], "alpha,seed,distance",
               [(a, s, rep.distances[i, j])
                for i, a in enumerate(rep.alphas)
                for j, s in enumerate(rep.seeds)])
    _write_csv(files[1], "alpha,median_distance",
               [(a, m) for a, m in zip(rep.alphas, rep.medians)])
    return files, {"alphas": list(rep.alphas),
                   "medians": list(rep.medians)}, rep.failures


def _run_periodicity_check(cfg: RunConfig, out: Path):
    paths = _paths(cfg)
    estimate = partial(_estimator(cfg), check_contraction=False)
    first = analysis._run_pool(estimate, [
        {"tau": cfg.tau, "path": p} for p in paths], cfg.workers)
    # The first pass computed the absorbing radius at tau; the second, a
    # period later, reuses its tolerance.
    tols = [e1.tag.cluster_tol for e1 in first]
    second = analysis._run_pool(estimate, [
        {"tau": cfg.tau + cfg.period, "path": p, "cluster_tol": tol}
        for p, tol in zip(paths, tols)], cfg.workers)
    rows, failures = [], []
    for tol, e1, e2 in zip(tols, first, second):
        dist = max(hausdorff_semidistance(e1, e2),
                   hausdorff_semidistance(e2, e1))
        rows.append((e1.tag.seed, cfg.tau, dist, tol, bool(dist <= tol)))
        failures.extend(e1.failures + e2.failures)
    files = [out / "periodicity.csv"]
    _write_csv(files[0], "seed,tau,distance,cluster_tol,within", rows)
    return files, {"all_within": all(r[4] for r in rows)}, failures


_RUNNERS = {
    "simulate": _run_simulate,
    "cocycle-test": _run_cocycle_test,
    "energy-audit": _run_energy_audit,
    "absorb-check": _run_absorb_check,
    "tail-check": _run_tail_check,
    "estimate-attractor": _run_estimate_attractor,
    "usc-sweep": _run_usc_sweep,
    "periodicity-check": _run_periodicity_check,
}


def run_experiment(cfg: RunConfig) -> int:
    """Dispatch a validated config; write manifest + reports; return exit code.

    Exit 1 when the runner raises or reports pullback failures, 2 when the
    output directory cannot be made, else 0."""
    if cfg.experiment == "validate":
        return 0
    out = Path(cfg.directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory: {exc}", file=sys.stderr)
        return 2
    seeds = _seeds(cfg)
    manifest = _Manifest(out, cfg, seeds)
    task = {"task": cfg.experiment, "status": "done"}
    try:
        files, report, failures = _RUNNERS[cfg.experiment](cfg, out)
    except Exception as exc:  # noqa: BLE001 - reported via manifest + exit 1
        detail = exc.report if isinstance(exc, StiffnessError) \
            else f"{type(exc).__name__}: {exc}"
        manifest.finish("failed", [dict(task, status="failed",
                                        detail=detail)], [])
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if "json" in cfg.formats:
        files.append(out / "report.json")
        _write_json(files[-1], {"artifact_version": __version__,
                                "config": cfg.as_dict(), "seeds": seeds,
                                **report})
    task.update(report)
    if failures:
        task.update(status="failed", detail=failures)
    manifest.finish(task["status"], [task], files)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plrds",
        description="Experiment runner for stochastically forced p-Laplace "
                    "reaction-diffusion dynamics.")
    parser.add_argument("--version", action="version",
                        version=f"plrds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(EXPERIMENTS) + "}")
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="path to a sectioned key=value config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the base noise seed")
        sp.add_argument("--out", type=str, default=None,
                        help="override the output directory")
        sp.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: PLRDS_WORKERS or 1)")
    args = parser.parse_args(argv)

    overrides = {"experiment": args.command, "seed": args.seed,
                 "directory": args.out, "workers": args.workers}
    try:
        text = "" if args.config is None else Path(args.config).read_text()
        if args.workers is None and os.environ.get("PLRDS_WORKERS"):
            try:
                overrides["workers"] = int(os.environ["PLRDS_WORKERS"])
            except ValueError:
                raise ConfigError(["PLRDS_WORKERS must be an integer"]) \
                    from None
        cfg = parse_config(text, **{k: v for k, v in overrides.items()
                                    if v is not None})
    except (OSError, ConfigError) as exc:
        for line in getattr(exc, "errors", [exc]):
            print(f"config error: {line}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config OK")
        for section, keys in _SCHEMA.items():
            print(f"  [{section}] " + ", ".join(
                f"{k}={getattr(cfg, a)}" for k, (a, _) in keys.items()))
        return 0
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
