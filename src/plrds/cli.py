"""Command-line orchestration: experiments, manifests, CSV/JSON reports.

Exit codes: 0 all tasks succeeded, 1 task failure (details in the manifest),
2 usage or configuration error (nothing written).  Identical config + seed
produce bit-identical report files; only the manifest carries wall-clock
fields and is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .config import EXPERIMENTS, ConfigError, RunConfig, parse_config
from .fields import field_to_binary, field_to_csv, hausdorff_semidistance, l2_sq
from .integrator import StiffnessError, cocycle_apply
from .noise import make_path, shift


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, bool))
                              else _fmt(c) for c in row)
                     .replace("True", "true").replace("False", "false") + "\n")


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


def _report_base(cfg: RunConfig, seeds) -> dict:
    return {"artifact_version": __version__, "config": cfg.as_dict(),
            "seeds": list(seeds)}


def _noise_path(cfg: RunConfig, seed: int):
    """The path driving seed's run; the deterministic model has none."""
    return None if cfg.noise_case == "deterministic" else \
        make_path(seed, cfg.path_dt(), cfg.block_length)


def _single_seed_inputs(cfg: RunConfig):
    spec = cfg.problem_spec()
    grid = cfg.grid()
    stepper = cfg.stepper()
    path = _noise_path(cfg, cfg.seed)
    u0 = analysis.sample_initial_ball(grid, cfg.ball_radius, 1,
                                      cfg.sampler_seed)[0]
    return spec, grid, stepper, path, u0


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (exit_code, tasks, outputs).
# ---------------------------------------------------------------------------

def _run_simulate(cfg: RunConfig, out: Path):
    spec, grid, stepper, path, u0 = _single_seed_inputs(cfg)
    try:
        endpoint, rec = cocycle_apply(cfg.horizon, cfg.tau, path, u0, spec,
                                      stepper, with_record=True)
    except StiffnessError as exc:
        return 1, [{"task": "simulate", "status": "failed",
                    "detail": exc.report}], []
    outputs = []
    series = out / "series.csv"
    rec.to_csv(series)
    outputs.append(series)
    if "csv" in cfg.formats:
        fp = out / "endpoint.csv"
        field_to_csv(endpoint, fp)
        outputs.append(fp)
    if "binary" in cfg.formats:
        fp = out / "endpoint.bin"
        field_to_binary(endpoint, fp)
        outputs.append(fp)
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, [cfg.seed])
        body["endpoint_l2_sq"] = l2_sq(endpoint)
        body["final_time"] = cfg.tau + cfg.horizon
        _write_json(fp, body)
        outputs.append(fp)
    return 0, [{"task": "simulate", "status": "done"}], outputs


def _run_cocycle_test(cfg: RunConfig, out: Path):
    spec, grid, stepper, path, u0 = _single_seed_inputs(cfg)
    residuals = {}
    for (s, t) in ((1.0, 1.0), (2.0, 3.0)):
        long = cocycle_apply(s + t, cfg.tau, path, u0, spec, stepper)
        first = cocycle_apply(s, cfg.tau, path, u0, spec, stepper)
        view = shift(path, s) if path is not None else None
        second = cocycle_apply(t, cfg.tau + s, view, first, spec, stepper)
        residuals[f"({s:g},{t:g})"] = float(
            np.max(np.abs(long.values - second.values)))
    worst = max(residuals.values())
    csv = out / "cocycle.csv"
    _write_csv(csv, "max_composition_residual", [(worst,)])
    outputs = [csv]
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, [cfg.seed])
        body["residuals"] = residuals
        _write_json(fp, body)
        outputs.append(fp)
    return 0, [{"task": "cocycle-test", "status": "done",
                "residual": worst}], outputs


def _run_energy_audit(cfg: RunConfig, out: Path):
    spec, grid, stepper, path, u0 = _single_seed_inputs(cfg)
    nsteps = int(round((cfg.warmup + cfg.horizon) / stepper.dt))
    k0 = int(round(cfg.warmup / stepper.dt))
    try:
        _, rec = cocycle_apply(cfg.warmup + cfg.horizon, cfg.tau, path, u0,
                               spec, stepper,
                               snapshot_indices=range(k0, nsteps + 1),
                               with_record=True)
    except StiffnessError as exc:
        return 1, [{"task": "energy-audit", "status": "failed",
                    "detail": exc.report}], []
    max_res, series = analysis.energy_audit(rec, spec)
    res_at = {float(t): r for t, r in zip(series["times"] - cfg.tau,
                                          series["residuals"])}
    rows = []
    gp = np.asarray(rec.diss_p) ** (1.0 / spec.p)
    qn = np.asarray(rec.diss_q) ** (1.0 / spec.q)
    for k in range(k0, nsteps + 1):
        elapsed = k * stepper.dt
        rows.append((rec.times[k], rec.l2_sq[k], gp[k], qn[k], rec.z[k],
                     rec.eta[k], res_at.get(elapsed, float("nan"))))
    csv = out / "energy.csv"
    _write_csv(csv, "t,l2_sq,grad_p,q_norm,z,eta,residual", rows)
    outputs = [csv]
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, [cfg.seed])
        body["max_abs_residual"] = max_res
        body["audited_nodes"] = len(series["residuals"])
        _write_json(fp, body)
        outputs.append(fp)
    return 0, [{"task": "energy-audit", "status": "done",
                "max_abs_residual": max_res}], outputs


def _run_absorb_check(cfg: RunConfig, out: Path):
    rep = analysis.absorbing_check(
        cfg.tau, cfg.problem_spec(), horizons=cfg.horizons,
        n_seeds=cfg.n_seeds, n_initials=cfg.n_initials, grid=cfg.grid(),
        cfg=cfg.stepper(), noise_dt=cfg.path_dt(),
        block_length=cfg.block_length, base_seed=cfg.seed,
        ball_radius=cfg.ball_radius, sampler_seed=cfg.sampler_seed,
        quad_tol=cfg.quad_tol, c=cfg.c, workers=cfg.workers)
    csv = out / "absorbing.csv"
    _write_csv(csv, "seed,horizon,endpoint_l2_sq,bound,satisfied", rep.rows)
    outputs = [csv]
    seeds = [cfg.seed + i for i in range(cfg.n_seeds)]
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, seeds)
        body["radius_sq"] = rep.radius_sq
        body["entry_time"] = rep.entry_time
        body["per_path"] = [{"seed": s, "satisfied": ok, "margin": m}
                            for s, ok, m in rep.per_path]
        body["n_failures"] = len(rep.failures)
        _write_json(fp, body)
        outputs.append(fp)
    tasks = [{"task": "absorb-check", "status": "done",
              "entry_time": rep.entry_time}]
    if rep.failures:
        tasks.append({"task": "absorb-check", "status": "failed",
                      "detail": [str(f) for f in rep.failures]})
        return 1, tasks, outputs
    return 0, tasks, outputs


def _run_tail_check(cfg: RunConfig, out: Path):
    rep = analysis.tail_check(
        cfg.tau, cfg.problem_spec(), horizon=cfg.horizon, k_list=cfg.k_list,
        n_seeds=cfg.n_seeds, grid=cfg.grid(), cfg=cfg.stepper(),
        noise_dt=cfg.path_dt(), block_length=cfg.block_length,
        base_seed=cfg.seed, ball_radius=cfg.ball_radius,
        sampler_seed=cfg.sampler_seed, n_sigma=cfg.n_sigma,
        workers=cfg.workers)
    csv = out / "tail.csv"
    _write_csv(csv, "seed,k,sigma,tail_mass",
               [(r[0], r[1], r[2], r[3]) for r in rep.rows])
    outputs = [csv]
    seeds = [cfg.seed + i for i in range(cfg.n_seeds)]
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, seeds)
        body["max_per_k"] = {_fmt(k): v for k, v in rep.max_per_k.items()}
        body["monotone_in_k"] = rep.monotone_in_k
        body["sigmas"] = list(rep.sigmas)
        body["n_failures"] = len(rep.failures)
        _write_json(fp, body)
        outputs.append(fp)
    if rep.failures:
        return 1, [{"task": "tail-check", "status": "failed",
                    "detail": [str(f) for f in rep.failures]}], outputs
    return 0, [{"task": "tail-check", "status": "done"}], outputs


def _run_estimate_attractor(cfg: RunConfig, out: Path):
    spec = cfg.problem_spec()
    path = _noise_path(cfg, cfg.seed)
    ens = analysis.estimate_attractor(
        cfg.tau, spec, path, cfg.horizon, n_initials=cfg.n_initials,
        grid=cfg.grid(), cfg=cfg.stepper(),
        cluster_tol=cfg.cluster_tol if cfg.cluster_tol > 0 else None,
        sampler_seed=cfg.sampler_seed, quad_tol=cfg.quad_tol, c=cfg.c)
    outputs = []
    for i, member in enumerate(ens.members):
        if "csv" in cfg.formats:
            fp = out / f"member_{i:03d}.csv"
            field_to_csv(member, fp)
            outputs.append(fp)
        if "binary" in cfg.formats:
            fp = out / f"member_{i:03d}.bin"
            field_to_binary(member, fp)
            outputs.append(fp)
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, [cfg.seed])
        body["members"] = len(ens.members)
        body["spread"] = ens.spread()
        body["tag"] = {"tau": ens.tag.tau, "seed": ens.tag.seed,
                       "alpha": ens.tag.alpha, "horizon": ens.tag.horizon}
        _write_json(fp, body)
        outputs.append(fp)
    return 0, [{"task": "estimate-attractor", "status": "done",
                "members": len(ens.members)}], outputs


def _run_usc_sweep(cfg: RunConfig, out: Path):
    rep = analysis.usc_sweep(
        cfg.tau, cfg.problem_spec(), alphas=cfg.alphas, n_seeds=cfg.n_seeds,
        horizon=cfg.horizon, n_initials=cfg.n_initials, grid=cfg.grid(),
        cfg=cfg.stepper(), noise_dt=cfg.path_dt(),
        block_length=cfg.block_length, base_seed=cfg.seed,
        sampler_seed=cfg.sampler_seed, quad_tol=cfg.quad_tol, c=cfg.c,
        workers=cfg.workers)
    csv = out / "usc.csv"
    _write_csv(csv, "alpha,seed,distance",
               [(a, s, rep.distances[i, j])
                for i, a in enumerate(rep.alphas)
                for j, s in enumerate(rep.seeds)])
    med = out / "usc_medians.csv"
    _write_csv(med, "alpha,median_distance",
               [(a, m) for a, m in zip(rep.alphas, rep.medians)])
    outputs = [csv, med]
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, list(rep.seeds))
        body["alphas"] = list(rep.alphas)
        body["medians"] = list(rep.medians)
        _write_json(fp, body)
        outputs.append(fp)
    return 0, [{"task": "usc-sweep", "status": "done"}], outputs


def _run_periodicity_check(cfg: RunConfig, out: Path):
    spec = cfg.problem_spec()
    grid = cfg.grid()
    stepper = cfg.stepper()
    rows = []
    for i in range(cfg.n_seeds):
        seed = cfg.seed + i
        path = _noise_path(cfg, seed)
        bound = analysis.absorbing_bound(cfg.tau, path, spec, cfg.quad_tol,
                                         grid, cfg.c)
        tol = cfg.cluster_tol if cfg.cluster_tol > 0 \
            else 1e-4 * math.sqrt(bound)
        e1 = analysis.estimate_attractor(
            cfg.tau, spec, path, cfg.horizon, n_initials=cfg.n_initials,
            grid=grid, cfg=stepper, cluster_tol=tol,
            sampler_seed=cfg.sampler_seed, quad_tol=cfg.quad_tol, c=cfg.c,
            check_contraction=False)
        e2 = analysis.estimate_attractor(
            cfg.tau + cfg.period, spec, path, cfg.horizon,
            n_initials=cfg.n_initials, grid=grid, cfg=stepper,
            cluster_tol=tol, sampler_seed=cfg.sampler_seed,
            quad_tol=cfg.quad_tol, c=cfg.c, check_contraction=False)
        dist = max(hausdorff_semidistance(e1, e2),
                   hausdorff_semidistance(e2, e1))
        rows.append((seed, cfg.tau, dist, tol, bool(dist <= tol)))
    csv = out / "periodicity.csv"
    _write_csv(csv, "seed,tau,distance,cluster_tol,within", rows)
    outputs = [csv]
    if "json" in cfg.formats:
        fp = out / "report.json"
        body = _report_base(cfg, [cfg.seed + i for i in range(cfg.n_seeds)])
        body["all_within"] = all(r[4] for r in rows)
        _write_json(fp, body)
        outputs.append(fp)
    return 0, [{"task": "periodicity-check", "status": "done",
                "all_within": all(r[4] for r in rows)}], outputs


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
    """Dispatch a validated config; write manifest + reports; return exit code."""
    if cfg.experiment == "validate":
        return 0
    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.experiment in ("absorb-check", "tail-check", "usc-sweep",
                          "periodicity-check"):
        seeds = [cfg.seed + i for i in range(cfg.n_seeds)]
    else:
        seeds = [cfg.seed]
    manifest = _Manifest(out, cfg, seeds)
    try:
        code, tasks, outputs = _RUNNERS[cfg.experiment](cfg, out)
    except Exception as exc:  # noqa: BLE001 - reported via manifest + exit 1
        manifest.finish("failed", [{"task": cfg.experiment, "status": "failed",
                                    "detail": f"{type(exc).__name__}: {exc}"}],
                        [])
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    manifest.finish("done" if code == 0 else "failed", tasks, outputs)
    return code


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

    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    cfg.experiment = args.command
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.directory = args.out
    if args.workers is not None:
        cfg.workers = args.workers
    elif os.environ.get("PLRDS_WORKERS"):
        try:
            cfg.workers = max(1, int(os.environ["PLRDS_WORKERS"]))
        except ValueError:
            print("config error: PLRDS_WORKERS must be an integer",
                  file=sys.stderr)
            return 2

    if args.command == "validate":
        print("config OK")
        for section, keys in (("problem", ("noise_case", "lam", "p", "q",
                                           "alpha", "epsilon")),
                              ("grid", ("dim", "half_width", "n")),
                              ("stepper", ("dt", "scheme")),
                              ("noise", ("seed",)),
                              ("experiment", ("experiment", "workers"))):
            vals = ", ".join(f"{k}={getattr(cfg, k)}" for k in keys)
            print(f"  [{section}] {vals}")
        return 0
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
