"""plrds benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload pullback-1d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare OLD NEW

A run imports plrds from this checkout's src/ and repeats the workload's
experiment call until --seconds have passed, checking every call's outputs;
spread over the same window it times the program's set-up in fresh
interpreters.  With --trace 1 it alternates untraced and traced calls and
reports per-layer numbers from spans recorded at the module boundaries
(spans.py).  See README.md for the workloads and metrics.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  A fuller record, with the machine, the per-call times and the
SHA-256 digests of every report file, goes to
.bench_out/results/<workload>-seed<seed>-trace<0|1>.json; --compare reads
two such files or directories and prints per-workload, per-metric ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

# One thread per process, set before NumPy loads: OpenBLAS otherwise starts a
# spinning worker per core for plrds' few matrix-vector products, which takes
# the second core and made call times jump between runs by up to 1.5x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
SETUP_RUNS = 5
REF_ROUNDS = {1: 3000, 2: 200}     # about 30 ms each on a 2-core Xeon
REF_PIECES = 5
SETUP_TIMEOUT_S = 60

# Setup probe: a fresh interpreter imports the CLI (and with it scipy.signal)
# and parses the run's config, as every `plrds` invocation does.
_PROBE = """\
import sys
sys.path.insert(0, "src")
import plrds, plrds.cli
from plrds.config import parse_config
with open(sys.argv[1]) as fh:
    parse_config(fh.read())
print("ready", flush=True)
"""


def reference_loop(grid: tuple) -> float:
    """Seconds for a fixed mix of interpreter and NumPy work shaped like one
    step of the workload's stepper on `grid` (a 1D flux difference, or the 2D
    padded face kernel), which no plrds change can move.  The host's speed
    drifts by up to 2x over minutes, and this loop slows with it, so call
    times are read against it (`wall_ref`).  It runs in REF_PIECES pieces
    and reports REF_PIECES x the median piece: a stall of a few ms would skew
    a 30 ms loop, while the far longer call absorbs it."""
    u = np.linspace(0.0, 1.0, int(np.prod(grid))).reshape(grid)
    acc = 0
    pieces = []
    for _ in range(REF_PIECES):
        t0 = time.perf_counter()
        for i in range(REF_ROUNDS[len(grid)] // REF_PIECES):
            if u.ndim == 1:
                g = np.diff(u) * 256.0
                u[1:-1] += 1e-9 * np.diff(np.abs(g) * g)
            else:
                pad = np.pad(u, 1)
                gx = np.diff(pad, axis=0)[:, 1:-1] * 64.0
                gy = np.diff(pad, axis=1)[1:-1, :] * 64.0
                u += 1e-9 * (np.diff((gx * gx + 1e-4) ** 0.25 * gx, axis=0)
                             + np.diff((gy * gy + 1e-4) ** 0.25 * gy, axis=1))
            for j in range(40):
                acc += i ^ j
        pieces.append(time.perf_counter() - t0)
    if acc <= 0 or not np.isfinite(u).all():
        raise RuntimeError("reference loop went wrong")
    return REF_PIECES * statistics.median(pieces)


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def machine_record() -> dict:
    """What makes two results comparable: same machine and toolchain."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def source_record() -> dict:
    """Git SHA and dirty flag when the checkout is a repository, plus a hash
    of the package sources that identifies the code either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plrds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    rec = {"src_sha256": h.hexdigest(), "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30)
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            rec["git_sha"] = head.stdout.strip()
            rec["git_dirty"] = bool(git("status", "--porcelain").stdout.strip())
    return rec


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics, in the order
    BENCHMARK.json lists them; the printed result must match it exactly."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def probe_setup(config_path: Path) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _PROBE,
                             config_path.as_posix()],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def import_plrds():
    sys.path.insert(0, str(ROOT / "src"))
    import plrds
    import plrds.cli
    here = Path(plrds.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise ImportError(f"plrds imported from {here}, not this checkout")
    return plrds


def _digest_store_check(key: str, digests: dict, counts: dict | None) -> list:
    """Compare this run's digests (and exact counts) with earlier runs of the
    same workload, seed and source hash in this checkout."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    entry = store.setdefault(key, {})
    problems = []
    for name, new in (("digests", digests), ("counts", counts)):
        if new is None:
            continue
        old = entry.get(name)
        if old is not None and old != new:
            problems.append(f"{name} differ from an earlier run of this "
                            "workload, seed and source")
        entry.setdefault(name, new)
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return problems


def run(args) -> int:
    os.chdir(ROOT)
    if not (Path("src") / "plrds" / "__init__.py").is_file():
        return _fail("no src/plrds in this checkout; nothing to benchmark")
    wl = WORKLOADS[args.workload](args.seed)
    plrds = import_plrds()
    wl.cfg = plrds.config.parse_config(wl.config_text)
    run_id = uuid.uuid4().hex
    tracer = spans.Tracer(run_id) if args.trace else None

    calls = []           # one dict per experiment call
    setup = []           # set-up probes, spread over the measured window
    reference = {}       # first digest seen per report file / noise seed
    min_calls = max(wl.min_calls, 5 if args.trace else 0)
    start = None
    rep = 0
    while True:
        traced = bool(args.trace) and rep > 0 and rep % 2 == 0
        wl.prepare(rep)
        ref = reference_loop(wl.ref_grid)
        if traced:
            tracer.install(rep)
        crash = None
        try:
            t0 = time.perf_counter()
            code = wl.call(plrds, rep)
            wall = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a crashing call is a failed call
            wall, crash = time.perf_counter() - t0, traceback.format_exc()
        finally:
            if traced:
                tracer.restore()
        problems, digests = ([f"call raised: {crash}"], {}) if crash \
            else wl.check(rep, code)
        for name, d in digests.items():
            if reference.setdefault(name, d) != d:
                problems.append(f"{name} differs from the first call")
        calls.append({"rep": rep, "warmup": rep == 0, "traced": traced,
                      "wall_s": wall, "ref_s": ref,
                      "problems": problems})
        rep += 1
        now = time.perf_counter()
        if start is None:             # the first call only warms up
            start = now
        if len(setup) < SETUP_RUNS and \
                now >= start + len(setup) * args.seconds / SETUP_RUNS:
            setup.append(probe_setup(wl.config_path))
        elif now >= start + args.seconds and rep >= min_calls:
            break

    run_problems = list(wl.run_problems())
    # Each call against the mean of the reference loops just before and
    # just after it, so both sides of the ratio see the same host phase.
    refs = [c["ref_s"] for c in calls] + [reference_loop(wl.ref_grid)]
    for c, after in zip(calls, refs[1:]):
        c["wall_ref"] = c["wall_s"] / (0.5 * (c["ref_s"] + after))
    # Failed calls are not timed, so a failure cannot read as a speed-up.
    timed = [c for c in calls if not c["warmup"] and not c["traced"]
             and not c["problems"]] or calls
    wall_ref = statistics.median(c["wall_ref"] for c in timed)
    # Raw seconds drift with the host between runs minutes apart, by more
    # than any useful bound, so they are recorded and traced but not gated.
    wall_s = min(c["wall_s"] for c in timed)
    layer = None
    if args.trace:
        per_rep = [spans.rep_metrics(tracer.spans, c["rep"])
                   for c in calls if c["traced"]]
        for k in spans.EXACT:
            if len({r[k] for r in per_rep}) != 1:
                run_problems.append(f"{k} drifts between traced calls: "
                                    f"{sorted({r[k] for r in per_rep})}")
        counted = per_rep[0]["integrator.steps"] if wl.work_unit == "steps" \
            else per_rep[0]["noise.ou_nodes"]
        if counted != wl.work():
            run_problems.append(f"traced {wl.work_unit} {counted} != "
                                f"expected {wl.work()}")
        layer = spans.summarize(per_rep)
        layer["wall_s"] = wall_s
        # Each traced call against the untraced call just before it, so both
        # sides of a ratio see the same phase of the host.
        layer["trace.overhead_ratio"] = statistics.median(
            c["wall_s"] / prev["wall_s"]
            for prev, c in zip(calls, calls[1:]) if c["traced"])
    src = source_record()
    run_problems += _digest_store_check(
        f"{wl.name}|{args.seed}|{src['src_sha256']}", reference,
        {k: layer[k] for k in spans.EXACT} if layer else None)

    attempted = len(calls)
    failed = attempted if run_problems else \
        sum(1 for c in calls if c["problems"])
    end_to_end = {
        "wall_ref": wall_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    shown = layer if args.trace else end_to_end
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(shown):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(shown))}")
    metrics = {k: {"value": shown[k], "unit": u} for k, u in units.items()}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_id": run_id,
        "machine": machine_record(), "source": src,
        "config": wl.config_text, "work_unit": wl.work_unit,
        "work_per_call": wl.work(),
        "wall_s": wall_s,
        "wall_s_median": statistics.median(c["wall_s"] for c in timed),
        f"{wl.work_unit}_per_s": wl.work() / wall_s,
        "fail_ratio": failed / attempted,
        "setup_runs_s": setup, "calls": calls, "run_problems": run_problems,
        "digests": reference, "end_to_end": end_to_end, "per_layer": layer,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "trace" / f"{stem}.json")

    for c in calls:
        for p in c["problems"]:
            print(f"call {c['rep']}: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"run: {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _load_results(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(old_path: Path, new_path: Path) -> int:
    """Per-workload, per-metric ratios new/old of the medians over the
    result files on each side; refuses results from different machines."""
    old, new = _load_results(old_path), _load_results(new_path)
    if not old or not new:
        return _fail("nothing to compare")
    machines = {json.dumps(r["machine"], sort_keys=True) for r in old + new}
    if len(machines) != 1:
        for m in sorted(machines):
            print(f"machine: {m}", file=sys.stderr)
        return _fail("refusing to compare results from different machines")

    def medians(results):
        table = {}
        for r in results:
            # The raw figures the record keeps beside the printed metrics.
            rate = f"{r['work_unit']}_per_s"
            shown = {"wall_s": ("s", r["wall_s"]),
                     "wall_s_median": ("s", r["wall_s_median"]),
                     rate: ("1/s", r[rate]),
                     "fail_ratio": ("ratio", r["fail_ratio"])}
            shown.update((name, (m["unit"], m["value"]))
                         for name, m in r["metrics"].items())
            for name, (unit, value) in shown.items():
                table.setdefault((r["workload"], r["trace"], name),
                                 (unit, []))[1].append(value)
        return {k: (u, statistics.median(v), len(v))
                for k, (u, v) in table.items()}

    a, b = medians(old), medians(new)
    print(f"{'workload':<14} {'metric':<40} {'old':>12} {'new':>12} "
          f"{'new/old':>8}  n")
    for key in sorted(a.keys() & b.keys()):
        (unit, va, na), (_, vb, nb) = a[key], b[key]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{key[0]:<14} {key[2]:<40} {va:12.6g} {vb:12.6g} {ratio}  "
              f"{na}/{nb} {unit}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured window (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
