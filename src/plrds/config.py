"""Sectioned key=value run configuration: parsing, validation, builders.

The format is INI-like ([section] headers, key = value lines, # or ;
comments).  Parsing is hand-rolled rather than delegated to configparser
because the contract requires rejecting duplicate keys with both line
numbers, and configparser silently merges duplicates.  Every error carries
the offending line number, and validation reports all errors at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields, replace

from .analysis import (DEFAULT_ALPHAS, DEFAULT_C, DEFAULT_HORIZONS,
                       DEFAULT_K_LIST, DEFAULT_N_SIGMA, DEFAULT_SAMPLER_SEED)
from .fields import Grid
from .integrator import StepperConfig
from .noise import (ARG_RULES, BLOCK_LENGTH, QUAD_TOL, EtaConfig, arg_rules,
                    snap_steps, violated)
from .problem import NonlinearitySpec, ProblemSpec

# Each experiment, with the [experiment] times it steps to; each must sit on
# the stepper's dt grid.
EXPERIMENTS = {"validate": (), "simulate": ("horizon",), "cocycle-test": (),
               "energy-audit": ("warmup", "horizon"),
               "absorb-check": ("horizons",), "tail-check": ("horizon",),
               "estimate-attractor": ("horizon",), "usc-sweep": ("horizon",),
               "periodicity-check": ("horizon",)}
# The experiments that build one noise path per seed, n_seeds of them.
FAN_OUT = ("absorb-check", "tail-check", "usc-sweep", "periodicity-check")
# An energy audit's (horizon/dt + 1) * n^dim snapshot floats: 512 MiB at most.
MAX_AUDIT_FLOATS = 2 ** 26


class ConfigError(ValueError):
    """Carries every validation error found in a config, one per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class RunConfig:
    """Resolved run configuration; model and grid defaults are the
    dataclasses', experiment defaults the library's."""

    # [problem]
    lam: float = ProblemSpec.lam
    p: float = ProblemSpec.p
    q: float = ProblemSpec.q
    alpha: float = ProblemSpec.alpha
    epsilon: float = ProblemSpec.epsilon
    noise_case: str = ProblemSpec.noise_case
    g_amp: float = ProblemSpec.g_amp
    period: float = ProblemSpec.period
    delta: float = ProblemSpec.delta
    gamma: float = NonlinearitySpec.gamma
    phi_amp: float = NonlinearitySpec.phi_amp
    f_kind: str = NonlinearitySpec.kind
    f_expression: str = ""
    # [grid]
    dim: int = Grid.dim
    half_width: float = Grid.half_width
    n: int = Grid.n
    # [stepper]
    dt: float = StepperConfig.dt
    scheme: str = StepperConfig.scheme
    substep_limit: int = StepperConfig.substep_limit
    # [noise]
    seed: int = 0
    noise_dt: float = 0.0          # 0 -> use stepper dt
    block_length: float = BLOCK_LENGTH
    eta_kind: str = EtaConfig.kind
    eta_mean: float = EtaConfig.mean
    eta_rate: float = EtaConfig.rate
    eta_seed: int = -1             # -1 -> same path as the driving noise
    # [experiment]
    experiment: str = "simulate"
    tau: float = 0.0
    horizon: float = 8.0
    horizons: tuple = DEFAULT_HORIZONS
    k_list: tuple = DEFAULT_K_LIST
    alphas: tuple = DEFAULT_ALPHAS
    n_seeds: int = 8
    n_initials: int = 2
    c: float = DEFAULT_C
    quad_tol: float = QUAD_TOL
    cluster_tol: float = 0.0       # 0 -> estimate_attractor's default
    ball_radius: float = 1.0
    sampler_seed: int = DEFAULT_SAMPLER_SEED
    warmup: float = 0.5
    workers: int = 1
    n_sigma: int = DEFAULT_N_SIGMA
    # [output]
    directory: str = "out"
    formats: tuple = ("csv", "json")

    def problem_spec(self) -> ProblemSpec:
        return _built(ProblemSpec, self,
                      nonlinearity=_built(NonlinearitySpec, self),
                      eta=_built(EtaConfig, self))

    def grid(self) -> Grid:
        return _built(Grid, self)

    def stepper(self) -> StepperConfig:
        return _built(StepperConfig, self)

    def path_dt(self) -> float:
        return self.noise_dt if self.noise_dt > 0 else self.dt

    def as_dict(self) -> dict:
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_list(text: str):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(_float(s) for s in items)


def _str_list(text: str):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _converter(default):
    """The parser of a key, chosen by the type of its RunConfig default."""
    if isinstance(default, tuple):
        return _float_list if isinstance(default[0], float) else _str_list
    return {float: _float, int: int, str: str}[type(default)]


# Section -> the RunConfig attributes its keys set.  Each key is named after
# its attribute, except that [noise] dt sets noise_dt.
_SECTIONS = {
    "problem": ("lam", "p", "q", "alpha", "epsilon", "noise_case", "g_amp",
                "period", "delta", "gamma", "phi_amp", "f_kind",
                "f_expression"),
    "grid": ("dim", "half_width", "n"),
    "stepper": ("dt", "scheme", "substep_limit"),
    "noise": ("seed", "noise_dt", "block_length", "eta_kind", "eta_mean",
              "eta_rate", "eta_seed"),
    "experiment": ("tau", "horizon", "horizons", "k_list", "alphas",
                   "n_seeds", "n_initials", "c", "quad_tol", "cluster_tol",
                   "ball_radius", "sampler_seed", "warmup", "workers",
                   "n_sigma"),
    "output": ("directory", "formats"),
}

# Schema: section -> key -> (attribute, converter).  [grid] l is short for
# half_width.
_SCHEMA = {section: {"dt" if a == "noise_dt" else a:
                     (a, _converter(getattr(RunConfig, a))) for a in attrs}
           for section, attrs in _SECTIONS.items()}
_SCHEMA["grid"]["l"] = _SCHEMA["grid"]["half_width"]


def _scan(text: str):
    """Tokenize into {attribute: (raw_value, line_no, converter, key,
    section)} plus errors; [grid] l and half_width are one attribute."""
    entries = {}
    errors = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = "?" + section
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} before any [section]")
            continue
        if section.startswith("?"):
            continue  # already reported the unknown section once
        if key not in _SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in "
                          f"section [{section}]")
            continue
        attr, conv = _SCHEMA[section][key]
        if attr in entries:
            first = entries[attr][1]
            errors.append(f"line {lineno}: duplicate key {key!r} in section "
                          f"[{section}] (lines {first} and {lineno})")
            continue
        entries[attr] = (value, lineno, conv, key, section)
    return entries, errors


# The dataclasses that hold a config's model parameters, each with its map
# from dataclass field to RunConfig attribute where the two names differ.
_BUILT = {ProblemSpec: {}, Grid: {}, StepperConfig: {},
          NonlinearitySpec: {"kind": "f_kind", "expression": "f_expression"},
          EtaConfig: {k: "eta_" + k for k in ("kind", "mean", "rate", "seed")}}


def _built(cls, cfg: RunConfig, **nested):
    """cls, one of _BUILT, from cfg's attributes; an empty expression and a
    negative eta seed stand for None."""
    values = dict(vars(cfg), **nested, f_expression=cfg.f_expression or None,
                  eta_seed=None if cfg.eta_seed < 0 else cfg.eta_seed)
    alias = _BUILT[cls]
    return cls(**{f.name: values[alias.get(f.name, f.name)]
                  for f in dc_fields(cls)})


def _validate(cfg: RunConfig, lines: dict, experiment) -> list:
    """Cross-field validation; lines maps attribute -> source line number.
    With an experiment named, also the rules its run applies to the inputs
    it reads.

    Rules on values a dataclass holds come from that dataclass, and rules on
    one argument of a library call from noise.ARG_RULES, so a config error
    and the library's ValueError carry the same message."""

    def at(*attrs):
        ln = next((lines[a] for a in attrs if a in lines), None)
        return f"line {ln}: " if ln else ""

    values = vars(cfg)
    errors = []
    for cls, alias in _BUILT.items():
        view = dict(values, **{k: values[a] for k, a in alias.items()})
        errors += [at(alias.get(k, k)) + m for k, m in cls.violations(view)]
    # The run snaps these to the stepper's and noise path's grids, or fails.
    snaps = [(a, cfg.dt) for a in
             ("period", "tau") + EXPERIMENTS.get(experiment, ())]
    if experiment and (cfg.noise_case != "deterministic"
                       or experiment in FAN_OUT):
        snaps += [("block_length", cfg.dt), ("dt", cfg.path_dt())]
    for attr, step in snaps:
        value = getattr(cfg, attr)
        try:
            for v in value if isinstance(value, tuple) else (value,):
                if step > 0:
                    snap_steps(v, step, attr)
        except ValueError as exc:
            errors.append(f"{at(attr, 'dt', 'noise_dt')}{exc}")
    spec_keys = {f.name for f in dc_fields(ProblemSpec)}
    audit_floats = (round(cfg.horizon / cfg.dt) + 1) * cfg.n ** cfg.dim \
        if experiment == "energy-audit" and cfg.dt > 0 else 0
    bad = [f for f in cfg.formats if f not in ("csv", "json", "binary")]
    errors += [at(attr) + m for attr, m in violated(
        ("noise_dt", cfg.noise_dt >= 0,
         "noise dt must be ≥ 0 (0 = stepper dt)"),
        ("block_length", cfg.block_length > 0, "block_length must be > 0"),
        ("horizon", experiment != "tail-check" or cfg.horizon >= 1,
         "tail_check samples the last time unit; horizon >= 1"),
        ("horizon", experiment != "energy-audit" or cfg.horizon > cfg.dt,
         "audit needs snapshots at three or more consecutive nodes"),
        ("horizon", audit_floats <= MAX_AUDIT_FLOATS, f"audit snapshots "
         f"would hold {audit_floats:,} floats, over {MAX_AUDIT_FLOATS:,}"),
        ("n_seeds", cfg.n_seeds >= 1, "n_seeds must be ≥ 1"),
        ("warmup", cfg.warmup >= 0, "warmup must be ≥ 0"),
        ("workers", cfg.workers >= 1, "workers must be ≥ 1"),
        ("formats", not bad, "unknown output formats: " + ", ".join(bad)),
        # ProblemSpec.violations applied the rules on its own fields above.
        *arg_rules(**{a: values[a] for a in ARG_RULES if a not in spec_keys}),
        ("k_list", max(cfg.k_list, default=0.0) < cfg.half_width,
         "k values must be < half_width"))]
    return errors


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse and fully validate a config; raises ConfigError listing every
    problem (unknown keys, duplicates, constraint violations) with line
    numbers.  An empty config is valid and yields the documented defaults.

    overrides set RunConfig attributes over the text's values, before
    validation; their errors carry no line.  An experiment override also
    applies the rules of that experiment's run (see _validate)."""
    entries, errors = _scan(text)
    cfg = RunConfig()
    lines = {}
    for attr, (raw, lineno, conv, key, section) in sorted(
            entries.items(), key=lambda kv: kv[1][1]):
        try:
            setattr(cfg, attr, conv(raw))
            lines[attr] = lineno
        except (TypeError, ValueError) as exc:
            errors.append(f"line {lineno}: invalid value for {key!r} in "
                          f"[{section}]: {exc}")
    cfg = replace(cfg, **overrides)
    lines = {a: n for a, n in lines.items() if a not in overrides}
    errors.extend(_validate(cfg, lines, overrides.get("experiment")))
    if errors:
        raise ConfigError(sorted(errors, key=_line_of))
    return cfg


def _line_of(msg: str) -> int:
    return int(msg[5:msg.index(":")]) if msg.startswith("line ") else 0
