"""Sectioned key=value run configuration: parsing, validation, builders.

The format is INI-like ([section] headers, key = value lines, # or ;
comments).  Parsing is hand-rolled rather than delegated to configparser
because the contract requires rejecting duplicate keys with both line
numbers, and configparser silently merges duplicates.  Every error carries
the offending line number, and validation reports all errors at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields

from .fields import Grid
from .integrator import StepperConfig
from .noise import EtaConfig
from .problem import NonlinearitySpec, ProblemSpec

EXPERIMENTS = ("validate", "simulate", "cocycle-test", "energy-audit",
               "absorb-check", "tail-check", "estimate-attractor",
               "usc-sweep", "periodicity-check")


class ConfigError(ValueError):
    """Carries every validation error found in a config, one per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class RunConfig:
    """Fully resolved run configuration with documented defaults."""

    # [problem]
    lam: float = 1.0
    p: float = 3.0
    q: float = 4.0
    alpha: float = 0.0625
    epsilon: float = 0.25
    noise_case: str = "additive"
    g_amp: float = 0.5
    period: float = 1.0
    delta: float = 0.0
    gamma: float = 1.0
    phi_amp: float = 0.5
    f_kind: str = "power-plus-forcing"
    f_expression: str = ""
    # [grid]
    dim: int = 1
    half_width: float = 8.0
    n: int = 257
    # [stepper]
    dt: float = 1e-3
    scheme: str = "imex"
    substep_limit: int = 8
    # [noise]
    seed: int = 0
    noise_dt: float = 0.0          # 0 -> use stepper dt
    block_length: float = 4.0
    eta_kind: str = "shifted-ou"
    eta_mean: float = 0.0
    eta_rate: float = 1.0
    eta_seed: int = -1             # -1 -> same path as the driving noise
    # [experiment]
    experiment: str = "simulate"
    tau: float = 0.0
    horizon: float = 8.0
    horizons: tuple = (4.0, 8.0, 16.0, 32.0)
    k_list: tuple = (2.0, 3.0, 4.0)
    alphas: tuple = (0.4, 0.2, 0.1, 0.05)
    n_seeds: int = 8
    n_initials: int = 2
    span: float = 1.0
    c: float = 4.0
    quad_tol: float = 1e-12
    cluster_tol: float = 0.0       # 0 -> 1e-4 * absorbing radius
    ball_radius: float = 1.0
    sampler_seed: int = 1234
    warmup: float = 0.5
    workers: int = 1
    n_sigma: int = 8
    # [output]
    directory: str = "out"
    formats: tuple = ("csv", "json")

    def problem_spec(self) -> ProblemSpec:
        nl = NonlinearitySpec(kind=self.f_kind, gamma=self.gamma,
                              phi_amp=self.phi_amp,
                              expression=self.f_expression or None)
        eta = EtaConfig(kind=self.eta_kind, mean=self.eta_mean,
                        rate=self.eta_rate,
                        seed=None if self.eta_seed < 0 else self.eta_seed)
        return ProblemSpec(lam=self.lam, p=self.p, q=self.q, alpha=self.alpha,
                           epsilon=self.epsilon, noise_case=self.noise_case,
                           g_amp=self.g_amp, period=self.period,
                           delta=self.delta, nonlinearity=nl, eta=eta)

    def grid(self) -> Grid:
        return Grid(dim=self.dim, half_width=self.half_width, n=self.n)

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt, scheme=self.scheme,
                             substep_limit=self.substep_limit)

    def path_dt(self) -> float:
        return self.noise_dt if self.noise_dt > 0 else self.dt

    def as_dict(self) -> dict:
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


# Schema: section -> key -> (attribute, converter).
def _float_list(text: str):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(s) for s in items)


def _str_list(text: str):
    return tuple(s.strip() for s in text.split(",") if s.strip())


_SCHEMA = {
    "problem": {
        "lam": ("lam", float), "p": ("p", float), "q": ("q", float),
        "alpha": ("alpha", float), "epsilon": ("epsilon", float),
        "noise_case": ("noise_case", str), "g_amp": ("g_amp", float),
        "period": ("period", float), "delta": ("delta", float),
        "gamma": ("gamma", float), "phi_amp": ("phi_amp", float),
        "f_kind": ("f_kind", str), "f_expression": ("f_expression", str),
    },
    "grid": {
        "dim": ("dim", int), "l": ("half_width", float), "n": ("n", int),
        "half_width": ("half_width", float),
    },
    "stepper": {
        "dt": ("dt", float), "scheme": ("scheme", str),
        "substep_limit": ("substep_limit", int),
    },
    "noise": {
        "seed": ("seed", int), "dt": ("noise_dt", float),
        "block_length": ("block_length", float),
        "eta_kind": ("eta_kind", str), "eta_mean": ("eta_mean", float),
        "eta_rate": ("eta_rate", float), "eta_seed": ("eta_seed", int),
    },
    "experiment": {
        "name": ("experiment", str), "tau": ("tau", float),
        "horizon": ("horizon", float), "horizons": ("horizons", _float_list),
        "k_list": ("k_list", _float_list), "alphas": ("alphas", _float_list),
        "n_seeds": ("n_seeds", int), "n_initials": ("n_initials", int),
        "span": ("span", float), "c": ("c", float),
        "quad_tol": ("quad_tol", float),
        "cluster_tol": ("cluster_tol", float),
        "ball_radius": ("ball_radius", float),
        "sampler_seed": ("sampler_seed", int), "warmup": ("warmup", float),
        "workers": ("workers", int), "n_sigma": ("n_sigma", int),
    },
    "output": {
        "directory": ("directory", str), "formats": ("formats", _str_list),
    },
}


def _scan(text: str):
    """Tokenize into {(section, key): (raw_value, line_no)} plus errors."""
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
        if (section, key) in entries:
            first = entries[(section, key)][1]
            errors.append(f"line {lineno}: duplicate key {key!r} in section "
                          f"[{section}] (lines {first} and {lineno})")
            continue
        entries[(section, key)] = (value, lineno)
    return entries, errors


def _validate(cfg: RunConfig, lines: dict) -> list:
    """Cross-field validation; lines maps attribute -> source line number."""

    def at(attr):
        ln = lines.get(attr)
        return f"line {ln}: " if ln else ""

    errors = []
    if cfg.lam <= 0:
        errors.append(f"{at('lam')}lam must be > 0")
    if cfg.p < 2:
        errors.append(f"{at('p')}p must be ≥ 2")
    if cfg.q < cfg.p:
        errors.append(f"{at('q')}q must be ≥ p")
    if cfg.alpha < 0:
        errors.append(f"{at('alpha')}alpha must be ≥ 0")
    if cfg.epsilon < 0:
        errors.append(f"{at('epsilon')}epsilon must be ≥ 0")
    if cfg.noise_case not in ("additive", "multiplicative", "deterministic"):
        errors.append(f"{at('noise_case')}noise_case must be additive, "
                      "multiplicative, or deterministic")
    if cfg.period <= 0:
        errors.append(f"{at('period')}period must be > 0")
    if cfg.delta < 0:
        errors.append(f"{at('delta')}delta must be ≥ 0")
    if cfg.gamma <= 0:
        errors.append(f"{at('gamma')}gamma must be > 0")
    if cfg.f_kind not in ("power-plus-forcing", "custom"):
        errors.append(f"{at('f_kind')}f_kind must be power-plus-forcing "
                      "or custom")
    if cfg.f_kind == "custom" and not cfg.f_expression:
        errors.append(f"{at('f_kind')}f_kind = custom requires f_expression")
    if cfg.dim not in (1, 2):
        errors.append(f"{at('dim')}dim must be 1 or 2")
    if cfg.half_width <= 0:
        errors.append(f"{at('half_width')}L must be > 0")
    if cfg.n < 3:
        errors.append(f"{at('n')}n must be ≥ 3")
    if cfg.dt <= 0:
        errors.append(f"{at('dt')}dt must be > 0")
    if cfg.scheme not in ("imex", "explicit"):
        errors.append(f"{at('scheme')}scheme must be imex or explicit")
    if cfg.substep_limit < 1:
        errors.append(f"{at('substep_limit')}substep_limit must be ≥ 1")
    if cfg.noise_dt < 0:
        errors.append(f"{at('noise_dt')}noise dt must be ≥ 0 (0 = stepper dt)")
    if cfg.block_length <= 0:
        errors.append(f"{at('block_length')}block_length must be > 0")
    if cfg.eta_kind not in ("constant", "ou", "shifted-ou"):
        errors.append(f"{at('eta_kind')}eta_kind must be constant, ou, "
                      "or shifted-ou")
    if cfg.eta_rate <= 0:
        errors.append(f"{at('eta_rate')}eta_rate must be > 0")
    if cfg.experiment not in EXPERIMENTS:
        errors.append(f"{at('experiment')}unknown experiment "
                      f"{cfg.experiment!r}; choose from "
                      + ", ".join(EXPERIMENTS))
    if cfg.tau != cfg.tau:
        errors.append(f"{at('tau')}tau must be finite")
    if cfg.horizon <= 0:
        errors.append(f"{at('horizon')}horizon must be > 0")
    if any(h < 0 for h in cfg.horizons):
        errors.append(f"{at('horizons')}horizons must be nonnegative")
    if list(cfg.horizons) != sorted(cfg.horizons):
        errors.append(f"{at('horizons')}horizons must be ascending")
    if list(cfg.k_list) != sorted(cfg.k_list):
        errors.append(f"{at('k_list')}k_list must be ascending")
    if any(k <= 0 for k in cfg.k_list):
        errors.append(f"{at('k_list')}k values must be > 0")
    if any(k >= cfg.half_width for k in cfg.k_list):
        errors.append(f"{at('k_list')}k values must be < L")
    if any(a < 0 for a in cfg.alphas):
        errors.append(f"{at('alphas')}alphas must be nonnegative")
    if any(cfg.alphas[i + 1] >= cfg.alphas[i]
           for i in range(len(cfg.alphas) - 1)):
        errors.append(f"{at('alphas')}alphas must be strictly decreasing")
    if cfg.n_seeds < 1:
        errors.append(f"{at('n_seeds')}n_seeds must be ≥ 1")
    if cfg.n_initials < 1:
        errors.append(f"{at('n_initials')}n_initials must be ≥ 1")
    if cfg.span <= 0:
        errors.append(f"{at('span')}span must be > 0")
    if cfg.c <= 0:
        errors.append(f"{at('c')}c must be > 0")
    if not 0 < cfg.quad_tol < 1:
        errors.append(f"{at('quad_tol')}quad_tol must be in (0, 1)")
    if cfg.cluster_tol < 0:
        errors.append(f"{at('cluster_tol')}cluster_tol must be ≥ 0")
    if cfg.ball_radius <= 0:
        errors.append(f"{at('ball_radius')}ball_radius must be > 0")
    if cfg.warmup < 0:
        errors.append(f"{at('warmup')}warmup must be ≥ 0")
    if cfg.workers < 1:
        errors.append(f"{at('workers')}workers must be ≥ 1")
    if cfg.n_sigma < 2:
        errors.append(f"{at('n_sigma')}n_sigma must be ≥ 2")
    bad = [f for f in cfg.formats if f not in ("csv", "json", "binary")]
    if bad:
        errors.append(f"{at('formats')}unknown output formats: "
                      + ", ".join(bad))
    return errors


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises ConfigError listing every
    problem (unknown keys, duplicates, constraint violations) with line
    numbers.  An empty config is valid and yields the documented defaults."""
    entries, errors = _scan(text)
    cfg = RunConfig()
    lines = {}
    for (section, key), (raw, lineno) in sorted(entries.items(),
                                                key=lambda kv: kv[1][1]):
        attr, conv = _SCHEMA[section][key]
        try:
            setattr(cfg, attr, conv(raw))
            lines[attr] = lineno
        except (TypeError, ValueError) as exc:
            errors.append(f"line {lineno}: invalid value for {key!r} in "
                          f"[{section}]: {exc}")
    errors.extend(_validate(cfg, lines))
    if errors:
        raise ConfigError(sorted(errors, key=_line_of))
    return cfg


def _line_of(msg: str) -> int:
    if msg.startswith("line "):
        try:
            return int(msg[5:msg.index(":")])
        except ValueError:
            pass
    return 0


def config_errors(text: str) -> list:
    """All validation errors for a config text; empty when valid."""
    try:
        parse_config(text)
        return []
    except ConfigError as exc:
        return exc.errors
