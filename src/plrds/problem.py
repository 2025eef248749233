"""Problem data for the stochastic p-Laplace models: coefficients, the
nonlinearity with its envelope functions, and structural checks.

The default model family is

    f(t, x, s) = -gamma * |s|^(q-2) * s + phi(t, x),
    phi(t, x)  = phi_amp * sin(2*pi*t/period) * exp(-|x|^2),
    g(t, x)    = g_amp  * cos(2*pi*t/period) * exp(-|x|^2),
    h(x)       = exp(-|x|^2 / 2),

which satisfies the four structure conditions used by the energy estimates:

    (C1)  f(t,x,s)*s <= -gamma1*|s|^q + psi1(t,x)          gamma1 = gamma/2
    (C2)  |f(t,x,s)| <= psi2*|s|^(q-1) + psi3(t,x)
    (C3)  d f/d s    <= psi4
    (C4)  |d f/d s|  <= psi5*(1 + |s|^(q-2))

with psi1 = c_psi*|phi|^(q1), c_psi = (1/q1)*(q*gamma/2)^(-q1/q) (Young's
inequality with margin split), psi2 = gamma + 1, psi3 = |phi|, psi4 = 0,
psi5 = gamma*(q-1) + 1, and q1 = q/(q-1).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import grid_arrays
from .noise import (QUAD_TOL, EtaConfig, _Checked, arg_rules, check_args,
                    violated)

NOISE_CASES = ("additive", "multiplicative", "deterministic")


def conjugate_exponent(r: float) -> float:
    """The exponent r1 with 1/r + 1/r1 = 1."""
    if r <= 1:
        raise ValueError(f"exponent must exceed 1, got {r!r}")
    return r / (r - 1.0)


def alpha_zero(lam: float, eta_mean: float) -> float:
    """Largest admissible noise intensity lam / (8*(1 + |E eta|))."""
    check_args(lam=lam)
    return lam / (8.0 * (1.0 + abs(eta_mean)))


# ---------------------------------------------------------------------------
# Whitelisted scalar expressions for a custom nonlinearity f(t, x, s).
# Grammar: numbers, the variables, + - * / ** with unary minus, and calls to
# sin, cos, exp, abs, abspow(s, r) = |s|^r * s.
# ---------------------------------------------------------------------------

def _abspow(s, r):
    return np.abs(s) ** r * s


_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
               "abspow": _abspow}


@lru_cache(maxsize=None)
def compile_expression(text: str):
    """Compile a whitelisted arithmetic expression to a vectorized callable.

    The callable takes t, x, y and s as keyword arguments and broadcasts over
    array inputs.  Anything outside the whitelist raises ValueError.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"invalid expression {text!r}: {exc}") from None
    allowed_binops = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, allowed_binops):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _EXPR_FUNCS or node.keywords):
                raise ValueError(f"expression {text!r}: only calls to "
                                 f"{sorted(_EXPR_FUNCS)} are allowed")
            for arg in node.args:
                check(arg)
        elif isinstance(node, ast.Name):
            if node.id not in ("t", "x", "y", "s"):
                raise ValueError(f"expression {text!r}: unknown name {node.id!r}")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(f"expression {text!r}: non-numeric constant")
        else:
            raise ValueError(f"expression {text!r}: {type(node).__name__} not allowed")

    check(tree)
    code = compile(tree, "<expression>", "eval")

    def fn(**kw):
        scope = dict(_EXPR_FUNCS)
        scope.update(kw)
        return eval(code, {"__builtins__": {}}, scope)

    return fn


@dataclass(frozen=True)
class NonlinearitySpec(_Checked):
    """Reaction term: the default power family or a custom expression.

    kind "power-plus-forcing" uses -gamma|s|^(q-2)s + phi(t,x) with the
    time-periodic gaussian phi above; kind "custom" evaluates `expression`
    in the variables t, x, y, s (y ignored in one dimension).
    """

    kind: str = "power-plus-forcing"
    gamma: float = 1.0
    phi_amp: float = 0.5
    expression: str | None = None

    @staticmethod
    def violations(v) -> list:
        custom, error = v["kind"] == "custom", None
        if custom and v["expression"]:
            try:
                compile_expression(v["expression"])
            except ValueError as exc:
                error = str(exc)
        return violated(
            ("kind", v["kind"] in ("power-plus-forcing", "custom"),
             "f_kind must be power-plus-forcing or custom"),
            ("gamma", v["gamma"] > 0, "gamma must be > 0"),
            ("kind", not custom or v["expression"],
             "f_kind = custom requires f_expression"),
            ("expression", error is None, error))


@dataclass(frozen=True)
class ProblemSpec(_Checked):
    """All coefficients of one model instance.

    noise_case selects the equation: "additive" (intensity epsilon on the
    profile h, modulation alpha*eta*u), "multiplicative" (intensity alpha on
    u itself), or "deterministic" (no noise; the alpha -> 0 limit).
    """

    lam: float = 1.0
    p: float = 3.0
    q: float = 4.0
    alpha: float = 0.0625
    epsilon: float = 0.25
    noise_case: str = "additive"
    g_amp: float = 0.5
    period: float = 1.0
    delta: float = 0.0
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    eta: EtaConfig = field(default_factory=EtaConfig)

    @staticmethod
    def violations(v) -> list:
        """(field, message) for each parameter hypothesis v breaks."""
        return violated(
            *arg_rules(lam=v["lam"], p=v["p"]),
            ("q", v["q"] >= v["p"], "q must be ≥ p"),
            ("alpha", v["alpha"] >= 0, "alpha must be ≥ 0"),
            ("epsilon", v["epsilon"] >= 0, "epsilon must be ≥ 0"),
            ("noise_case", v["noise_case"] in NOISE_CASES,
             "noise_case must be additive, multiplicative, or deterministic"),
            ("period", v["period"] > 0, "period must be > 0"),
            *arg_rules(delta=v["delta"]))

    @property
    def gamma(self) -> float:
        return self.nonlinearity.gamma

    @property
    def q1(self) -> float:
        return conjugate_exponent(self.q)

    @property
    def alpha_max(self) -> float:
        """The admissibility threshold for this spec's eta."""
        return alpha_zero(self.lam, self.eta.mean)

    # -- pointwise model functions (continuum; array-friendly) --------------

    def phi_time(self, t):
        return self.nonlinearity.phi_amp * np.sin(2.0 * np.pi * t / self.period)

    def g_time(self, t):
        return self.g_amp * np.cos(2.0 * np.pi * t / self.period)

    def f_pointwise(self, t, x, y, s, gauss):
        """f(t, x, s) for scalar/array inputs, given gauss = exp(-|x|^2) at the
        same points; y is ignored in one dimension, gauss by a custom f."""
        nl = self.nonlinearity
        if nl.kind == "custom":
            fn = compile_expression(nl.expression)
            out = fn(t=t, x=x, y=y, s=s)
            return np.broadcast_to(np.asarray(out, dtype=float), np.shape(s)).copy() \
                if np.shape(out) != np.shape(s) else out
        return self.reaction(s) + self.phi_time(t) * gauss

    def reaction(self, s):
        """The power part -gamma |s|^(q-2) s of the default f."""
        return -self.nonlinearity.gamma * np.abs(s) ** (self.q - 2.0) * s

    def f_prime_pointwise(self, t, x, y, s):
        """d f/d s; analytic for the default family, central difference otherwise."""
        nl = self.nonlinearity
        if nl.kind == "custom":
            step = 1e-5 * (1.0 + np.abs(s))
            up = self.f_pointwise(t, x, y, s + step, None)
            dn = self.f_pointwise(t, x, y, s - step, None)
            return (up - dn) / (2.0 * step)
        return -nl.gamma * (self.q - 1.0) * np.abs(s) ** (self.q - 2.0)

    # -- envelope functions (for the default family) ------------------------

    @property
    def gamma1(self) -> float:
        """Margin kept in condition (C1)."""
        return self.gamma / 2.0

    @property
    def c_psi(self) -> float:
        q1 = self.q1
        return (1.0 / q1) * (self.q * self.gamma / 2.0) ** (-q1 / self.q)

    def psi2_value(self) -> float:
        return self.gamma + 1.0

    def psi4_value(self) -> float:
        return 0.0

    def psi5_value(self) -> float:
        return self.gamma * (self.q - 1.0) + 1.0


# ---------------------------------------------------------------------------
# Forcing norms: closed-form separation time_factor(t) * profile_integral, so
# quadratures over long time windows never touch the grid in the inner loop.
# ---------------------------------------------------------------------------

class ForcingNorms:
    """Norm accessors ||g(t)||^2, ||psi1(t)||_1, ||psi3(t)||_{q1}^{q1} on a
    grid, and ||h||^2 of the additive noise profile h = exp(-|x|^2/2).

    Profile integrals are computed once with the grid's trapezoid weights;
    the time dependence multiplies through.
    """

    def __init__(self, spec: ProblemSpec, grid):
        arrs = grid_arrays(grid)
        prof = np.exp(-arrs.radial_sq)
        w = arrs.weights
        self.spec = spec
        self._g_prof_sq = float(np.sum(w * prof * prof))
        self._phi_prof_q1 = float(np.sum(w * prof ** spec.q1))
        self.h_l2_sq = float(np.sum(w * prof))    # h^2 = prof

    def g_l2_sq(self, t):
        return self.spec.g_time(t) ** 2 * self._g_prof_sq

    def psi1_l1(self, t):
        return self.spec.c_psi * np.abs(self.spec.phi_time(t)) ** self.spec.q1 \
            * self._phi_prof_q1

    def psi3_q1_pow(self, t):
        return np.abs(self.spec.phi_time(t)) ** self.spec.q1 * self._phi_prof_q1

    def total(self, t):
        """The combined integrand of the forcing summability condition."""
        return self.g_l2_sq(t) + self.psi1_l1(t) + self.psi3_q1_pow(t)


# ---------------------------------------------------------------------------
# Structure validation and the forcing summability check.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    """Sampled envelope-condition margins; violations are data, not errors."""

    sample_count: int
    checked: tuple
    violation_count: int
    violations: list
    worst_margin: dict


def validate_structure(spec: ProblemSpec, sample_count: int = 100_000,
                       seed: int = 0, dim: int = 1) -> StructureReport:
    """Sample the envelope conditions (C1)-(C4) at random |x|,|y| ≤ 8, |s| ≤ 3.

    Returns a report with every violated sample (condition, location, margin).
    The default family yields zero violations; a custom f is checked against
    the same default-family envelopes, so violations there are meaningful
    diagnostics rather than failures.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, 0x5157C64B], dtype=np.uint64)))
    t = rng.uniform(0.0, spec.period, sample_count)
    x = rng.uniform(-8.0, 8.0, sample_count)
    y = rng.uniform(-8.0, 8.0, sample_count) if dim == 2 else np.zeros(sample_count)
    s = rng.uniform(-3.0, 3.0, sample_count)
    gauss = np.exp(-(x ** 2 + y ** 2))

    fv = spec.f_pointwise(t, x, y, s, gauss)
    fp = spec.f_prime_pointwise(t, x, y, s)
    aq = np.abs(s) ** spec.q
    psi3 = np.abs(spec.phi_time(t) * gauss)      # |phi(t, x)|
    margins = {
        "C1": -spec.gamma1 * aq + spec.c_psi * psi3 ** spec.q1 - fv * s,
        "C2": spec.psi2_value() * np.abs(s) ** (spec.q - 1.0)
              + psi3 - np.abs(fv),
        "C3": spec.psi4_value() - fp,
        "C4": spec.psi5_value() * (1.0 + np.abs(s) ** (spec.q - 2.0)) - np.abs(fp),
    }
    tol = -1e-12
    violations = []
    worst = {}
    for name, m in margins.items():
        worst[name] = float(np.min(m))
        bad = np.flatnonzero(m < tol)
        for i in bad[:50]:
            violations.append({"condition": name, "t": float(t[i]),
                               "x": float(x[i]), "y": float(y[i]),
                               "s": float(s[i]), "margin": float(m[i])})
        if len(bad) > 50:
            violations.append({"condition": name, "suppressed": int(len(bad) - 50)})
    count = int(sum(np.count_nonzero(m < tol) for m in margins.values()))
    return StructureReport(sample_count=sample_count,
                           checked=tuple(margins), violation_count=count,
                           violations=violations, worst_margin=worst)


@dataclass(frozen=True)
class GrowthReport:
    finite: bool
    value: float
    truncation: float


def check_growth_condition(spec: ProblemSpec, tau: float, integrand,
                           quad_tol: float = QUAD_TOL) -> GrowthReport:
    """Evaluate int_{-inf}^{tau} e^{lam*s} (||g||^2 + ||psi1||_1 + ||psi3||^q1) ds.

    The integral is truncated where the weight e^{lam*(s-tau)} falls below
    quad_tol.  It is reported non-finite when the weighted integrand at the
    truncation point is not negligible against its peak, which is how an
    integrand that grows like the weight decays (or faster) shows up.
    `integrand` is the forcing-norm accessor, such as ForcingNorms.total
    (it receives an array of times); the quadrature step is at most 0.05.
    """
    s_min = tau + min(0.0, math.log(quad_tol) / spec.lam)
    n = max(2, int(math.ceil((tau - s_min) / 0.05)))
    s = np.linspace(s_min, tau, n + 1)
    weighted = np.exp(spec.lam * s) * np.asarray(integrand(s), dtype=float)
    peak = float(np.max(weighted))
    edge = float(np.mean(weighted[: max(2, n // 50)]))
    finite = not (peak > 0 and edge > 1e-6 * peak)
    value = float(np.trapezoid(weighted, dx=(tau - s_min) / n))
    return GrowthReport(finite=finite, value=value, truncation=float(s_min))
