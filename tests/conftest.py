"""Shared fixtures, test oracles and fakes, and the acceptance-criteria
terminal summary."""

import math

import numpy as np
import pytest

from plrds.fields import (Field, Grid, _face_data, _pairing, grid_arrays,
                          l2_sq, lebesgue_pow, make_field, p_dissipation)
from plrds.integrator import StepperConfig
from plrds.noise import BLOCK_LENGTH, EtaConfig, check_args, make_path, \
    snap_steps
from plrds.problem import NonlinearitySpec, ProblemSpec

# Collected by tests/test_acceptance.py: list of (number, description,
# passed, detail) tuples, printed one line per criterion at session end.
ACCEPTANCE_RESULTS = []
ACCEPTANCE_TOTAL = 12


def boundary_mask(grid: Grid) -> np.ndarray:
    """The grid's boundary nodes as a boolean mask, built by hand."""
    mask = np.ones(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = False
    return mask


class TabulatedPath:
    """A fake noise path given by explicit grid samples.

    values[i] is the path at time (first_index + i) * dt.  Queries outside the
    tabulated window raise.  It has no seed; sweep rows record None.  It
    pickles as it stands (its samples).
    """

    seed = None

    def __init__(self, values, dt: float, first_index: int = 0,
                 block_length: float = BLOCK_LENGTH):
        self.steps_per_block = snap_steps(block_length, dt, "block_length")
        self.dt = float(dt)
        self.arr = np.asarray(values, dtype=float).copy()
        if self.arr.ndim != 1 or len(self.arr) < 2:
            raise ValueError("need a 1-d array of at least two samples")
        self.first_index = int(first_index)
        self.block_length = self.steps_per_block * self.dt

    def grid_values(self, i0: int, i1: int) -> np.ndarray:
        lo = self.first_index
        hi = self.first_index + len(self.arr) - 1
        if i0 < lo or i1 > hi:
            raise ValueError(f"indices [{i0}, {i1}] outside tabulated "
                             f"window [{lo}, {hi}]")
        return self.arr[i0 - lo : i1 - lo + 1]


def flux_pairing(u: Field, other: Field, p: float,
                 delta: float = 0.0) -> float:
    """The quadrature sum_faces |grad u|^(p-2) (D u)(D other) dx^dim.

    Discretely equal to (-p_laplace(u), other) for zero-boundary fields.
    """
    if u.grid != other.grid:
        raise ValueError("fields live on different grids")
    dim, dx = u.grid.dim, u.grid.dx
    grads = [g for g, _ in _face_data(other.values, dim, dx, 2.0, 0.0)]
    return _pairing(_face_data(u.values, dim, dx, p, delta), dx, grads)


def norms(u: Field, p: float, q: float) -> dict:
    """{l2, lp, lq, w1p} with trapezoid node weights and face gradients."""
    check_args(p=p)
    if q < p:
        raise ValueError("need 2 <= p <= q")
    lp_pow = lebesgue_pow(u, p)
    return {
        "l2": math.sqrt(l2_sq(u)),
        "lp": lp_pow ** (1.0 / p),
        "lq": lebesgue_pow(u, q) ** (1.0 / q),
        "w1p": (lp_pow + p_dissipation(u, p, 0.0)) ** (1.0 / p),
    }


def record_criterion(number: int, description: str, passed: bool,
                     detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, description, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    seen = {}
    for num, desc, passed, detail in sorted(ACCEPTANCE_RESULTS):
        seen[num] = passed
        verdict = "PASS" if passed else "FAIL"
        line = f"[criterion {num:2d}] {verdict} — {desc}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line, green=passed, red=not passed)
    for num in range(1, ACCEPTANCE_TOTAL + 1):
        if num not in seen:
            tr.write_line(f"[criterion {num:2d}] FAIL — not run", red=True)


@pytest.fixture(scope="session")
def grid65():
    return Grid(1, 8.0, 65)


@pytest.fixture(scope="session")
def grid257():
    return Grid(1, 8.0, 257)


@pytest.fixture(scope="session")
def grid2d():
    return Grid(2, 8.0, 65)


@pytest.fixture(scope="session")
def cfg_fast():
    return StepperConfig(dt=2e-3)


@pytest.fixture(scope="session")
def cfg_accept():
    return StepperConfig(dt=1e-3)


@pytest.fixture(scope="session")
def spec_add():
    return ProblemSpec(noise_case="additive")


@pytest.fixture(scope="session")
def spec_mult():
    return ProblemSpec(noise_case="multiplicative", alpha=0.1)


@pytest.fixture(scope="session")
def spec_det():
    return ProblemSpec(noise_case="deterministic", alpha=0.0, epsilon=0.0)


@pytest.fixture(scope="session")
def zero_forcing_add():
    return ProblemSpec(
        noise_case="additive", g_amp=0.0,
        nonlinearity=NonlinearitySpec(kind="power-plus-forcing", gamma=1.0,
                                      phi_amp=0.0),
        eta=EtaConfig(kind="constant", mean=0.0))


@pytest.fixture(scope="session")
def gaussian_u0():
    def build(grid, amp=0.8):
        arrs = grid_arrays(grid)
        return make_field(grid, amp * np.exp(-arrs.radial_sq))
    return build


@pytest.fixture(scope="session")
def path_bank():
    """Session-shared noise paths so OU block caches are reused across tests."""
    cache = {}

    def get(seed: int, dt: float, block_length: float = BLOCK_LENGTH):
        key = (seed, dt, block_length)
        if key not in cache:
            cache[key] = make_path(seed, dt, block_length)
        return cache[key]
    return get
