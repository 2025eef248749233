"""Shared fixtures and the acceptance-criteria terminal summary."""

import numpy as np
import pytest

from plrds.fields import Grid, make_field, grid_arrays
from plrds.integrator import StepperConfig
from plrds.noise import EtaConfig, make_path
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

    def get(seed: int, dt: float, block_length: float = 4.0):
        key = (seed, dt, block_length)
        if key not in cache:
            cache[key] = make_path(seed, dt, block_length)
        return cache[key]
    return get
