"""Spatial grids, discrete fields, the p-Laplace operator, norms, cutoffs,
tail masses, set distances, and field serialization.

Fields live on a uniform grid over [-half_width, half_width]^dim with zero
(Dirichlet) boundary values.  The p-Laplace operator div(|grad u|^(p-2) grad u)
is discretized in flux form: gradients at cell faces by central differences,
the face coefficient |grad u|^(p-2) from the full face gradient (the normal
difference plus, in two dimensions, the averaged transverse central
difference), then a divergence of the fluxes back at the nodes.  At p = 2 the
stencil reduces exactly to the standard 3/5-point Laplacian.  Integrals use
trapezoid weights, which is also the quadrature under which summation by
parts (and hence the discrete energy identity) is exact in one dimension.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .noise import _Checked, check_args, violated

_BLOCK_FLOATS = 8192     # floats per stacked row-block array: 64 KiB


@dataclass(frozen=True)
class Grid(_Checked):
    """Uniform tensor grid on [-half_width, half_width]^dim."""

    dim: int = 1
    half_width: float = 8.0
    n: int = 257

    @staticmethod
    def violations(v) -> list:
        return violated(("dim", v["dim"] in (1, 2), "dim must be 1 or 2"),
                        ("half_width", v["half_width"] > 0, "L must be > 0"),
                        ("n", v["n"] >= 3, "n must be ≥ 3"))

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim


@lru_cache(maxsize=32)
def grid_arrays(grid: Grid) -> SimpleNamespace:
    """Cached coordinate and weight arrays, boundary slices, and block_rows:
    how many fields one stacked row-block array holds."""
    x = np.linspace(-grid.half_width, grid.half_width, grid.n)
    w1 = np.full(grid.n, grid.dx)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    if grid.dim == 1:
        radial_sq = x ** 2
        weights = w1
        edges = (0, -1)
        xx, yy = x, None
    else:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        radial_sq = xx ** 2 + yy ** 2
        weights = np.outer(w1, w1)
        edges = (0, -1, (slice(None), 0), (slice(None), -1))
    # edges index the boundary nodes by slices, one per grid side.
    return SimpleNamespace(coords=x, x=xx, y=yy, radial_sq=radial_sq,
                           radial=np.sqrt(radial_sq), weights=weights,
                           edges=edges, dx=grid.dx, block_rows=max(
                               1, _BLOCK_FLOATS // math.prod(grid.shape)))


@dataclass(frozen=True)
class Field:
    """Values on a grid; boundary nodes are identically zero."""

    grid: Grid
    values: np.ndarray


def make_field(grid: Grid, values) -> Field:
    """Build a field, zeroing the boundary and checking finiteness."""
    arr = np.array(values, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    for edge in grid_arrays(grid).edges:
        arr[edge] = 0.0
    return Field(grid, arr)


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape))


# ---------------------------------------------------------------------------
# The p-Laplace operator and its quadratures.
# ---------------------------------------------------------------------------

def _face_data(values: np.ndarray, dim: int, dx: float, p: float, delta: float):
    """Per-direction face gradients and coefficients |grad|^(p-2) at faces,
    over the trailing dim axes of values; leading axes are rows."""
    e = 0.5 * (p - 2.0)
    if dim == 1:
        gx = (values[..., 1:] - values[..., :-1]) / dx
        coef = (gx * gx + delta * delta) ** e
        return ((gx, coef),)
    v = values
    pad = np.zeros(v.shape[:-2] + (v.shape[-2] + 2, v.shape[-1] + 2))
    pad[..., 1:-1, 1:-1] = v                          # v in a ring of zeros
    pad_y = pad[..., 1:-1, :]
    dyn = (pad_y[..., 2:] - pad_y[..., :-2]) / (2.0 * dx)
    gx = (v[..., 1:, :] - v[..., :-1, :]) / dx
    ty = 0.5 * (dyn[..., 1:, :] + dyn[..., :-1, :])
    coef_x = (gx * gx + ty * ty + delta * delta) ** e

    pad_x = pad[..., 1:-1]
    dxn = (pad_x[..., 2:, :] - pad_x[..., :-2, :]) / (2.0 * dx)
    gy = (v[..., 1:] - v[..., :-1]) / dx
    tx = 0.5 * (dxn[..., 1:] + dxn[..., :-1])
    coef_y = (gy * gy + tx * tx + delta * delta) ** e
    return ((gx, coef_x), (gy, coef_y))


def _lap_faces(values: np.ndarray, grid: Grid, p: float, delta: float):
    """p-Laplace array plus the face data it was built from.

    In two dimensions the array is not zero on the boundary columns."""
    dx = grid.dx
    faces = _face_data(values, grid.dim, dx, p, delta)
    out = np.zeros(values.shape)
    if grid.dim == 1:
        gx, coef = faces[0]
        flux = coef * gx
        out[1:-1] = (flux[1:] - flux[:-1]) / dx
    else:
        (gx, cx), (gy, cy) = faces
        fx = cx * gx
        fy = cy * gy
        out[1:-1, :] += (fx[1:, :] - fx[:-1, :]) / dx
        out[:, 1:-1] += (fy[:, 1:] - fy[:, :-1]) / dx
    return out, faces


def _pairing(faces, dx: float, grads=None):
    """The dissipation pairing sum_faces coef (D u)(D w) dx^dim of u's
    _face_data output, with w's face gradients grads (default: u's own).  In
    two dimensions it adds the directions' sums, then scales by dx twice.
    Faces with leading row axes give one value per row."""
    gx, cx = faces[0]
    axes = tuple(range(-len(faces), 0)) if gx.ndim > len(faces) else None
    total = (cx * gx * (gx if grads is None else grads[0])).sum(axes)
    if len(faces) == 2:
        gy, cy = faces[1]
        wy = gy if grads is None else grads[1]
        total = (total + (cy * gy * wy).sum(axes)) * dx
    return float(total * dx) if axes is None else total * dx


def p_laplace(u: Field, p: float, delta: float = 0.0) -> Field:
    """div(|grad u|^(p-2) grad u) in flux form; boundary rows stay zero.

    delta > 0 regularizes the face coefficient to ((|grad|^2 + delta^2))^((p-2)/2)
    for stiff gradients.  Requires p >= 2.
    """
    check_args(p=p, delta=delta)
    out, _ = _lap_faces(u.values, u.grid, p, delta)
    for edge in grid_arrays(u.grid).edges:
        out[edge] = 0.0
    return Field(u.grid, out)


def p_dissipation(u: Field, p: float, delta: float = 0.0) -> float:
    """The quadrature sum_faces |grad u|^(p-2) |D u|^2 dx^dim.

    This is exactly the discrete pairing (-p_laplace(u), u) by summation by
    parts, and at delta = 0 in one dimension it equals the face quadrature of
    ||grad u||_p^p.  In two dimensions the two directions' sums are added
    and then scaled by dx and dx again, the stepper's record association.
    """
    check_args(p=p)
    return _pairing(_face_data(u.values, u.grid.dim, u.grid.dx, p, delta),
                    u.grid.dx)


def _lebesgue(values: np.ndarray, weights: np.ndarray, r: float):
    """sum weights |values|^r over the trailing grid axes; leading axes are
    rows, with one value per row."""
    return (weights * np.abs(values) ** r).sum(tuple(range(-weights.ndim, 0)))


def lebesgue_pow(u: Field, r: float) -> float:
    """Trapezoid quadrature of ||u||_r^r."""
    return float(_lebesgue(u.values, grid_arrays(u.grid).weights, r))


def _sq_norm(values: np.ndarray, weights: np.ndarray):
    """sum weights values^2, multiplied in that order, over the trailing grid
    axes; leading axes are rows, with one value per row."""
    return (weights * values * values).sum(tuple(range(-weights.ndim, 0)))


def l2_sq(u: Field) -> float:
    return float(_sq_norm(u.values, grid_arrays(u.grid).weights))


def l2_distance(a: Field, b: Field) -> float:
    """The weighted L2 distance ||a - b||."""
    return math.sqrt(l2_sq(Field(a.grid, a.values - b.values)))


# ---------------------------------------------------------------------------
# Cutoff, tail masses, set distance.
# ---------------------------------------------------------------------------

def cutoff_rho(s):
    """Smooth cutoff: 0 on [0, 1], 1 on [2, inf), quintic smoothstep between.

    Used with argument |x|^2/k^2, so it vanishes inside radius k and is one
    outside radius sqrt(2)*k.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("cutoff argument must be nonnegative")
    r = np.clip(arr - 1.0, 0.0, 1.0)
    out = r * r * r * (r * (6.0 * r - 15.0) + 10.0)
    return float(out) if np.isscalar(s) else out


@dataclass(frozen=True)
class TailMass:
    plain: float
    rho_weighted: float


def tail_mass(u: Field, k: float) -> TailMass:
    """Squared mass of u outside radius k: sharp and cutoff-weighted.

    plain integrates u^2 over nodes with |x| >= k; rho_weighted uses the
    smooth cutoff rho(|x|^2/k^2), which sits between the indicators of
    {|x| >= sqrt(2) k} and {|x| >= k}.
    """
    if not 0.0 < k < u.grid.half_width:
        raise ValueError(f"need 0 < k < half_width={u.grid.half_width}, got {k!r}")
    arrs = grid_arrays(u.grid)
    usq = u.values * u.values
    plain = float(np.sum((arrs.weights * usq)[arrs.radial >= k]))
    weighted = float(np.sum(arrs.weights * cutoff_rho(arrs.radial_sq / (k * k)) * usq))
    return TailMass(plain=plain, rho_weighted=weighted)


def _members(obj) -> list:
    return list(obj.members) if hasattr(obj, "members") else list(obj)


def hausdorff_semidistance(a, b) -> float:
    """max over members of a of the L2 distance to the nearest member of b;
    nan (unknown, not zero) if either set is empty."""
    fa, fb = _members(a), _members(b)
    if not fa or not fb:
        return math.nan
    grid = fa[0].grid
    for f in fa + fb:
        if f.grid != grid:
            raise ValueError("all members must share one grid")
    w = grid_arrays(grid).weights.ravel()
    mb = np.stack([f.values.ravel() for f in fb])
    worst = 0.0
    for f in fa:
        diff = mb - f.values.ravel()
        d2 = (diff * diff) @ w
        worst = max(worst, float(np.min(d2)))
    return math.sqrt(worst)


@dataclass(frozen=True)
class EnsembleTag:
    """Provenance of an endpoint ensemble."""

    tau: float
    seed: int | None = None
    alpha: float | None = None
    horizon: float | None = None
    radius: float | None = None    # absorbing radius the ensemble came from
    cluster_tol: float | None = None    # distance below which members merged


@dataclass(frozen=True)
class EndpointEnsemble:
    """A finite set of endpoint fields with a provenance tag, plus the
    failure entries of the runs that produced no member."""

    members: tuple
    tag: EnsembleTag
    failures: tuple = ()

    def __len__(self):
        return len(self.members)

    def spread(self) -> float:
        """Largest pairwise L2 distance among members; nan (no surviving
        run) when there are none."""
        if not self.members:
            return math.nan
        worst = 0.0
        for i, f in enumerate(self.members):
            for g in self.members[i + 1:]:
                worst = max(worst, l2_distance(f, g))
        return worst


# ---------------------------------------------------------------------------
# Serialization: CSV rows, one per node for a field, and a raw binary dump.
# ---------------------------------------------------------------------------

def _write_csv(path, header: str, rows, newline: str = "") -> None:
    """Numbers at %.17g, bools as true/false, strs as they are; one format
    string per row's cell types.  Each line ends in newline ("" keeps "\n")."""
    formats = {}
    with open(path, "w", newline=newline) as fh:
        fh.write(header + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds) or formats.setdefault(kinds, ",".join(
                "%s" if issubclass(k, (str, bool)) else "%.17g" for k in kinds))
            fh.write((fmt % tuple(row)).replace("True", "true")
                     .replace("False", "false") + "\n")


def field_to_csv(u: Field, path) -> None:
    """One x[,y],value row per node, lines ending in CRLF."""
    x, values = grid_arrays(u.grid).coords.tolist(), u.values.tolist()
    if u.grid.dim == 1:
        header, rows = "x,value", zip(x, values)
    else:
        header = "x,y,value"
        rows = ((xi, yj, v) for xi, row in zip(x, values)
                for yj, v in zip(x, row))
    _write_csv(path, header, rows, newline="\r\n")


def field_from_csv(path) -> Field:
    """Read field_to_csv's file: a header and one x[,y],value row per node."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = [[float(c) for c in row] for row in rd if row]
    if header[-1] != "value" or len(header) not in (2, 3):
        raise ValueError(f"unrecognized field CSV header {header!r}")
    dim = len(header) - 1
    if not rows or any(len(r) != dim + 1 for r in rows):
        raise ValueError(f"every field CSV row must hold {dim + 1} cells")
    arr = np.array(rows)
    coords = np.unique(arr[:, :dim])
    half = float(max(abs(coords[0]), abs(coords[-1])))
    grid = Grid(dim, half, len(coords))
    if not np.allclose(coords, grid_arrays(grid).coords, atol=1e-9 * max(1.0, half)):
        raise ValueError("CSV nodes do not form a uniform symmetric grid")
    idx = np.rint((arr[:, :dim] + half) / grid.dx).astype(int)
    if (len(rows) != math.prod(grid.shape)
            or len(np.unique(idx, axis=0)) < len(rows)):
        raise ValueError("a field CSV must hold exactly one row per node")
    vals = np.zeros(grid.shape)
    vals[tuple(idx.T)] = arr[:, dim]
    return make_field(grid, vals)


_BIN_MAGIC = b"PLF1"


def field_to_binary(u: Field, path) -> None:
    """Raw dump: magic, dim, n (int32), half_width (float64), little-endian values."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<iid", u.grid.dim, u.grid.n, u.grid.half_width))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def field_from_binary(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BIN_MAGIC:
            raise ValueError("not a field dump")
        dim, n, half = struct.unpack("<iid", fh.read(16))
        grid = Grid(dim, half, n)
        raw = fh.read()
    count = n ** dim
    if len(raw) != 8 * count:
        raise ValueError(f"payload holds {len(raw) // 8} values, expected {count}")
    vals = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
    return make_field(grid, vals)
