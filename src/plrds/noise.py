"""Reproducible two-sided Brownian paths and derived Ornstein-Uhlenbeck signals.

The driving path is sampled lazily in fixed-length blocks.  Block j's
increments are the first draws of a Philox stream keyed by (seed, j) at
counter 0 (counter-based, so the stream is a pure function of the key).  Each
path owns one Philox and one Generator, made on first use and reset to that
key, counter 0 and an empty buffer before each block; missing blocks are
built in contiguous runs walking outward from 0, one 2-D fill per run.  So a
frozen realization can be extended arbitrarily far backward or forward
without disturbing values that were already produced.  Every derived quantity
(path values on the step grid, OU values at a given rate) is a pure function
of (seed, dt, block_length) and the query location, independent of the order
or extent of earlier queries: two runs that look at overlapping windows see
bitwise-identical numbers.  That is what makes shift-composition and
window-restart comparisons exact instead of merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

QUAD_TOL = 1e-12
BLOCK_LENGTH = 4.0      # the default block length of a noise path

_GRID_RTOL = 1e-9
_UINT_MASK = 0xFFFFFFFFFFFFFFFF


def snap_steps(value: float, dt: float, name: str = "time") -> int:
    """Return value/dt as an int, requiring value to sit on the dt grid."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    k = int(round(value / dt))
    if abs(value - k * dt) > _GRID_RTOL * max(1.0, abs(value)):
        raise ValueError(f"{name}={value!r} is not an integer multiple of dt={dt!r}")
    return k


# Parameter rules.  Each parameter dataclass states its rules once, as
# (field, holds, message) triples in a static violations(values) method;
# ARG_RULES maps each shared argument to its (holds, message) rules in report
# order.  So constructors, library calls and the config parser fail alike.
def violated(*rules) -> list:
    """The (field, message) pairs of the (field, holds, message) rules that
    do not hold."""
    return [(name, message) for name, holds, message in rules if not holds]


def _raise_first(violations: list) -> None:
    """Raise the first (field, message) pair of a violations list."""
    if violations:
        raise ValueError(violations[0][1])


class _Checked:
    """Base of the parameter dataclasses: construction raises the first of
    the class's violations(values) rules that its fields break."""

    def __post_init__(self):
        _raise_first(self.violations(vars(self)))


ARG_RULES = {
    "lam": ((lambda x: x > 0, "lam must be > 0"),),
    "p": ((lambda p: p >= 2, "p must be ≥ 2"),),
    "delta": ((lambda d: d >= 0, "delta must be ≥ 0"),),
    "c": ((lambda c: c > 0, "c must be > 0"),),
    "quad_tol": ((lambda x: 0 < x < 1, "quad_tol must be in (0, 1)"),),
    "cluster_tol": ((lambda x: x >= 0, "cluster_tol must be ≥ 0"),),
    "ball_radius": ((lambda r: r > 0, "ball_radius must be > 0"),),
    "n_initials": ((lambda n: n >= 1, "n_initials must be ≥ 1"),),
    "n_sigma": ((lambda n: n >= 2, "n_sigma must be ≥ 2"),),
    "horizon": ((lambda h: h > 0, "horizon must be > 0"),),
    "horizons": ((lambda hs: all(h >= 0 for h in hs),
                  "horizons must be nonnegative"),
                 (lambda hs: list(hs) == sorted(hs),
                  "horizons must be ascending")),
    "k_list": ((len, "k_list must hold at least one k"),
               (lambda ks: list(ks) == sorted(ks), "k_list must be ascending"),
               (lambda ks: all(k > 0 for k in ks), "k values must be > 0")),
    "alphas": ((len, "alphas must hold at least one alpha"),
               (lambda a: min(a, default=0) >= 0,
                "alphas must be nonnegative"),
               (lambda a: all(x > y for x, y in zip(a, a[1:])),
                "alphas must be strictly decreasing")),
}


def arg_rules(**args) -> list:
    """The (name, holds, message) rules of ARG_RULES on the named args."""
    return [(name, holds(x), message) for name, x in args.items()
            for holds, message in ARG_RULES[name]]


def check_args(**args) -> None:
    """Raise the message of the first ARG_RULES rule that args break."""
    _raise_first(violated(*arg_rules(**args)))


# Anchor kernel: dot-product weights evaluating
#   z(T) = omega(T) - e^{-rate*S} omega(T-S)
#          - rate * int_{-S}^{0} e^{rate*tau} omega(T + tau) dtau
# over a window [-S, 0] truncated where the exponential falls below QUAD_TOL.
# The weights integrate e^{rate*tau} against the hat basis of the node grid,
# so the quadrature is EXACT for the piecewise-linear interpolant of omega --
# the same input convention the in-block update integrates exactly.  Plain
# trapezoid weights would be fatally biased here: their O(dt^2) error on the
# exponential leaves a residue of roughly (rate*dt)^2/12 * omega(T) in every
# anchor, i.e. a Brownian-proportional contamination of z that a time average
# integrates into super-diffusive growth instead of averaging away.
@lru_cache(maxsize=None)
def _anchor_kernel(rate: float, dt: float):
    steps = int(math.ceil(-math.log(QUAD_TOL) / (rate * dt)))
    tau = (np.arange(steps + 1) - steps) * dt
    x = rate * dt
    r2d = rate * rate * dt
    wts = np.exp(rate * tau) * (4.0 * math.sinh(0.5 * x) ** 2 / r2d)
    wts[0] = math.exp(rate * tau[0]) * (math.expm1(x) - x) / r2d
    wts[-1] = (x + math.expm1(-x)) / r2d
    bfac = math.exp(rate * tau[0])       # e^{-rate*S}, the boundary weight
    return steps, wts, bfac


class NoisePath:
    """Two-sided Brownian path on a uniform grid with omega(0) = 0.

    Values at grid index i (time i*dt, i any integer) are deterministic in
    (seed, dt, block_length, i).
    """

    def __init__(self, seed: int, dt: float,
                 block_length: float = BLOCK_LENGTH):
        self.steps_per_block = snap_steps(block_length, dt, "block_length")
        if self.steps_per_block < 1:
            raise ValueError("block_length must be a positive multiple of dt")
        self.dt = float(dt)
        self.seed = int(seed)
        self.block_length = float(block_length)
        self._blk: dict = {}
        self._bnd: dict = {0: 0.0}
        self._gen = None

    def __repr__(self):
        return (f"NoisePath(seed={self.seed}, dt={self.dt}, "
                f"block_length={self.block_length})")

    def __reduce__(self):
        # Pickles by its recipe: values are pure functions of it, so a worker's
        # rebuilt path gives the same bits.  Caches and generator stay behind.
        return NoisePath, (self.seed, self.dt, self.block_length)

    def _generator_at(self, j: int) -> np.random.Generator:
        """The path's one Generator, its Philox reset to block j's stream."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=0))
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0),
                      "key": (self.seed & _UINT_MASK, j & _UINT_MASK)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return self._gen

    def _fill(self, js: range) -> None:
        """Build blocks js, a contiguous run walking outward from 0 whose
        inner boundary is known, as one (len(js), spb + 1) array."""
        spb, fwd = self.steps_per_block, js.step > 0
        vals = np.empty((len(js), spb + 1))
        inc = vals[:, 1:] if fwd else vals[:, :spb]
        for row, j in zip(inc, js):
            self._generator_at(j).standard_normal(out=row)
        # Sums run outward from each block's inner boundary: rightward for
        # j >= 0, leftward for j < 0, where the increments enter negated
        # (negation is exact, so b + (-t) is b - t to the last bit).
        acc = inc if fwd else inc[:, ::-1]
        acc *= math.sqrt(self.dt) if fwd else -math.sqrt(self.dt)
        np.cumsum(acc, axis=1, out=acc)
        outer = range(js.start + fwd, js.stop + fwd, js.step)
        edges = list(accumulate(acc[:, -1].tolist(),
                                initial=self._bnd[outer.start - js.step]))
        self._bnd.update(zip(outer, edges[1:]))
        col = 0 if fwd else spb
        vals[:, col] = edges[:-1]
        acc += vals[:, col, None]
        self._blk.update(zip(js, vals))

    def grid_values(self, i0: int, i1: int) -> np.ndarray:
        """omega at grid indices i0..i1 inclusive (time = index * dt)."""
        if i1 < i0:
            raise ValueError("empty index range")
        spb, blk = self.steps_per_block, self._blk
        j0, j1 = i0 // spb, i1 // spb
        if j1 >= 0 and j1 not in blk:
            self._fill(range(max(self._bnd), j1 + 1))
        if j0 < 0 and j0 not in blk:
            self._fill(range(min(self._bnd) - 1, j0 - 1, -1))
        # Neighbouring blocks share their boundary value bitwise.
        parts = [blk[j][:spb] for j in range(j0, j1 + 1)] + [blk[j1][spb:]]
        return np.concatenate(parts)[i0 - j0 * spb : i1 - j0 * spb + 1]


@dataclass(frozen=True)
class ShiftedView:
    """The path s -> omega(s + offset) - omega(offset), held as the root
    path and the offset; ou_from_path reads the root at the shifted times.

    Views always hold the root path plus a single accumulated offset, so
    composing shifts is associative to the last bit: shifting a view produces
    the same object as one shift by the summed offset.
    """

    base: object
    offset: float

    @property
    def dt(self) -> float:
        return self.base.dt


def make_path(seed: int, dt: float,
              block_length: float = BLOCK_LENGTH) -> NoisePath:
    """Frozen two-sided Brownian path for the given seed and step grid."""
    return NoisePath(seed, dt, block_length)


def shift(path, s: float) -> ShiftedView:
    """Time-shifted view of a path; shifting a view accumulates offsets."""
    if isinstance(path, ShiftedView):
        return ShiftedView(path.base, path.offset + float(s))
    return ShiftedView(path, float(s))


def _resolve(path):
    if isinstance(path, ShiftedView):
        return path.base, path.offset
    return path, 0.0


@dataclass(frozen=True)
class OUPath:
    """Stationary OU values z at nodes of step dt, driven by a stored path."""

    dt: float
    values: np.ndarray


@lru_cache(maxsize=1)
def _ou_values(base, rate: float, k0: int, k1: int, m: int) -> np.ndarray:
    """OU values at indices k0..k1 of the coarse grid m*dt of a root path.

    Memoized (the last window) and read-only: the initial states of a
    pullback read one window, and eta on z's path at z's rate reads z's.
    Paths hash by identity and the cache holds them, so no id is reused.

    Values come in blocks of K = steps_per_block // m entries.  Each block
    starts from a fresh quadrature anchor at its boundary and advances by the
    exact update for piecewise-linear input,

        z_{k+1} = e^{-rate*dt} z_k + (omega_{k+1}-omega_k) * (1-e^{-rate*dt})/(rate*dt),

    so the value at a given index never depends on how large a window was
    requested.  The anchor quadrature is exact for the same piecewise-linear
    input, so its mismatch with the value recursed out of the previous block
    is truncation-sized (the QUAD_TOL tail weight, far below solver error).
    A window's blocks are the rows of one (blocks, K) array: the anchors fill
    its first column, and every later node is y = decay * y + inc, with
    inc = gain * (omega_{k+1} - omega_k) taken once for the window (the
    order of operations of a first-order lfilter, so the bits match it).
    With at least as many blocks as entries per block the recursion runs one
    column at a time across all rows; otherwise it runs along each row over
    Python floats, the last row only up to k1, since no node depends on a
    later one.
    """
    kblock = base.steps_per_block // m
    dt_ou = m * base.dt
    steps, wts, bfac = _anchor_kernel(rate, dt_ou)
    decay = math.exp(-rate * dt_ou)
    gain = -math.expm1(-rate * dt_ou) / (rate * dt_ou)
    j0, j1 = k0 // kblock, k1 // kblock
    first = j0 * kblock - steps          # coarse index of the first node read
    w = base.grid_values(first * m, ((j1 + 1) * kblock - 1) * m)[::m]
    nb = j1 - j0 + 1
    # Block j's boundary sits at w[steps + (j - j0) * kblock], and its anchor
    # weights the steps + 1 nodes ending there.  vecdot takes ddot on each
    # window, as np.dot does on one, so it keeps the bits that one matrix
    # product would not.
    dots = np.vecdot(sliding_window_view(
        w[:(nb - 1) * kblock + steps + 1], steps + 1)[::kblock], wts)
    anchors = w[steps::kblock] - bfac * w[:nb * kblock:kblock] - rate * dots
    blk = w[steps:].reshape(nb, kblock)
    inc = gain * (blk[:, 1:] - blk[:, :-1])
    lo = k0 - j0 * kblock
    if nb >= kblock:
        out = np.empty((nb, kblock))
        out[:, 0] = anchors
        for j in range(1, kblock):
            out[:, j] = decay * out[:, j - 1] + inc[:, j - 1]
        vals = out.ravel()[lo : lo + k1 - k0 + 1]
    else:
        rows = inc.tolist()
        del rows[-1][k1 - j1 * kblock:]
        nodes = []
        for y, row in zip(anchors.tolist(), rows):
            nodes.append(y)
            for x in row:
                y = decay * y + x
                nodes.append(y)
        vals = np.array(nodes[lo:])
    vals.flags.writeable = False
    return vals


def ou_from_path(path, rate: float, t0: float, t1: float, dt: float | None = None) -> OUPath:
    """Stationary OU process driven by the given path, sampled on [t0, t1].

    The OU value at a node is a pure function of the underlying root path and
    the node's absolute time there, so evaluations through shifted views and
    over different windows agree bitwise wherever they overlap.  The process
    solves dz = -rate*z dt + d(omega); its marginal variance is 1/(2*rate).

    t0, t1, the OU step dt (default: the path step), and the view offset must
    all sit on the dt grid, and dt must divide the path's block length.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    base, offset = _resolve(path)
    dt_ou = base.dt if dt is None else float(dt)
    m = snap_steps(dt_ou, base.dt, "dt")
    if m < 1:
        raise ValueError("dt must be a positive multiple of the path step")
    if base.steps_per_block % m:
        raise ValueError("coarse step must divide the block length")
    off_k = snap_steps(offset, dt_ou, "shift offset")
    k0 = snap_steps(t0, dt_ou, "t0")
    k1 = snap_steps(t1, dt_ou, "t1")
    if k1 < k0:
        raise ValueError("t1 must be >= t0")
    vals = _ou_values(base, rate, k0 + off_k, k1 + off_k, m)
    return OUPath(dt=dt_ou, values=vals)


@dataclass(frozen=True)
class EtaConfig(_Checked):
    """How the scalar modulation process eta is built from the noise.

    kind "constant" pins eta to `mean`; "shifted-ou" adds the stationary OU
    of rate `rate` to it, so E(eta) = `mean` either way.  With `seed` set, eta
    rides its own independent path (shifted in lockstep with the main one);
    otherwise it is derived from the same path that drives the equation.
    """

    kind: str = "shifted-ou"
    mean: float = 0.0
    rate: float = 1.0
    seed: int | None = None

    @staticmethod
    def violations(v) -> list:
        return violated(
            ("kind", v["kind"] in ("constant", "shifted-ou"),
             "eta_kind must be constant or shifted-ou"),
            ("rate", v["rate"] > 0, "eta_rate must be > 0"))


_eta_root = lru_cache(maxsize=1)(NoisePath)


def make_eta(path, cfg: EtaConfig, t0: float, t1: float,
             dt: float | None = None) -> np.ndarray:
    """eta at the nodes of [t0, t1] with step dt (default: the path step),
    alongside a path window at its offsets; eta_seed's own path is kept."""
    if cfg.kind == "constant":
        step = path.dt if dt is None else float(dt)
        return np.full(snap_steps(t1 - t0, step, "window") + 1, cfg.mean)
    if cfg.seed is not None:
        base, off = _resolve(path)
        path = shift(_eta_root(cfg.seed, base.dt, base.block_length), off)
    z = ou_from_path(path, cfg.rate, t0, t1, dt).values
    # mean 0 keeps the OU values themselves (read-only, maybe shared with z).
    return cfg.mean + z if cfg.mean != 0.0 else z


def _cumtrapz(values: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * (values[1:] + values[:-1]) * dx, out=out[1:])
    return out


def ergodic_diagnostics(z: OUPath) -> dict:
    """Sublinearity ratios |z(t)|/t and |(1/t) int_0^t z| at several horizons.

    Both ratios tend to zero along almost every realization; the report gives
    them at a quarter, half, and the full horizon (measured from the window
    start).  Requires a horizon of at least 100 time units.
    """
    n = len(z.values) - 1
    span = n * z.dt
    if span < 100.0:
        raise ValueError(f"horizon must be at least 100, got {span!r}")
    cum = _cumtrapz(z.values, z.dt)
    horizons, sub, mean = [], [], []
    for frac in (0.25, 0.5, 1.0):
        idx = max(1, int(round(frac * n)))
        h = idx * z.dt
        horizons.append(h)
        sub.append(abs(float(z.values[idx])) / h)
        mean.append(float(cum[idx]) / h)
    return {
        "horizons": np.array(horizons),
        "sublinear_ratio": np.array(sub),
        "mean_ratio": np.array(mean),
    }
