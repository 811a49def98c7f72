"""Sampled operator curves and functionals on them.

Uniform time grids, unitary orbits of a state, curve concatenation and
reversal, the finite-difference/trapezoid toolbox, and the Fisher-Rao
length and kinetic energy of eigenvalue paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, tolerances
from .errors import (
    EndpointMismatch,
    GridMismatch,
    NonFinite,
    NonPositiveEigenvalue,
    NotDescending,
    NotNormalized,
)
from .spectra import DensityOperator

Array = np.ndarray


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k tau / (n - 1) on [0, tau]."""

    tau: float
    n: int

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.n < 2:
            raise ValueError(f"need at least 2 samples, got {self.n}")

    @property
    def dt(self) -> float:
        return self.tau / (self.n - 1)

    @property
    def times(self) -> Array:
        return np.linspace(0.0, self.tau, self.n)


@dataclass(frozen=True, eq=False)
class OperatorCurve:
    """Matrix-valued samples on a uniform time grid; samples has shape
    (n, rows, cols) and finite entries (NonFinite names the first bad sample)."""

    grid: TimeGrid
    samples: Array

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim != 3 or s.shape[0] != self.grid.n:
            raise ValueError(f"samples shape {s.shape} does not match grid n={self.grid.n}")
        _check_finite(s)
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_samples(cls, tau: float, samples) -> "OperatorCurve":
        s = np.asarray(samples, dtype=np.complex128)
        return cls(grid=TimeGrid(tau=float(tau), n=s.shape[0]), samples=s)

    @property
    def initial(self) -> Array:
        return self.samples[0]

    @property
    def final(self) -> Array:
        return self.samples[-1]

    def closure_defect(self) -> float:
        return float(np.linalg.norm(self.initial - self.final))


@dataclass(frozen=True, eq=False)
class UnitaryOrbit(OperatorCurve):
    """State curve rho_k = U_k rho_0 U_k^dag of a unitary run, built from its
    propagators and Hamiltonians (N, n, n) and its start rho_0, so its samples,
    eigenframes U_k F_0 and tangents -i[H_k, rho_k] cannot disagree. The
    propagators and Hamiltonians must be finite (NonFinite names the first bad
    sample). The samples are formed, Hermitian, on their first read; initial
    and final form only the first and last state, once each. All five arrays
    are read-only."""

    samples: Array = field(init=False)
    propagators: Array
    start: DensityOperator
    hamiltonians: Array

    def __post_init__(self):
        u, h = (np.asarray(a, dtype=np.complex128).view() for a in (self.propagators, self.hamiltonians))
        if u.shape != (self.grid.n, *self.start.matrix.shape):
            raise ValueError(f"propagators shape {u.shape} does not match grid n={self.grid.n}, dim {self.start.dim}")
        if h.shape != u.shape:
            raise ValueError(f"hamiltonians shape {h.shape} does not match propagators shape {u.shape}")
        _check_finite(u, h)
        u.flags.writeable = h.flags.writeable = False
        object.__setattr__(self, "propagators", u)
        object.__setattr__(self, "hamiltonians", h)

    def __getattr__(self, name: str):
        # reached only while the instance has no such attribute: samples before its first read
        if name != "samples":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "samples", _orbit_states(self.propagators, self.start.matrix))
        return self.samples

    @cached_property
    def initial(self) -> Array:
        return _orbit_states(self.propagators[:1], self.start.matrix)[0]

    @cached_property
    def final(self) -> Array:
        return _orbit_states(self.propagators[-1:], self.start.matrix)[0]


def _orbit_states(u: Array, rho0: Array) -> Array:
    """The read-only states U_k rho_0 U_k^dag of a propagator stack (N, n, n),
    made Hermitian: the one state formula of UnitaryOrbit."""
    states = linalg.matmul_stack(linalg.matmul_stack(u, rho0), np.conj(np.swapaxes(u, -1, -2)))
    states = 0.5 * (states + np.conj(np.swapaxes(states, -1, -2)))
    states.flags.writeable = False
    return states


def _check_finite(*stacks: Array) -> None:
    """Raise NonFinite, naming the first sample, unless the stacks (N, ...) are finite (at linalg.stored_samples)."""
    stacks = [linalg.stored_samples(s) for s in stacks]
    if not all(np.isfinite(s).all() for s in stacks):
        finite = [np.isfinite(s).reshape(len(s), -1).all(axis=1) for s in stacks]
        raise NonFinite(f"sample {min(int(np.argmin(f)) for f in finite if not f.all())} has non-finite entries")


@dataclass(frozen=True, eq=False)
class ProbabilityPath:
    """Finite per-block eigenvalue samples p_{j;t} with fixed multiplicities m,
    validated at linalg.stored_samples."""

    grid: TimeGrid
    values: Array
    m: tuple[int, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.grid.n or values.shape[1] != len(self.m):
            raise ValueError(f"values shape {values.shape} does not match grid/m")
        v = linalg.stored_samples(values)
        _check_finite(v)
        if np.any(v <= 0.0):
            raise NonPositiveEigenvalue("eigenvalue path touches zero")
        # boundary points of the simplex (ties) are admitted
        if v.shape[1] > 1 and np.any(v[:, :-1] - v[:, 1:] < -tolerances.PATH_ORDER_TOL):
            raise NotDescending("eigenvalue path is not descending")
        totals = v @ np.asarray(self.m, dtype=float)
        if np.any(np.abs(totals - 1.0) > tolerances.PATH_NORM_TOL):
            raise NotNormalized("eigenvalue path is not normalized")
        object.__setattr__(self, "values", values)


def grid_derivative(samples: Array, dt: float) -> Array:
    """d/dt along axis 0: central differences inside (five-point stencil
    where available), second-order one-sided differences at the endpoints.
    Each stencil sums weighted differences of samples, so a constant stack
    differentiates to exactly 0."""
    s = np.asarray(samples)
    if s.shape[0] < 3:
        d = np.empty_like(s)
        d[:] = (s[-1] - s[0]) / dt
        return d
    d = np.empty_like(s)
    # central differences next to the ends (all of the interior for N <= 4),
    # the five-point stencil between them
    d[[1, -2]] = (s[[2, -1]] - s[[0, -3]]) / (2.0 * dt)
    d[2:-2] = ((s[:-4] - s[4:]) + 8.0 * (s[3:-1] - s[1:-3])) / (12.0 * dt)
    d[0] = (4.0 * (s[1] - s[0]) - (s[2] - s[0])) / (2.0 * dt)
    d[-1] = (4.0 * (s[-1] - s[-2]) - (s[-1] - s[-3])) / (2.0 * dt)
    return d


def trapezoid(values: Array, dt: float) -> float:
    return float(np.trapezoid(np.asarray(values, dtype=float), dx=dt))


def concatenate(c1: OperatorCurve, c2: OperatorCurve) -> OperatorCurve:
    """Join two curves end to start, dropping the duplicate junction sample.

    The final sample of c1 must equal the initial sample of c2 within ENDPOINT_TOL,
    and both curves must share the same sample spacing so the joined grid
    stays uniform.
    """
    if c1.samples.shape[1:] != c2.samples.shape[1:]:
        raise EndpointMismatch(f"sample shapes differ: {c1.samples.shape[1:]} vs {c2.samples.shape[1:]}")
    gap = float(np.linalg.norm(c1.final - c2.initial))
    if gap > tolerances.ENDPOINT_TOL:
        raise EndpointMismatch(f"junction gap {gap:.3e} exceeds {tolerances.ENDPOINT_TOL:.3e}")
    if abs(c1.grid.dt - c2.grid.dt) > tolerances.SPACING_TOL * max(c1.grid.dt, c2.grid.dt):
        raise GridMismatch(f"sample spacings differ: {c1.grid.dt!r} vs {c2.grid.dt!r}")
    samples = np.concatenate([c1.samples, c2.samples[1:]], axis=0)
    return OperatorCurve(grid=TimeGrid(tau=c1.grid.tau + c2.grid.tau, n=samples.shape[0]), samples=samples)


def reverse(c: OperatorCurve) -> OperatorCurve:
    """Time-reversed curve on the same grid."""
    return OperatorCurve(grid=c.grid, samples=c.samples[::-1].copy())


def fisher_rao(path: ProbabilityPath) -> tuple[float, float]:
    """Fisher-Rao length and kinetic energy of an eigenvalue path.

    The squared speed of the weighted distribution (m_1 p_1, ..., m_l p_l)
    is sum_j m_j pdot_j^2 / p_j / 4; the length carries a 1/2 prefactor and
    the energy a 1/8 prefactor. Derivatives are finite differences and the
    quadrature is the composite trapezoid rule. ProbabilityPath has checked
    that every p_j is positive; values broadcast over the grid (one stored sample) give 0.
    """
    if len(linalg.stored_samples(path.values)) == 1:
        return 0.0, 0.0
    p = path.values
    pdot = grid_derivative(p, path.grid.dt)
    mvec = np.asarray(path.m, dtype=float)
    quad = np.sum(mvec * pdot**2 / p, axis=1)
    length = 0.5 * trapezoid(np.sqrt(quad), path.grid.dt)
    energy = 0.125 * trapezoid(quad, path.grid.dt)
    return length, energy
