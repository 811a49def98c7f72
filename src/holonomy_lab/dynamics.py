"""Unitary dynamics under Hamiltonian schedules.

Midpoint propagator integration, the state-coherent/state-incoherent split
of a Hamiltonian, energy-uncertainty accounting, the cyclic speed-limit
report, and closed-form reference values for the precessing-qubit benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bundle, invariants, linalg
from .curves import OperatorCurve, TimeGrid, trapezoid
from .errors import (
    ContractViolation,
    DimMismatch,
    GridMismatch,
    InvalidP,
    StationaryAxis,
)
from .spectra import DensityOperator

Array = np.ndarray

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class HamiltonianSchedule(OperatorCurve):
    """Operator curve whose samples are Hermitian (hbar = 1)."""

    def __post_init__(self):
        super().__post_init__()
        linalg.check_hermitian_stack(self.samples)

    @classmethod
    def constant(cls, h: Array, tau: float, n: int) -> "HamiltonianSchedule":
        h = linalg.as_cmat(h)
        return cls(grid=TimeGrid(tau=tau, n=n), samples=np.broadcast_to(h, (n, *h.shape)).copy())


def evolve(rho0: DensityOperator, sched: HamiltonianSchedule) -> tuple[OperatorCurve, OperatorCurve]:
    """Propagate rho0 under the schedule; returns (U curve, state curve).

    The propagator is stepped with the midpoint Hamiltonian (linear
    interpolation between samples), which is exact for constant schedules.
    """
    n = rho0.dim
    if sched.samples.shape[1:] != (n, n):
        raise DimMismatch(f"schedule acts on dim {sched.samples.shape[1]}, state has dim {n}")
    nsamp = sched.grid.n
    dt = sched.grid.dt
    if float(np.max(np.abs(sched.samples - sched.samples[0]))) == 0.0:
        step = linalg.propagator_step(sched.samples[0], dt)
        steps = np.broadcast_to(step, (nsamp - 1, n, n))
    else:
        mids = 0.5 * (sched.samples[:-1] + sched.samples[1:])
        steps = linalg.propagator_step_stack(mids, dt)
    props = linalg.ordered_products(steps)
    states = props @ rho0.matrix @ np.conj(np.swapaxes(props, -1, -2))
    return (
        OperatorCurve(grid=sched.grid, samples=props),
        OperatorCurve(grid=sched.grid, samples=states),
    )


def split_hamiltonian(h: Array, rho: DensityOperator) -> tuple[Array, Array]:
    """State-incoherent and state-coherent components of a Hamiltonian.

    The incoherent part sums the compressions of H onto the eigenspaces of
    rho and onto its kernel; it commutes with rho. The coherent part is the
    remainder, and has no block-diagonal component.
    """
    h = linalg.as_cmat(h)
    if h.shape != rho.matrix.shape:
        raise DimMismatch(f"H has shape {h.shape}, state has shape {rho.matrix.shape}")
    h_in = np.zeros_like(h)
    for f in rho.frames:
        h_in += f @ (f.conj().T @ h @ f) @ f.conj().T
    if rho.kernel.shape[1] > 0:
        f = rho.kernel
        h_in += f @ (f.conj().T @ h @ f) @ f.conj().T
    return h_in, h - h_in


def uncertainty(rho: DensityOperator, h: Array) -> tuple[float, float, float]:
    """(Delta H, Delta H_co, Delta H_in) for the state rho.

    The variance splits: Delta^2 H = Delta^2 H_co + Delta^2 H_in, and the
    coherent part has zero mean in the state. Raises NonHermitian for a
    non-Hermitian h.
    """
    h_in, h_co = split_hamiltonian(h, rho)
    h = linalg.as_cmat(h)
    linalg.check_hermitian_stack(h[None])
    dh, dco, din = np.sqrt(np.maximum(variance_path(rho.matrix, np.stack([h, h_co, h_in])), 0.0))
    return float(dh), float(dco), float(din)


def incoherent_part_path(hs: Array, spath: bundle.SpectralPath) -> Array:
    """Batched state-incoherent components along a decomposed state path."""
    h_in = np.zeros_like(hs)
    slices = list(spath.blocks)
    if spath.rank < spath.frames.shape[1]:
        slices.append((spath.rank, spath.frames.shape[1]))
    for lo, hi in slices:
        f = spath.frames[:, :, lo:hi]
        fh = np.conj(np.swapaxes(f, -1, -2))
        h_in += f @ (fh @ hs @ f) @ fh
    return h_in


def variance_path(states: Array, hs: Array) -> Array:
    """Variances tr(rho H^2) - tr(rho H)^2 of Hermitian H over stacks
    (N, n, n), broadcasting a single state or Hamiltonian."""
    prod = states @ hs
    means = np.real(np.trace(prod, axis1=-2, axis2=-1))
    # tr(rho H H) contracts (rho H) against H^dag = H entrywise
    sq = np.real(np.sum(prod * np.conj(hs), axis=(-2, -1)))
    return sq - means**2


def _uncertainty_path(states: Array, hs: Array, spath: bundle.SpectralPath) -> tuple[Array, Array, Array]:
    """Batched (Delta^2 H, Delta^2 H_co, Delta^2 H_in) along an evolution."""
    h_in = incoherent_part_path(hs, spath)
    return variance_path(states, hs), variance_path(states, hs - h_in), variance_path(states, h_in)


@dataclass(frozen=True, eq=False)
class SpeedLimitReport:
    """Cyclic speed-limit accounting for one closed unitary run."""

    tau: float
    delta_e: float
    ihb: float
    bound: float
    margin: float
    dh: Array
    dh_co: Array
    dh_in: Array
    holonomy: bundle.GaugeElement
    phases: invariants.PhaseSpectrum


def speed_limit(rho_curve: OperatorCurve, sched: HamiltonianSchedule, w0: bundle.Amplitude,
                gap_tol: float = linalg.GAP_TOL, zero_tol: float = linalg.ZERO_TOL,
                closed_tol: float = bundle.CLOSED_TOL,
                pythagoras_tol: float = 1e-8, speed_identity_tol: float = 1e-6) -> SpeedLimitReport:
    """Speed-limit report for a closed unitary evolution; see speed_report."""
    loop = bundle.closed_loop(rho_curve, w0, gap_tol=gap_tol, zero_tol=zero_tol, closed_tol=closed_tol)
    return speed_report(loop, sched, pythagoras_tol=pythagoras_tol, speed_identity_tol=speed_identity_tol)


def speed_report(loop: bundle.ClosedLoop, sched: HamiltonianSchedule,
                 pythagoras_tol: float = 1e-8, speed_identity_tol: float = 1e-6) -> SpeedLimitReport:
    """Speed-limit report for an analysed closed unitary evolution.

    Verifies the per-sample variance decomposition and the identity between
    the squared state speed and the coherent variance, then reports the
    holonomy-based lower bound on the return time and its margin.
    """
    rho_curve, spath, hol = loop.curve, loop.path, loop.holonomy
    if rho_curve.samples.shape != sched.samples.shape:
        raise DimMismatch("state curve and schedule have different shapes")
    if abs(rho_curve.grid.tau - sched.grid.tau) > 1e-12 * sched.grid.tau:
        raise GridMismatch("state curve and schedule cover different intervals")
    phases = invariants.eigenphases(hol)
    ihb = invariants.ihb_isospectral(spath.block_means()[0], phases)

    dh2, dco2, din2 = _uncertainty_path(rho_curve.samples, sched.samples, spath)
    pyth = np.abs(dh2 - dco2 - din2) / np.maximum(1.0, np.abs(dh2))
    if np.any(pyth > pythagoras_tol):
        raise ContractViolation(f"variance decomposition violated by {np.max(pyth):.3e}")

    rdots = -1j * (sched.samples @ rho_curve.samples - rho_curve.samples @ sched.samples)
    speeds2 = bundle.path_speeds_sq(spath, rdots, tangent_tol=1e-6)
    dev = np.abs(speeds2 - dco2) / np.maximum(1.0, np.abs(dco2))
    if np.any(dev > speed_identity_tol):
        raise ContractViolation(f"speed identity violated by {np.max(dev):.3e}")

    dh = np.sqrt(np.maximum(dh2, 0.0))
    tau = rho_curve.grid.tau
    delta_e = trapezoid(dh, rho_curve.grid.dt) / tau
    if delta_e > 0.0:
        bound = ihb / delta_e
    elif ihb <= 1e-12:
        bound = 0.0
    else:
        raise ContractViolation("nonzero holonomy with zero average uncertainty")
    margin = tau - bound
    if margin < -1e-6:
        raise ContractViolation(f"speed-limit margin {margin:.3e} is negative")
    return SpeedLimitReport(
        tau=tau, delta_e=delta_e, ihb=ihb, bound=bound, margin=margin,
        dh=dh, dh_co=np.sqrt(np.maximum(dco2, 0.0)), dh_in=np.sqrt(np.maximum(din2, 0.0)),
        holonomy=hol, phases=phases,
    )


def horizontal_lift_unitary(rho_curve: OperatorCurve, sched: HamiltonianSchedule,
                            w0: bundle.Amplitude,
                            gap_tol: float = linalg.GAP_TOL,
                            zero_tol: float = linalg.ZERO_TOL) -> OperatorCurve:
    """Horizontal lift of a unitary run by integrating with the coherent part.

    Steps W with exp(-i Hco dt) using trapezoid-averaged coherent samples;
    cross-validates the eigenframe-transport lift.
    """
    if rho_curve.samples.shape != sched.samples.shape:
        raise DimMismatch("state curve and schedule have different shapes")
    spath = bundle.decompose_path(rho_curve, gap_tol=gap_tol, zero_tol=zero_tol)
    if tuple(w0.basis.m) != spath.m:
        raise DimMismatch(f"amplitude basis m={w0.basis.m}, curve has m={spath.m}")
    h_co = sched.samples - incoherent_part_path(sched.samples, spath)
    mids = 0.5 * (h_co[:-1] + h_co[1:])
    steps = linalg.propagator_step_stack(mids, sched.grid.dt, tol=1e-8)
    return OperatorCurve(grid=sched.grid, samples=linalg.ordered_products(steps, w0.w))


@dataclass(frozen=True, eq=False)
class QubitReference:
    """Closed-form benchmark values for a qubit precessing about the axis n."""

    n: tuple[float, float, float]
    omega: float
    p0: float
    tau: float
    phases: tuple[float, float]
    ihb: float
    delta_e: float
    bound: float
    length: float
    hamiltonian: Array


def qubit_hamiltonian(n, omega: float) -> Array:
    n = np.asarray(n, dtype=float)
    return 0.5 * omega * (n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3)


def qubit_reference(n, omega: float, p0: float) -> QubitReference:
    """Analytic record for the precessing mixed qubit over one period.

    The axis must be a unit vector not parallel to (0, 0, 1), and p0 must
    lie strictly between 1/2 and 1.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(float(np.linalg.norm(n)) - 1.0) > 1e-9:
        raise StationaryAxis(f"axis must be a unit 3-vector, got {n.tolist()}")
    if n[0] ** 2 + n[1] ** 2 <= 1e-18:
        raise StationaryAxis("axis parallel to (0, 0, 1) leaves the state stationary")
    if not 0.5 < p0 < 1.0:
        raise InvalidP(f"p0 must lie in (1/2, 1), got {p0}")
    if not omega > 0.0:
        raise InvalidP(f"omega must be positive, got {omega}")
    n3 = float(n[2])
    tau = 2.0 * np.pi / omega
    theta0 = np.pi * (1.0 + n3)
    theta1 = np.pi * (1.0 - n3)
    ihb = np.pi * np.sqrt(1.0 - n3**2)
    delta_e = 0.5 * omega * np.sqrt(1.0 - n3**2 * (2.0 * p0 - 1.0) ** 2)
    bound = ihb / delta_e
    length = np.pi * np.sqrt(1.0 - n3**2)
    return QubitReference(
        n=(float(n[0]), float(n[1]), float(n[2])), omega=float(omega), p0=float(p0),
        tau=float(tau), phases=(float(theta0), float(theta1)), ihb=float(ihb),
        delta_e=float(delta_e), bound=float(bound), length=float(length),
        hamiltonian=qubit_hamiltonian(n, omega),
    )
