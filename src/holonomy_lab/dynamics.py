"""Unitary dynamics under Hamiltonian schedules.

Midpoint propagator integration, the state-coherent/state-incoherent split
of a Hamiltonian, energy-uncertainty accounting, the cyclic speed-limit
report, and closed-form reference values for the precessing-qubit benchmark.
The split, the variances and the speeds (bundle.state_speeds_sq) are read off
B = F^dag H F in the eigenframes F of the states: H_in is B on the block mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bundle, invariants, linalg, tolerances
from .curves import OperatorCurve, TimeGrid, UnitaryOrbit, trapezoid
from .errors import (
    ContractViolation,
    DimMismatch,
    GridMismatch,
    InvalidP,
    OutOfRange,
    StationaryAxis,
)
from .spectra import DensityOperator

Array = np.ndarray

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class HamiltonianSchedule(OperatorCurve):
    """Operator curve whose samples are Hermitian (hbar = 1). Samples that all equal the first
    bitwise (a time-independent H) are stored as a read-only broadcast of a copy of sample 0."""

    def __post_init__(self):
        super().__post_init__()
        s = linalg.stored_samples(self.samples)
        if np.all(s == s[0]):
            object.__setattr__(self, "samples", np.broadcast_to(s[0].copy(), self.samples.shape))
        linalg.check_hermitian_stack(self.samples)

    @classmethod
    def constant(cls, h: Array, tau: float, n: int) -> "HamiltonianSchedule":
        """The read-only schedule of h broadcast over n samples (stride 0), checked at sample 0."""
        h = linalg.as_cmat(h)
        return cls(grid=TimeGrid(tau=tau, n=n), samples=np.broadcast_to(h, (n, *h.shape)))


def _steps(hs: Array, dt: float) -> Array:
    """The (N - 1, n, n) midpoint steps exp(-i dt (H_k + H_{k+1})/2) of a checked
    Hermitian stack (N, n, n): the step builder of evolve, the one unitary
    integrator. A broadcast stack (one stored sample) takes one exponential,
    broadcast; the midpoint of equal samples is that sample. The sums
    H_k + H_{k+1} go in with the step dt / 2, the same product, as both
    halvings are exact."""
    if len(linalg.stored_samples(hs)) == 1:
        return np.broadcast_to(linalg.propagator_step_stack(hs[:1], dt), (len(hs) - 1, *hs.shape[1:]))
    return linalg.propagator_step_stack(hs[:-1] + hs[1:], 0.5 * dt)


def evolve(rho0: DensityOperator, sched: HamiltonianSchedule) -> tuple[OperatorCurve, UnitaryOrbit]:
    """Propagate rho0 under the schedule; returns (U curve, state curve).

    The propagator takes the midpoint steps of _steps (linear
    interpolation between samples), which are exact for constant schedules.
    The state curve is the UnitaryOrbit of rho0 under the propagators and
    the schedule's samples, whose spectral path decompose_path reads without
    eigendecomposing; the U curve holds the same read-only propagators.
    """
    n = rho0.dim
    if sched.samples.shape[1:] != (n, n):
        raise DimMismatch(f"schedule acts on dim {sched.samples.shape[1]}, state has dim {n}")
    # the schedule checked its samples when it was built
    props = linalg.ordered_products(_steps(sched.samples, sched.grid.dt))
    states = UnitaryOrbit(grid=sched.grid, propagators=props, start=rho0, hamiltonians=sched.samples)
    return OperatorCurve(grid=sched.grid, samples=states.propagators), states


def split_hamiltonian(h: Array, rho: DensityOperator) -> tuple[Array, Array]:
    """State-incoherent and state-coherent components of a Hamiltonian.

    The incoherent part sums the compressions of H onto the eigenspaces of
    rho and onto its kernel; it commutes with rho. The coherent part is the
    remainder, and has no block-diagonal component. Raises NonHermitian for
    a non-Hermitian h.
    """
    h = linalg.as_hermitian(h)
    if h.shape != rho.matrix.shape:
        raise DimMismatch(f"H has shape {h.shape}, state has shape {rho.matrix.shape}")
    h_in = incoherent_part_path(h[None], bundle.SpectralPath.of_state(rho))[0]
    return h_in, h - h_in


def uncertainty(rho: DensityOperator, h: Array) -> tuple[float, float, float]:
    """(Delta H, Delta H_co, Delta H_in) for the state rho.

    The variance splits: Delta^2 H = Delta^2 H_co + Delta^2 H_in, and the
    coherent part has zero mean in the state. Raises NonHermitian for a
    non-Hermitian h.
    """
    h = linalg.as_hermitian(h)
    if h.shape != rho.matrix.shape:
        raise DimMismatch(f"H has shape {h.shape}, state has shape {rho.matrix.shape}")
    spath = bundle.SpectralPath.of_state(rho)
    dh, dco, din = np.sqrt(variance_split(spath.in_eigenframe(h[None]), spath))[:, 0]
    return float(dh), float(dco), float(din)


def incoherent_part_path(hs: Array, spath: bundle.SpectralPath) -> Array:
    """Batched state-incoherent components F (B o mask) F^dag along a
    decomposed state path, with B = F^dag H F and the block mask."""
    b = spath.in_eigenframe(hs)
    return linalg.matmul_stack(linalg.matmul_stack(spath.frames, b * spath.block_mask),
                               np.conj(np.swapaxes(spath.frames, -1, -2)))


def variance_split(b: Array, spath: bundle.SpectralPath) -> tuple[Array, Array, Array]:
    """(Delta^2 H, Delta^2 H_co, Delta^2 H_in) per sample from B = F^dag H F.

    With eigenvalues lambda_i (kernel zeros included) and the mean
    mu = sum_i lambda_i B_ii, each variance sums lambda_i |B_ij - mu delta_ij|^2
    over its entries: the block mask for H_in, the rest for H_co (zero mean),
    all for H. No term is negative, and H + c I cancels c before squaring.
    """
    lam, diag = spath.values, np.arange(b.shape[-1])
    centred = b[:, diag, diag] - np.einsum("ki,ki->k", lam, b[:, diag, diag].real)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a square past 1e308 is inf; speed_bound rejects it
        weighted = np.square(b.real)
        weighted += np.square(b.imag)
        weighted *= lam[:, :, None]
        weighted[:, diag, diag] = lam * (centred.real**2 + centred.imag**2)
        flat, mask = weighted.reshape(len(b), -1), spath.block_mask.ravel()  # a GEMV per mask: np.sum is slower
        din2, dco2 = flat @ mask.astype(float), flat @ (~mask).astype(float)
        return din2 + dco2, dco2, din2


def _uncertainty_path(states: Array, hs: Array, spath: bundle.SpectralPath) -> tuple[Array, Array, Array]:
    """variance_split of the Hamiltonians hs; the states enter through spath."""
    return variance_split(spath.in_eigenframe(hs), spath)


@dataclass(frozen=True, eq=False)
class SpeedLimitReport:
    """Cyclic speed-limit accounting for one closed unitary run; dh, dh_co
    and dh_in are read-only (N,) arrays."""

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


def _check_run(rho_curve: OperatorCurve, sched: HamiltonianSchedule) -> None:
    """The state curve and the schedule share sample shapes and interval; an
    orbit forms only its first state for this."""
    if (rho_curve.grid.n, *rho_curve.initial.shape) != sched.samples.shape:
        raise DimMismatch("state curve and schedule have different shapes")
    if abs(rho_curve.grid.tau - sched.grid.tau) > tolerances.INTERVAL_TOL * sched.grid.tau:
        raise GridMismatch("state curve and schedule cover different intervals")


def speed_limit(rho_curve: OperatorCurve, sched: HamiltonianSchedule, w0: bundle.Amplitude) -> SpeedLimitReport:
    """Speed-limit report for a closed unitary evolution; see speed_report."""
    return speed_report(bundle.closed_loop(rho_curve, w0), sched)


def speed_report(loop: bundle.ClosedLoop, sched: HamiltonianSchedule) -> SpeedLimitReport:
    """Speed-limit report for an analysed closed unitary evolution.

    Verifies the identity between the squared state speed and the coherent
    variance, relative to the run's largest coherent variance (so in no unit
    of time), which cross-checks lift_tangents against variance_split, then
    reports the holonomy-based lower bound of speed_bound on the return
    time and its margin, which may fall below zero by MARGIN_TOL times tau.
    Both are taken on the samples bundle.drive_in_eigenframe keeps: sample 0
    alone for an orbit under a constant drive checked against its own
    Hamiltonians, whose dh, dh_co and dh_in then repeat one value over the
    grid.
    """
    rho_curve, spath, hol = loop.curve, loop.path, loop.holonomy
    _check_run(rho_curve, sched)
    phases = invariants.eigenphases(hol)
    ihb = invariants.ihb_isospectral(spath.block_means()[0], phases)

    path, b = bundle.drive_in_eigenframe(rho_curve, spath, sched.samples)
    dh2, dco2, din2 = variance_split(b, path)
    dh, dh_co, dh_in = (np.broadcast_to(np.sqrt(v), rho_curve.grid.n) for v in (dh2, dco2, din2))
    delta_e, bound = speed_bound(dh, rho_curve.grid, ihb)
    dev = np.abs(bundle.state_speeds_sq(b, path) - dco2) / (np.max(dco2) or 1.0)
    if np.any(dev > tolerances.SPEED_IDENTITY_TOL):
        raise ContractViolation(f"speed identity violated by {np.max(dev):.3e}")

    margin = rho_curve.grid.tau - bound
    if margin < -tolerances.MARGIN_TOL * rho_curve.grid.tau:
        raise ContractViolation(f"speed-limit margin {margin:.3e} is negative")
    return SpeedLimitReport(
        tau=rho_curve.grid.tau, delta_e=delta_e, ihb=ihb, bound=bound, margin=margin,
        dh=dh, dh_co=dh_co, dh_in=dh_in, holonomy=hol, phases=phases,
    )


def speed_bound(dh: Array, grid: TimeGrid, ihb: float) -> tuple[float, float]:
    """Average energy uncertainty Delta E = trapezoid(Delta H) / tau and the
    speed-limit bound iHB / Delta E on the return time (0 when iHB = 0).
    Raises OutOfRange for a Delta E that is not finite, or 0 under a nonzero iHB."""
    delta_e = trapezoid(dh, grid.dt) / grid.tau
    if ihb and not delta_e:
        raise OutOfRange(f"tau = {grid.tau:.3e} underflows the energy uncertainty to zero under iHB = {ihb:.3e}")
    if not np.isfinite(delta_e):
        raise OutOfRange(f"tau = {grid.tau:.3e} overflows the energy uncertainty to {delta_e}")
    return delta_e, ihb / delta_e if ihb else 0.0


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

    The axis must be a finite unit vector not parallel to (0, 0, 1) and omega
    finite and positive; p0 needs 1 - p0 > ZERO_TOL and 2p0 - 1 >= BLOCK_GAP_TOL.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or not np.all(np.isfinite(n)) or abs(float(np.linalg.norm(n)) - 1.0) > tolerances.AXIS_NORM_TOL:
        raise StationaryAxis(f"axis must be a finite unit 3-vector, got {n.tolist()}")
    if n[0] ** 2 + n[1] ** 2 <= tolerances.AXIS_TILT_TOL:
        raise StationaryAxis("axis parallel to (0, 0, 1) leaves the state stationary")
    if not (1.0 - p0 > tolerances.ZERO_TOL and 2.0 * p0 - 1.0 >= tolerances.BLOCK_GAP_TOL):
        raise InvalidP(f"p0 must give rank 2 (1 - p0 > ZERO_TOL) and two blocks (2 p0 - 1 >= 10 GAP_TOL), got {p0}")
    if not (omega > 0.0 and np.isfinite(omega)):
        raise InvalidP(f"omega must be finite and positive, got {omega}")
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
