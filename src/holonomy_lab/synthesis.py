"""Synthesis of bound-saturating closed evolutions.

Builds, for any target gauge unitary, a closed isospectral state curve
whose length equals the isoholonomic bound: each holonomy eigenslot is
driven around an optimal constant-speed loop inside its own two-dimensional
subspace, and the drives combine into a single state-coherent Hamiltonian
schedule. Requires the ambient dimension to be at least twice the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bundle, dynamics, invariants, linalg, tolerances
from .curves import TimeGrid, UnitaryOrbit
from .errors import (
    DegeneracyMismatch,
    DimensionTooSmall,
    OutOfRange,
    SaturationFailed,
)
from .invariants import TWO_PI
from .spectra import DensityOperator, spectral_decompose

Array = np.ndarray

PLAN_SAMPLES = 4001

# branch integers of the minimizing pure loop; any other pair lengthens it
K_PLUS = 1
K_MINUS = 0


@dataclass(frozen=True, eq=False)
class PureLoopSpec:
    """One constant-speed closed pure-state loop with target phase theta.

    The loop lives in the plane spanned by the orthonormal pair (psi, phi),
    starts at psi, and returns to e^{i theta} psi at time tau.
    """

    theta: float
    tau: float
    psi: Array
    phi: Array

    def __post_init__(self):
        if not 0.0 <= self.theta < TWO_PI:
            raise OutOfRange(f"theta {self.theta!r} outside [0, 2pi)")
        if not self.tau > 0.0:
            raise OutOfRange(f"tau must be positive, got {self.tau}")
        psi = np.asarray(self.psi, dtype=np.complex128).reshape(-1)
        phi = np.asarray(self.phi, dtype=np.complex128).reshape(-1)
        for name, v in (("psi", psi), ("phi", phi)):
            if abs(np.linalg.norm(v) - 1.0) > tolerances.ORTHONORMAL_TOL:
                raise OutOfRange(f"{name} is not a unit vector")
        if abs(np.vdot(psi, phi)) > tolerances.ORTHONORMAL_TOL:
            raise OutOfRange("plane pair is not orthogonal")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)

    @property
    def a_plus(self) -> float:
        return (TWO_PI * K_PLUS - self.theta) / self.tau

    @property
    def a_minus(self) -> float:
        return (TWO_PI * K_MINUS - self.theta) / self.tau

    @property
    def mixing(self) -> float:
        """Angle chi with cos^2 chi = theta / 2pi; the initial state is
        cos(chi) e_+ + sin(chi) e_-, which makes it horizontal at t = 0."""
        return float(np.arccos(np.sqrt(self.theta / TWO_PI)))

    @property
    def speed(self) -> float:
        return invariants.pure_ihb(self.theta) / self.tau


def optimal_pure_loop(spec: PureLoopSpec, n_samples: int = 201) -> tuple[Array, Array]:
    """Generator and sampled trajectory of the optimal pure loop.

    Returns (generator, path) where generator is the Hermitian drive
    supported on the plane and path has shape (n_samples, dim). The loop is
    horizontal, has constant speed sqrt(theta (2pi - theta)) / tau, stays in
    its plane, and closes up to the phase factor e^{i theta}.
    """
    n = spec.psi.size
    ts = np.linspace(0.0, spec.tau, n_samples)
    if spec.theta == 0.0:
        return np.zeros((n, n), dtype=np.complex128), np.broadcast_to(spec.psi, (n_samples, n)).copy()
    chi = spec.mixing
    e_plus = np.cos(chi) * spec.psi + np.sin(chi) * spec.phi
    e_minus = np.sin(chi) * spec.psi - np.cos(chi) * spec.phi
    gen = spec.a_plus * np.outer(e_plus, e_plus.conj()) + spec.a_minus * np.outer(e_minus, e_minus.conj())
    path = (
        np.cos(chi) * np.exp(-1j * spec.a_plus * ts)[:, None] * e_plus
        + np.sin(chi) * np.exp(-1j * spec.a_minus * ts)[:, None] * e_minus
    )
    return gen, path


def complement_frame(support: Array, dim: int) -> Array:
    """(dim, dim - r) orthonormal frame of the complement of an orthonormal
    (dim, r) support frame S: the eigenvalue-1 block of I - S S^dag."""
    projector = np.eye(dim) - support @ support.conj().T
    return linalg.hermitian_eig(projector).frame[:, : dim - support.shape[1]]


def choose_planes(rho: DensityOperator, w: bundle.Amplitude, ambient_dim: int) -> list[tuple[Array, Array]]:
    """Mutually orthogonal planes, one per auxiliary slot.

    Plane q is spanned by the slot vector psi_q = W|q> / sqrt(p) and column q
    of complement_frame, in the kernel of rho. Raises DimensionTooSmall unless
    ambient_dim is rho's dimension and at least twice its rank.
    """
    if ambient_dim != rho.dim:
        raise DimensionTooSmall(f"state lives in dim {rho.dim}, ambient_dim says {ambient_dim}")
    r = rho.rank
    if ambient_dim < 2 * r:
        raise DimensionTooSmall(f"need ambient dim >= {2 * r} to fit {r} planes, got {ambient_dim}")
    support = w.w / np.sqrt(np.repeat(w.block_values, w.basis.m))
    partners = complement_frame(support, ambient_dim)
    return [(support[:, q], partners[:, q]) for q in range(r)]


def _flow(generator: Array, ts: Array) -> tuple[Array, Array]:
    """Eigenframe V (n, n) of the generator and the phases r (N, n), with
    r[k] = exp(-i t_k lambda), so that exp(-i t_k generator) = V diag(r[k]) V^dag."""
    eig = linalg.hermitian_eig(generator)
    return eig.frame, np.exp(-1j * ts[:, None] * eig.values[None, :])


@dataclass(frozen=True, eq=False)
class SaturatingPlan:
    """A target holonomy with the drive that realizes it at minimal length."""

    rho: DensityOperator
    w: bundle.Amplitude
    target: bundle.GaugeElement
    tau: float
    loops: tuple[PureLoopSpec, ...]
    generator: Array
    schedule: dynamics.HamiltonianSchedule

    @property
    def ihb(self) -> float:
        thetas = [loop.theta for loop in self.loops]
        phases = invariants.PhaseSpectrum(tuple(np.array(thetas[lo:hi]) for lo, hi in self.rho.basis.blocks))
        return invariants.ihb_isospectral(self.rho.p, phases)

    def exact_states(self) -> UnitaryOrbit:
        """Closed-form state trajectory of the combined loops, sampled on
        the schedule grid: the UnitaryOrbit of rho under the generator's
        flow, which closes to machine precision and whose spectral path
        decompose_path reads without eigendecomposing."""
        v, rot = _flow(self.generator, self.schedule.grid.times)
        return UnitaryOrbit(grid=self.schedule.grid, propagators=linalg.matmul_stack(v * rot[:, None, :], v.conj().T),
                            start=self.rho)


def synthesize(rho: DensityOperator, w: bundle.Amplitude, target: bundle.GaugeElement,
               tau: float, ambient_dim: int, n_samples: int = PLAN_SAMPLES) -> SaturatingPlan:
    """Assemble a closed evolution at rho with holonomy target at w whose
    length equals the isoholonomic bound.

    The amplitude is re-expressed in an eigenbasis of the target, each
    eigenslot is given an optimal pure loop in its own plane, and the drive
    is the state-coherent Hamiltonian of the combined loops, sampled on a
    uniform grid. Raises OutOfRange for a tau so long that the squared speed
    of a non-trivial loop underflows the normal floats.
    """
    if tuple(target.basis.m) != tuple(rho.m):
        raise DegeneracyMismatch(f"target basis m={target.basis.m}, state has m={rho.m}")
    bundle.check_lift_start(w, rho.m, rho.matrix)
    thetas, s = invariants.blockwise_eigenbasis(target)
    w_adapted = bundle.Amplitude(w=w.w @ s, basis=w.basis)
    planes = choose_planes(rho, w_adapted, ambient_dim)
    loops = tuple(
        PureLoopSpec(theta=float(thetas[q]), tau=float(tau), psi=psi, phi=phi)
        for q, (psi, phi) in enumerate(planes)
    )
    if any(loop.theta and loop.speed**2 < np.finfo(float).tiny for loop in loops):
        raise OutOfRange(f"tau = {tau:.3e} underflows the plan's squared loop speeds below {np.finfo(float).tiny:.3e}")
    n = rho.dim
    generator = np.zeros((n, n), dtype=np.complex128)
    coherent0 = np.zeros((n, n), dtype=np.complex128)
    for loop in loops:
        gen, _ = optimal_pure_loop(loop, n_samples=2)
        generator += gen
        coupling = loop.speed * np.outer(loop.psi, loop.phi.conj())
        coherent0 += coupling + coupling.conj().T
    # conjugate the t=0 coherent part along the flow of the generator, in its
    # eigenbasis: P_k C0 P_k^dag = V ((V^dag C0 V) o r_k r_k^*) V^dag
    v, rot = _flow(generator, np.linspace(0.0, tau, n_samples))
    phased = (v.conj().T @ coherent0 @ v) * (rot[:, :, None] * rot[:, None, :].conj())
    hs = linalg.matmul_stack(v, linalg.matmul_stack(phased, v.conj().T))
    hs = 0.5 * (hs + np.conj(np.swapaxes(hs, -1, -2)))
    schedule = dynamics.HamiltonianSchedule(grid=TimeGrid(tau=float(tau), n=n_samples), samples=hs)
    return SaturatingPlan(rho=rho, w=w, target=target, tau=float(tau), loops=loops,
                          generator=generator, schedule=schedule)


@dataclass(frozen=True)
class SaturationReport:
    """Measured deviations of a synthesized plan from its guarantees.

    bound_gap is the relative gap |1 - (iHB / Delta E) / tau| between the
    speed-limit time and the run time."""

    holonomy_error: float
    length: float
    ihb: float
    length_error: float
    slack: float
    max_h_in: float
    dh_deviation: float
    energy_gap: float
    bound_gap: float
    integration_defect: float


def verify_saturation(plan: SaturatingPlan) -> SaturationReport:
    """Run the plan end to end and check every saturation guarantee.

    Re-integrates the schedule with the generic propagator and checks it
    reproduces the loop trajectory, then lifts the trajectory and asserts:
    the holonomy hits the target, the length equals the bound, the drive
    stays state-coherent with constant energy uncertainty ihb/tau,
    tau * Delta E equals the length, and the speed-limit time iHB / Delta E
    equals tau relative to tau, with Delta E and the bound from
    dynamics.speed_bound. Raises SaturationFailed naming the first violated
    assertion, and speed_bound's OutOfRange for a Delta E that underflows.
    """
    rho_curve = plan.exact_states()
    # one expression, so the re-integrated U and state curves are freed before the lift
    integration_defect = float(np.sqrt(np.max(linalg.stack_sq_norms(
        dynamics.evolve(plan.rho, plan.schedule)[1].samples - rho_curve.samples))))
    if integration_defect > tolerances.SAT_INTEGRATION_TOL:
        raise SaturationFailed(f"schedule fails to regenerate the trajectory by {integration_defect:.3e}")

    loop = bundle.closed_loop(rho_curve, plan.w)
    report = invariants.iso_report(loop)
    hol_err = linalg.frob(report.holonomy.u - plan.target.u)
    if hol_err > tolerances.SAT_HOLONOMY_TOL:
        raise SaturationFailed(f"holonomy misses the target by {hol_err:.3e}")
    ihb = plan.ihb
    length_err = abs(report.length - ihb)
    if length_err > tolerances.SAT_LENGTH_TOL:
        raise SaturationFailed(f"length differs from the bound by {length_err:.3e}")

    # |H_in|_F = |B o mask|_F since the eigenframes are unitary
    b = loop.path.in_eigenframe(plan.schedule.samples)
    max_h_in = float(np.sqrt(np.max(linalg.stack_sq_norms(b[:, loop.path.block_mask]))))
    if max_h_in > tolerances.SAT_HIN_TOL:
        raise SaturationFailed(f"drive has incoherent mass {max_h_in:.3e}")

    dh = np.sqrt(dynamics.variance_split(b, loop.path)[0])
    dh_dev = float(np.max(np.abs(dh - ihb / plan.tau)))
    if dh_dev > tolerances.SAT_DH_TOL:
        raise SaturationFailed(f"energy uncertainty varies by {dh_dev:.3e} from ihb/tau")

    delta_e, bound = dynamics.speed_bound(dh, rho_curve.grid, ihb)
    energy_gap = abs(plan.tau * delta_e - report.length)
    if energy_gap > tolerances.SAT_ENERGY_TOL:
        raise SaturationFailed(f"tau Delta E misses the length by {energy_gap:.3e}")
    bound_gap = abs(1.0 - bound / plan.tau) if ihb else 0.0
    if bound_gap > tolerances.SAT_ENERGY_TOL:
        raise SaturationFailed(f"speed limit not saturated, gap {bound_gap:.3e}")
    return SaturationReport(
        holonomy_error=hol_err, length=report.length, ihb=ihb, length_error=length_err,
        slack=report.slack, max_h_in=max_h_in, dh_deviation=dh_dev,
        energy_gap=energy_gap, bound_gap=bound_gap, integration_defect=integration_defect,
    )


def embed_state(rho_matrix: Array, ambient_dim: int) -> Array:
    """Pad a density matrix with zero rows/columns up to ambient_dim."""
    rho_matrix = linalg.as_cmat(rho_matrix)
    n = rho_matrix.shape[0]
    if ambient_dim < n:
        raise DimensionTooSmall(f"cannot embed dim {n} into dim {ambient_dim}")
    out = np.zeros((ambient_dim, ambient_dim), dtype=np.complex128)
    out[:n, :n] = rho_matrix
    return out


def embedded_state(rho_matrix: Array, ambient_dim: int) -> DensityOperator:
    """Embed and decompose a density matrix in a larger ambient space."""
    return spectral_decompose(embed_state(rho_matrix, ambient_dim))
