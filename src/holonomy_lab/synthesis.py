"""Synthesis of bound-saturating closed evolutions.

Builds, for any target gauge unitary, a closed isospectral state curve
whose length equals the isoholonomic bound: each holonomy eigenslot is
driven around an optimal constant-speed loop inside its own two-dimensional
subspace, and the schedule carries the state-coherent part of the summed
loop generator (dynamics.split_hamiltonian) along that generator's flow.
Requires the ambient dimension to be at least twice the rank.
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
        if not 0.0 < self.tau < np.inf:
            raise OutOfRange(f"tau must be positive and finite, got {self.tau}")
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

    @property
    def generator(self) -> Array:
        """Hermitian drive a_+ e_+ e_+^dag + a_- e_- e_-^dag on the plane, zero
        for theta = 0. Its flow exp(-i t G) psi is the optimal loop: horizontal,
        at constant speed sqrt(theta (2pi - theta)) / tau, inside the plane,
        and back at e^{i theta} psi at t = tau."""
        n = self.psi.size
        if self.theta == 0.0:
            return np.zeros((n, n), dtype=np.complex128)
        chi = self.mixing
        e_plus = np.cos(chi) * self.psi + np.sin(chi) * self.phi
        e_minus = np.sin(chi) * self.psi - np.cos(chi) * self.phi
        return self.a_plus * np.outer(e_plus, e_plus.conj()) + self.a_minus * np.outer(e_minus, e_minus.conj())


def _flow(generator: Array, ts: Array) -> tuple[Array, Array]:
    """Eigenframe V (n, n) of the generator and the phases r (N, n), with
    r[k] = exp(-i t_k lambda), so that exp(-i t_k generator) = V diag(r[k]) V^dag."""
    values, frame = linalg.hermitian_eig(generator)
    return frame, np.exp(-1j * ts[:, None] * values[None, :])


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
        """Closed-form state trajectory of the combined loops, sampled on the
        schedule grid: the UnitaryOrbit of rho under the generator's flow, with
        the generator as its Hamiltonians (stride 0), which closes to machine
        precision and whose path decompose_path reads without eigendecomposing."""
        v, rot = _flow(self.generator, self.schedule.grid.times)
        props, vh = np.empty(self.schedule.samples.shape, np.complex128), v.conj().T
        for block in linalg.sample_blocks(len(props), len(v)):
            linalg.matmul_stack(v * rot[block, None, :], vh, out=props[block])
        return UnitaryOrbit(grid=self.schedule.grid, propagators=props,
                            start=self.rho, hamiltonians=np.broadcast_to(self.generator, self.schedule.samples.shape))


def synthesize(rho: DensityOperator, w: bundle.Amplitude, target: bundle.GaugeElement,
               tau: float, ambient_dim: int, n_samples: int = PLAN_SAMPLES) -> SaturatingPlan:
    """Assemble a closed evolution at rho with holonomy target at w whose
    length equals the isoholonomic bound.

    Slot q of the target's eigenbasis s gets an optimal pure loop in the
    plane of psi_q and column q of rho's kernel, psi = concat_j(F_j head_j) s
    from one bundle.check_lift_start (polar(M s) = polar(M) s for a
    block-unitary s), so the loops move rho and not W W^dag. The drive is the
    coherent part at rho (split_hamiltonian) of the summed loop generator,
    carried along its flow one linalg.sample_blocks block at a time. Raises
    check_lift_start's errors, DimensionTooSmall unless ambient_dim is rho's
    dimension and at least twice its rank, then OutOfRange for a tau not
    positive and finite or one that takes the squared speed of a non-trivial
    loop out of the normal floats.
    """
    if tuple(target.basis.m) != tuple(rho.m):
        raise DegeneracyMismatch(f"target basis m={target.basis.m}, state has m={rho.m}")
    heads = bundle.check_lift_start(w, bundle.SpectralPath.of_state(rho), rho.matrix)
    if ambient_dim != rho.dim:
        raise DimensionTooSmall(f"state lives in dim {rho.dim}, ambient_dim says {ambient_dim}")
    if ambient_dim < 2 * rho.rank:
        raise DimensionTooSmall(f"need ambient dim >= {2 * rho.rank} to fit {rho.rank} planes, got {ambient_dim}")
    thetas, s = invariants.blockwise_eigenbasis(target)
    slots = np.concatenate([f @ head for f, head in zip(rho.frames, heads)], axis=1) @ s
    loops = tuple(PureLoopSpec(theta=float(thetas[q]), tau=float(tau), psi=slots[:, q], phi=rho.kernel[:, q])
                  for q in range(rho.rank))
    if any(loop.speed > np.sqrt(np.finfo(float).max) for loop in loops):  # a float's square raises past max
        raise OutOfRange(f"tau = {tau:.3e} overflows the plan's squared loop speeds above {np.finfo(float).max:.3e}")
    if any(loop.theta and loop.speed**2 < np.finfo(float).tiny for loop in loops):
        raise OutOfRange(f"tau = {tau:.3e} underflows the plan's squared loop speeds below {np.finfo(float).tiny:.3e}")
    generator = sum(loop.generator for loop in loops)
    coherent0 = dynamics.split_hamiltonian(generator, rho)[1]
    # conjugate the t=0 coherent part along the generator's flow in its eigenbasis, P_k C0 P_k^dag
    # = V ((V^dag C0 V) o r_k r_k^*) V^dag, with V X as (X^T V^T)^T: a fixed right factor for both
    # GEMMs of each sample block
    v, rot = _flow(generator, np.linspace(0.0, tau, n_samples))
    c0, hs = v.conj().T @ coherent0 @ v, np.empty((n_samples, ambient_dim, ambient_dim), np.complex128)
    for block in linalg.sample_blocks(n_samples, ambient_dim):
        phased = c0 * (rot[block, :, None] * rot[block, None, :].conj())
        h = np.swapaxes(linalg.matmul_stack(np.swapaxes(linalg.matmul_stack(phased, v.conj().T), -1, -2), v.T), -1, -2)
        hs[block] = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    schedule = dynamics.HamiltonianSchedule(grid=TimeGrid(tau=float(tau), n=n_samples), samples=hs)
    return SaturatingPlan(rho=rho, w=w, target=target, tau=float(tau), loops=loops,
                          generator=generator, schedule=schedule)


@dataclass(frozen=True)
class SaturationReport:
    """Measured deviations of a synthesized plan from its guarantees.

    max_h_in = tau max|H_in|_F, dh_deviation = tau max|Delta H - iHB / tau|,
    bound_gap = |1 - (iHB / Delta E) / tau|: the speed-limit time against tau,
    integration_defect = max|rho_0 W - W rho_0|_F with W = U^dag P, U the
    re-integrated propagators and P the plan's: the distance between the
    re-integrated and the planned states."""

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


def _integration_defect(rho: DensityOperator, schedule: dynamics.HamiltonianSchedule, planned: Array) -> float:
    """max_k |rho_0 W_k - W_k rho_0|_F with W_k = U_k^dag P_k, U the propagators
    evolve re-integrates from the schedule and P the planned ones, taken in
    rho_0's eigenframe F: max_k |(lambda_i - lambda_j) X_ij|_F with
    X = (U_k F)^dag (P_k F): the GEMMs U F and P F and one batched product
    per linalg.sample_blocks block, the max taken over the blocks."""
    frame, lam = rho.full_frame, bundle.SpectralPath.of_state(rho).values[0]
    props = dynamics.evolve(rho, schedule)[0].samples
    worst = []
    for block in linalg.sample_blocks(len(props), len(frame)):
        uf = linalg.matmul_stack(props[block], frame)
        x = linalg.matmul_stack(np.conj(np.swapaxes(uf, -1, -2)), linalg.matmul_stack(planned[block], frame))
        worst.append(np.max(linalg.stack_sq_norms(x * (lam[:, None] - lam[None, :]))))
    return float(np.sqrt(np.max(worst)))


def verify_saturation(plan: SaturatingPlan) -> SaturationReport:
    """Run the plan end to end and check every saturation guarantee.

    Re-integrates the schedule with the generic propagator and checks it
    reproduces the loop trajectory, on propagators and forming no state
    stack: max|rho_0 W_k - W_k rho_0|_F with W_k = U_k^dag P_k is max|U_k
    rho_0 U_k^dag - P_k rho_0 P_k^dag|_F, as the Frobenius norm is unitarily
    invariant. Then it lifts the trajectory and asserts: the holonomy hits
    the target, the length equals the bound, the drive stays state-coherent
    with constant energy uncertainty ihb/tau (both tested times tau), tau *
    Delta E equals the length, and the speed-limit time iHB / Delta E equals
    tau relative to tau, with Delta E and the bound from dynamics.speed_bound.
    Raises SaturationFailed naming the first violated assertion, and
    speed_bound's OutOfRange.
    """
    rho_curve = plan.exact_states()
    integration_defect = _integration_defect(plan.rho, plan.schedule, rho_curve.propagators)
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
    max_h_in = plan.tau * float(np.sqrt(np.max(linalg.stack_sq_norms(b[:, loop.path.block_mask]))))
    if max_h_in > tolerances.SAT_HIN_TOL:
        raise SaturationFailed(f"drive has incoherent mass {max_h_in:.3e} (times tau)")

    dh = np.sqrt(dynamics.variance_split(b, loop.path)[0])
    dh_dev = plan.tau * float(np.max(np.abs(dh - ihb / plan.tau)))
    if dh_dev > tolerances.SAT_DH_TOL:
        raise SaturationFailed(f"energy uncertainty varies by {dh_dev:.3e} from ihb/tau (times tau)")

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
