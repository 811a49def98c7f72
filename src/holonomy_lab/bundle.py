"""Amplitude bundle over the isodegenerate density operators.

Amplitudes W with W^dag W block-scalar in the adapted auxiliary basis,
block-diagonal gauge unitaries, the connection one-form and its
vertical/horizontal splitting, horizontal lifts of state tangents and the
squared speeds of state curves they give, discrete horizontal lifts by
polar-aligned eigenframe transport, and holonomies of closed curves.

Transport steps are inverse polar factors of consecutive eigenframe overlaps:
a lift scans them, a holonomy reduces them to the endpoint's total product,
or to a power of the first step on an orbit under a constant drive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import linalg, tolerances
from .curves import OperatorCurve, UnitaryOrbit, grid_derivative
from .errors import (
    DegeneracyMismatch,
    EndpointMismatch,
    GaugeViolation,
    MultiplicityChange,
    NotClosed,
    NotTangent,
    OutOfRange,
    Singular,
)
from .spectra import DensityOperator, EigenprojectorBasis

Array = np.ndarray

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Amplitude:
    """Linear map W from the auxiliary space into the system space whose
    Gram matrix W^dag W is block-scalar with descending values."""

    w: Array
    basis: EigenprojectorBasis

    def __post_init__(self):
        w = linalg.as_cmat(self.w)
        object.__setattr__(self, "w", w)
        if w.shape[1] != self.basis.dim_k:
            raise DegeneracyMismatch(f"W has {w.shape[1]} columns, basis needs {self.basis.dim_k}")
        gram = w.conj().T @ w
        if self.basis.offblock_norm(gram) > tolerances.AMPLITUDE_TOL * max(1.0, linalg.frob(gram)):
            raise DegeneracyMismatch("W^dag W is not block diagonal")
        q = []
        for lo, hi in self.basis.blocks:
            block = gram[lo:hi, lo:hi]
            qj = float(np.mean(np.diag(block).real))
            if linalg.frob(block - qj * np.eye(hi - lo)) > tolerances.AMPLITUDE_TOL:
                raise DegeneracyMismatch("W^dag W block is not scalar")
            q.append(qj)
        if any(q[j] - q[j + 1] < -tolerances.AMPLITUDE_TOL for j in range(len(q) - 1)) or q[-1] <= 0.0:
            raise DegeneracyMismatch(f"block values not positive descending: {q}")
        object.__setattr__(self, "_block_values", tuple(q))

    @property
    def block_values(self) -> tuple[float, ...]:
        """The descending scalars q_j with W^dag W = sum_j q_j Lambda_j."""
        return self._block_values


@dataclass(frozen=True, eq=False)
class GaugeElement:
    """Unitary on the auxiliary space commuting with every block projector."""

    u: Array
    basis: EigenprojectorBasis

    def __post_init__(self):
        u = linalg.as_cmat(self.u)
        object.__setattr__(self, "u", u)
        if not gauge_membership(u, self.basis):
            raise GaugeViolation("matrix is not a block-diagonal unitary")


@dataclass(frozen=True, eq=False)
class ConnectionValue:
    """Value of the connection form: skew-Hermitian and block-diagonal."""

    a: Array
    basis: EigenprojectorBasis

    def __post_init__(self):
        a = linalg.as_cmat(self.a)
        object.__setattr__(self, "a", a)
        dev = max(linalg.frob(a + a.conj().T), self.basis.offblock_norm(a))
        if dev > tolerances.GAUGE_TOL * max(1.0, linalg.frob(a)):
            raise GaugeViolation(f"not a gauge algebra element (deviation {dev:.3e})")


def gauge_membership(u: Array, basis: EigenprojectorBasis, tol: float = tolerances.GAUGE_TOL) -> bool:
    """True iff u is unitary and commutes with every block projector."""
    u = linalg.as_cmat(u)
    if u.shape != (basis.dim_k, basis.dim_k):
        return False
    unit_dev = linalg.frob(u.conj().T @ u - np.eye(basis.dim_k))
    return unit_dev <= tol * max(1.0, linalg.frob(u)) and basis.offblock_norm(u) <= tol * max(1.0, linalg.frob(u))


def canonical_amplitude(rho: DensityOperator) -> Amplitude:
    """Amplitude whose block-j columns are sqrt(p_j) times the eigenframe."""
    return Amplitude(w=rho.support_frame * np.sqrt(np.repeat(rho.p, rho.m)), basis=rho.basis)


def metric_G(wdot1: Array, wdot2: Array) -> float:
    """Riemannian metric on amplitudes: Re tr(Wdot1^dag Wdot2)."""
    wdot1, wdot2 = linalg.as_cmat(wdot1), linalg.as_cmat(wdot2)
    if wdot1.shape != wdot2.shape:
        raise DegeneracyMismatch(f"shape mismatch {wdot1.shape} vs {wdot2.shape}")
    return float(np.real(np.sum(wdot1.conj() * wdot2)))


def connection_form(amp: Amplitude, wdot: Array) -> ConnectionValue:
    """Connection form value (1/2) sum_j Lambda_j (W^+ Wdot - h.c.) Lambda_j."""
    wdot = linalg.as_cmat(wdot)
    if wdot.shape != amp.w.shape:
        raise DegeneracyMismatch(f"Wdot shape {wdot.shape} != W shape {amp.w.shape}")
    p = linalg.pinv(amp.w) @ wdot
    return ConnectionValue(a=amp.basis.block_diag_part(0.5 * (p - p.conj().T)), basis=amp.basis)


def split(amp: Amplitude, wdot: Array) -> tuple[Array, Array]:
    """Split a tangent into (vertical, horizontal) = (W A(Wdot), rest)."""
    a = connection_form(amp, wdot)
    vertical = amp.w @ a.a
    return vertical, np.asarray(wdot, dtype=np.complex128) - vertical


# ---------------------------------------------------------------------------
# tangent lifts and the squared speeds of state curves


def lift_tangents(spath: "SpectralPath", tangents: Array, tangent_tol: float) -> Array:
    """Horizontal lifts of state tangents given in eigenframe coordinates.

    tangents (N, n, n) are T = F^dag rdot F at the samples of spath, lambda
    the block means (zero on the kernel) and pdot_i the mean of Re T_jj
    over the support block of i. The (N, n, r) lift is T_ic sqrt(lambda_c)
    / (lambda_c - lambda_i) off the block mask, pdot_i / (2 sqrt(lambda_i))
    on the support diagonal and zero elsewhere. Raises NotTangent unless the
    residual of its reprojection is within tangent_tol (relative). Its squared
    norm sums (lambda_i^2 + lambda_j^2) / (lambda_j - lambda_i)^2
    |T_ij - conj(T_ji)|^2 over the off-mask pairs i < j, |T_ij|^2 over the
    off-diagonal entries of the mask and |T_ii - pdot_i|^2 on the diagonal
    (pdot zero on the kernel), each over an (N, pairs) gather of T.
    """
    lam, r, same = spath.values, spath.rank, spath.block_mask
    i, j = np.nonzero(np.triu(~same))
    diag = np.arange(len(same))
    centred = tangents[:, diag, diag]
    pdot = np.real(centred[:, :r]) @ (same[:r, :r] / np.sum(same[:r, :r], axis=1))
    centred[:, :r] -= pdot
    off = (tangents[:, i, j] - np.conj(tangents[:, j, i])) * (np.hypot(lam[:, i], lam[:, j]) / (lam[:, j] - lam[:, i]))
    res = np.sqrt(linalg.stack_sq_norms(off) + linalg.stack_sq_norms(tangents[:, same & (diag[:, None] != diag)])
                  + linalg.stack_sq_norms(centred))
    with np.errstate(invalid="ignore"):  # inf / inf where a squared norm overflows
        ratio = res / np.maximum(1.0, np.sqrt(linalg.stack_sq_norms(tangents)))
    worst = int(np.argmax(ratio))  # the first NaN, if any
    if not ratio[worst] <= tangent_tol:
        raise NotTangent(f"sample {worst}: lift residual {res[worst]:.3e} exceeds tolerance")
    gap = lam[:, None, :r] - lam[:, :, None]
    gap[:, same[:, :r]] = np.inf
    wt = tangents[:, :, :r] / gap * np.sqrt(lam[:, None, :r])
    wt[:, diag[:r], diag[:r]] = pdot / (2.0 * np.sqrt(lam[:, :r]))
    return wt


def path_speeds_sq(spath: "SpectralPath", rdots: Array, tangent_tol: float = tolerances.TANGENT_TOL) -> Array:
    """Squared metric speeds g(rdot, rdot) along a decomposed state path."""
    return linalg.stack_sq_norms(lift_tangents(spath, spath.in_eigenframe(rdots), tangent_tol))


def state_speeds_sq(b: Array, spath: "SpectralPath") -> Array:
    """Squared metric speeds of the states driven by H, from B = F^dag H F.

    The tangent rdot = -i[H, rho] is F (-i B_ij (lambda_j - lambda_i)) F^dag,
    so it is lifted in eigenframe coordinates without being formed.
    """
    lam = spath.values
    return linalg.stack_sq_norms(lift_tangents(spath, -1j * b * (lam[:, None, :] - lam[:, :, None]),
                                               tolerances.TANGENT_TOL))


def curve_speeds_sq(curve: OperatorCurve, spath: "SpectralPath") -> Array:
    """Squared metric speeds along a curve decomposed as spath: the exact lifts of
    -i[H, rho] for a UnitaryOrbit (state_speeds_sq, on the samples
    drive_in_eigenframe keeps), of finite-difference tangents at
    LENGTH_TANGENT_TOL otherwise. Raises OutOfRange when a squared speed, or the
    squared norm of a finite-difference tangent, overflows."""
    if isinstance(curve, UnitaryOrbit):
        path, b = drive_in_eigenframe(curve, spath, curve.hamiltonians)
        sq = np.broadcast_to(state_speeds_sq(b, path), len(spath.frames))
    else:
        rdots = grid_derivative(curve.samples, curve.grid.dt)
        sq = linalg.stack_sq_norms(rdots)  # finite, or lift_tangents cannot test the tangents
        if np.all(np.isfinite(sq)):
            sq = path_speeds_sq(spath, rdots, tolerances.LENGTH_TANGENT_TOL)
    if not np.all(np.isfinite(sq)):
        raise OutOfRange(f"tau = {curve.grid.tau:.3e} overflows the curve's squared speeds")
    return sq


def _constant_drive(curve: OperatorCurve) -> bool:
    """Whether the curve is a UnitaryOrbit whose Hamiltonians store one sample. Both orbit
    producers make propagators that commute with such an H, so F_k^dag H F_k, the speed
    and every transport overlap F_k^dag F_{k+1} are the same at every sample."""
    return isinstance(curve, UnitaryOrbit) and len(linalg.stored_samples(curve.hamiltonians)) == 1


def drive_in_eigenframe(curve: OperatorCurve, spath: "SpectralPath", hs: Array) -> tuple["SpectralPath", Array]:
    """(path, B): B = F^dag H F of the Hamiltonians hs (N, n, n) along the curve
    decomposed as spath, on the samples of path that carry every sample. That is
    sample 0 alone when the curve is a UnitaryOrbit under a constant drive
    (_constant_drive) and hs are a broadcast of that drive: F_k^dag H F_k =
    F_0^dag H F_0, so the variances and the speed are conserved. It is spath
    whole otherwise."""
    if _constant_drive(curve) and np.array_equal(linalg.stored_samples(hs), curve.hamiltonians[:1]):
        spath, hs = spath.first(1), hs[:1]
    return spath, spath.in_eigenframe(hs)


# ---------------------------------------------------------------------------
# spectral paths, discrete transport, holonomy


@dataclass(frozen=True, eq=False)
class SpectralPath:
    """Per-sample eigendata of a curve of density operators with constant
    multiplicity structure: the block eigenvalues means (N, l), descending,
    and full-space eigenframes (N, n, n) whose first r columns are the
    support, block j spanning blocks[j].

    values (N, n) repeats each block mean over its columns, zeros on the
    kernel; block_mask (n, n) marks the index pairs in one support block or
    both in the kernel, where F^dag X F holds the part of X that commutes
    with every state of the path."""

    means: Array
    frames: Array
    m: tuple[int, ...]

    def __post_init__(self):
        kernel = self.frames.shape[1] - self.rank
        values = np.concatenate([np.repeat(self.means, self.m, axis=1), np.zeros((len(self.means), kernel))], axis=1)
        ids = np.repeat(np.arange(len(self.m) + 1), tuple(self.m) + (kernel,))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "block_mask", ids[:, None] == ids[None, :])

    @classmethod
    def of_state(cls, rho: DensityOperator) -> "SpectralPath":
        """The length-1 path at a single state."""
        return cls(means=np.array(rho.p)[None, :], frames=rho.full_frame[None, :, :], m=rho.m)

    @property
    def rank(self) -> int:
        return sum(self.m)

    @property
    def blocks(self) -> list[tuple[int, int]]:
        return EigenprojectorBasis(self.m).blocks

    def first(self, count: int) -> "SpectralPath":
        """The path of the first count samples."""
        return SpectralPath(means=self.means[:count], frames=self.frames[:count], m=self.m)

    def in_eigenframe(self, ops: Array) -> Array:
        """F^dag ops F per sample: operators (N, n, n), one per sample of the
        path, in eigenframe coordinates, a long path per linalg.sample_blocks block."""
        fs = self.frames
        out = np.empty(fs.shape, np.result_type(ops, fs))
        for block in linalg.sample_blocks(len(fs), fs.shape[-1]):
            out[block] = linalg.matmul_stack(linalg.matmul_stack(np.conj(np.swapaxes(fs[block], -1, -2)), ops[block]),
                                             fs[block])
        return out

    def block_means(self) -> Array:
        """(N, l) per-sample block eigenvalues."""
        return self.means


def decompose_path(curve: OperatorCurve) -> SpectralPath:
    """Eigendata of every sample, with a block structure that stays constant.

    A UnitaryOrbit keeps its start's spectrum and block structure, so its
    path is read off its propagators: frames U_k F_0 and the start's values
    on every sample, with no eigendecomposition; the rules below check the
    start's values once. Any other curve is eigendecomposed sample by sample
    after its samples are checked Hermitian at CURVE_HERM_TOL, the curve's
    one such check. Raises MultiplicityChange whenever the rank changes, the
    clustering changes, or an inter-block gap dips below BLOCK_GAP_TOL.
    """
    if isinstance(curve, UnitaryOrbit):
        start = SpectralPath.of_state(curve.start)
        vals, frames = start.values, linalg.matmul_stack(curve.propagators, start.frames[0])
    else:
        linalg.check_hermitian_stack(curve.samples, tolerances.CURVE_HERM_TOL)
        vals, frames = linalg.hermitian_eig_stack(curve.samples)
    n = vals.shape[1]
    positive0 = vals[0] > tolerances.ZERO_TOL
    r = int(np.count_nonzero(positive0))
    if r == 0:
        raise MultiplicityChange("initial sample has zero rank")
    blocks = linalg.cluster(vals[0, :r])
    if np.any(vals[:, r - 1] <= tolerances.ZERO_TOL):
        raise MultiplicityChange("rank drops along the curve")
    if r < n and np.any(vals[:, r] > tolerances.ZERO_TOL):
        raise MultiplicityChange("rank grows along the curve")
    for lo, hi in blocks:
        if hi - lo > 1 and np.any(vals[:, lo : hi - 1] - vals[:, lo + 1 : hi] > tolerances.GAP_TOL):
            raise MultiplicityChange("eigenvalue block splits along the curve")
        if hi < r and np.any(vals[:, hi - 1] - vals[:, hi] < tolerances.BLOCK_GAP_TOL):
            raise MultiplicityChange("inter-block gap closes along the curve")
    means = np.stack([np.mean(vals[:, lo:hi], axis=1) for lo, hi in blocks], axis=1)
    return SpectralPath(means=np.broadcast_to(means, (len(frames), len(blocks))), frames=frames,
                        m=tuple(hi - lo for lo, hi in blocks))


def _transport_steps(spath: SpectralPath, heads: list[Array]):
    """Per block (lo, hi, head, steps): the block frame at sample k is
    F_k[:, lo:hi] steps[k-1] ... steps[0] head, with head from check_lift_start
    and steps[k] the inverse polar factor of F_k^dag F_{k+1}, so consecutive
    overlaps are Hermitian positive."""
    for j, ((lo, hi), head) in enumerate(zip(spath.blocks, heads)):
        raw = spath.frames[:, :, lo:hi]
        overlaps = linalg.matmul_stack(np.conj(np.swapaxes(raw[:-1], -1, -2)), raw[1:])
        try:
            steps = np.conj(np.swapaxes(linalg.polar_unitary_stack(overlaps, tolerances.OVERLAP_TOL), -1, -2))
        except Singular as exc:
            k = exc.index
            raise Singular(f"block {j}, step {k} (sample {k} -> {k + 1}): consecutive eigenframe overlap is singular, "
                           f"smallest overlap {exc.value:.3e} <= {tolerances.OVERLAP_TOL:.3e}", k, exc.value) from exc
        yield lo, hi, head, steps


def _transport_frames(spath: SpectralPath, heads: list[Array]) -> Array:
    """The (N, n, r) frames transported from the heads: running step products."""
    out = np.empty(spath.frames.shape[:2] + (spath.rank,), dtype=np.complex128)
    for lo, hi, head, steps in _transport_steps(spath, heads):
        out[:, :, lo:hi] = linalg.matmul_stack(spath.frames[:, :, lo:hi], linalg.ordered_products(steps, head))
    return out


def check_lift_start(w0: Amplitude, spath: SpectralPath, rho0: Array) -> list[Array]:
    """Check w0 as a lift start over rho0, the first state of spath, and return
    per block j the unitary head polar(F_j^dag S_j), with F_j the block frame
    spath.frames[0] holds for rho0 and S_j = W0_j q_j^{-1/2} the unit frame of
    w0 (q_j its block values). F_j head_j are the frames on rho0's own
    eigenspaces that every lift and plan from w0 starts on, whatever part of
    W0 W0^dag lies off rho0 within PROJECTION_TOL. Raises DegeneracyMismatch
    for another m or another dimension, EndpointMismatch off rho0."""
    if w0.basis.m != spath.m:
        raise DegeneracyMismatch(f"amplitude basis m={w0.basis.m}, curve has m={spath.m}")
    if w0.w.shape[0] != rho0.shape[0]:
        raise DegeneracyMismatch(f"amplitude has shape {w0.w.shape}, the state has shape {rho0.shape}")
    defect = linalg.frob(w0.w @ w0.w.conj().T - rho0)
    if defect > tolerances.PROJECTION_TOL:
        raise EndpointMismatch(f"W0 projects {defect:.3e} away from the initial state")
    units = w0.w / np.sqrt(np.repeat(w0.block_values, spath.m))
    return [linalg.polar_unitary(spath.frames[0, :, lo:hi].conj().T @ units[:, lo:hi]) for lo, hi in spath.blocks]


def horizontal_lift(rho_curve: OperatorCurve, w0: Amplitude) -> OperatorCurve:
    """Discrete horizontal lift of a state curve starting at the amplitude w0.

    The lift projects back onto the curve and its consecutive block frame
    overlaps are Hermitian positive (the discrete horizontality condition).
    Sample 0 is w0 itself; the transport starts from the frames F_j head_j
    on the first state's own eigenspaces, with the heads check_lift_start gives.
    """
    spath = decompose_path(rho_curve)
    frames_t = _transport_frames(spath, check_lift_start(w0, spath, rho_curve.initial))
    # amplitude samples: sqrt(p_{j;t}) on block j applied to the frames
    samples = frames_t * np.sqrt(spath.values[:, None, : spath.rank])
    samples[0] = w0.w
    return OperatorCurve(grid=rho_curve.grid, samples=samples)


def lift_endpoint(rho_curve: OperatorCurve, spath: SpectralPath, w0: Amplitude) -> Array:
    """W_tau = horizontal_lift(rho_curve, w0).samples[-1], from the step products
    alone. On a UnitaryOrbit under a constant drive every overlap F_k^dag F_{k+1}
    is the first (_constant_drive), so each block forms that one
    overlap and raises its step to the power N - 1: repeated squaring
    (np.linalg.matrix_power), a scalar power for a 1x1 block."""
    heads = check_lift_start(w0, spath, rho_curve.initial)
    constant, power = _constant_drive(rho_curve), len(spath.frames) - 1
    frame = np.empty((spath.frames.shape[1], spath.rank), dtype=np.complex128)
    for lo, hi, head, steps in _transport_steps(spath.first(2) if constant else spath, heads):
        if constant:
            total = (steps[0] ** power if hi - lo == 1 else np.linalg.matrix_power(steps[0], power)) @ head
        else:
            total = linalg.total_product(steps, head)
        frame[:, lo:hi] = spath.frames[-1, :, lo:hi] @ total
    return frame * np.sqrt(spath.values[-1, : spath.rank])


def transported_frame(rho_curve: OperatorCurve, frames0) -> Array:
    """Parallel-transport initial eigenframes along the curve.

    frames0 may be an (n, r) matrix or a sequence of per-block matrices;
    frames0 sqrt(p_0) must be a lift start (see check_lift_start): orthonormal
    frames (else DegeneracyMismatch) of the initial sample's eigenspaces
    (else EndpointMismatch). Returns an (N, n, r) array of transported frames.
    """
    if not isinstance(frames0, np.ndarray):
        frames0 = np.concatenate([np.asarray(f, dtype=np.complex128) for f in frames0], axis=1)
    spath = decompose_path(rho_curve)
    shape = spath.frames.shape[1], spath.rank
    if frames0.shape != shape:
        raise DegeneracyMismatch(f"frames have shape {frames0.shape}, expected {shape}")
    w0 = Amplitude(w=frames0 * np.sqrt(spath.values[0, : spath.rank]), basis=EigenprojectorBasis(spath.m))
    return _transport_frames(spath, check_lift_start(w0, spath, rho_curve.initial))


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """A closed state curve with its spectral path and the holonomy of its
    horizontal lift; the one analysis the isoholonomic report, the speed
    limit and the saturation check share."""

    curve: OperatorCurve
    path: SpectralPath
    holonomy: GaugeElement


def closed_loop(rho_curve: OperatorCurve, w0: Amplitude) -> ClosedLoop:
    """Decompose a closed state curve once, lift it from w0 and take its holonomy.

    The holonomy is W0^+ W_tau with W_tau from lift_endpoint, re-unitarized
    as the polar factor of its block-diagonal part (the deviation is logged).
    Raises NotClosed for open curves and GaugeViolation when the raw holonomy
    carries more than OFFBLOCK_TOL of block-off-diagonal mass.
    """
    defect = rho_curve.closure_defect()
    if defect > tolerances.CLOSED_TOL:
        raise NotClosed(f"curve closure defect {defect:.3e} exceeds {tolerances.CLOSED_TOL:.3e}")
    spath = decompose_path(rho_curve)
    raw = linalg.pinv(w0.w) @ lift_endpoint(rho_curve, spath, w0)
    off = w0.basis.offblock_norm(raw)
    if off > tolerances.OFFBLOCK_TOL:
        raise GaugeViolation(f"block-off-diagonal holonomy mass {off:.3e} exceeds {tolerances.OFFBLOCK_TOL:.3e}")
    u = linalg.polar_unitary(w0.basis.block_diag_part(raw))
    deviation = linalg.frob(u - raw)
    logger.debug("holonomy re-unitarization deviation %.3e (off-block %.3e)", deviation, off)
    return ClosedLoop(curve=rho_curve, path=spath, holonomy=GaugeElement(u=u, basis=w0.basis))


def holonomy(rho_curve: OperatorCurve, w0: Amplitude) -> GaugeElement:
    """Holonomy of a closed state curve at the amplitude w0; see closed_loop."""
    return closed_loop(rho_curve, w0).holonomy

