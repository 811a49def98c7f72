"""Holonomy invariants and the isoholonomic inequalities.

Eigenphase spectra of gauge unitaries, the Wilson loop, the isoholonomic
bounds (fixed-spectrum and spectrally constrained), curve length/energy in
the induced metric, and the inequality checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bundle, linalg, tolerances
from .curves import OperatorCurve, ProbabilityPath, fisher_rao, trapezoid
from .errors import (
    BoundViolated,
    OutOfRange,
    ShapeMismatch,
)

Array = np.ndarray

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class PhaseSpectrum:
    """Per-block eigenphases of a gauge unitary, each in [0, 2pi),
    descending within the block."""

    blocks: tuple[Array, ...]

    def __post_init__(self):
        blocks = tuple(np.asarray(ph, dtype=float) for ph in self.blocks)
        for ph in blocks:
            if not np.all((ph >= 0.0) & (ph < TWO_PI)):  # NaN fails too
                raise OutOfRange(f"phases {ph.tolist()} leave [0, 2pi)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(ph.size for ph in self.blocks)

    def flat(self) -> Array:
        return np.concatenate(self.blocks)


def blockwise_eigenbasis(g: bundle.GaugeElement) -> tuple[Array, Array]:
    """Eigenphases and an orthonormal eigenbasis of a gauge unitary, block by block.

    Returns (phases, s): phases in [0, 2pi), descending within each block,
    and s block-diagonal unitary with s^dag U s diagonal. Phases within
    PHASE_TOL of 0 mod 2pi, on either side, are set to 0, so a trivial
    holonomy has every bound built on theta(2pi - theta) exactly 0.
    """
    dim = g.basis.dim_k
    s = np.zeros((dim, dim), dtype=np.complex128)
    phases = np.zeros(dim)
    for lo, hi in g.basis.blocks:
        ph, q = linalg.unitary_eig(g.u[lo:hi, lo:hi])
        ph[np.minimum(ph, TWO_PI - ph) <= tolerances.PHASE_TOL] = 0.0
        order = np.argsort(ph)[::-1]
        phases[lo:hi] = ph[order]
        s[lo:hi, lo:hi] = q[:, order]
    return phases, s


def eigenphases(g: bundle.GaugeElement) -> PhaseSpectrum:
    """Blockwise eigenphases of a gauge unitary, mapped into [0, 2pi);
    see blockwise_eigenbasis."""
    phases, _ = blockwise_eigenbasis(g)
    return PhaseSpectrum(blocks=tuple(phases[lo:hi] for lo, hi in g.basis.blocks))


def pure_ihb(theta: float) -> float:
    """Lower bound sqrt(theta (2pi - theta)) on the length of a closed pure
    state curve with geometric phase theta."""
    if not 0.0 <= theta < TWO_PI:
        raise OutOfRange(f"theta {theta!r} outside [0, 2pi)")
    return float(np.sqrt(theta * (TWO_PI - theta)))


def _weighted_bound(weights, phases: PhaseSpectrum) -> float:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size != len(phases.blocks):
        raise ShapeMismatch(f"{weights.size} weights for {len(phases.blocks)} phase blocks")
    theta = phases.flat()
    return float(np.sqrt(np.sum(np.repeat(weights, phases.m) * theta * (TWO_PI - theta))))


def ihb_isospectral(p, phases: PhaseSpectrum) -> float:
    """Isoholonomic bound sqrt(sum_ja p_j theta_ja (2pi - theta_ja))."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise ShapeMismatch(f"eigenvalues must be finite and positive, got {p.tolist()}")
    return _weighted_bound(p, phases)


def ihb_constrained(alpha, phases: PhaseSpectrum) -> float:
    """Spectrally constrained bound sqrt(sum_ja alpha_j theta_ja (2pi - theta_ja));
    OutOfRange if the sum overflows."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)) or np.any(alpha < 0.0):
        raise ShapeMismatch(f"spectral bounds must be finite and nonnegative, got {alpha.tolist()}")
    with np.errstate(over="ignore"):  # a weighted sum past 1e308 is inf, rejected below
        bound = _weighted_bound(alpha, phases)
    if not np.isfinite(bound):
        raise OutOfRange(f"spectral bounds {alpha.tolist()} overflow the constrained bound")
    return bound


def wilson_loop(g: bundle.GaugeElement) -> complex:
    """Trace of the holonomy."""
    return complex(np.trace(g.u))


def curve_length_energy(rho_curve: OperatorCurve) -> tuple[float, float]:
    """Length and kinetic energy of a state curve in the induced metric:
    trapezoid sums of bundle.curve_speeds_sq (OutOfRange if one overflows)."""
    return _path_length_energy(rho_curve, bundle.decompose_path(rho_curve))


def _path_length_energy(rho_curve: OperatorCurve, spath: bundle.SpectralPath) -> tuple[float, float]:
    sq, dt = bundle.curve_speeds_sq(rho_curve, spath), rho_curve.grid.dt
    return trapezoid(np.sqrt(sq), dt), 0.5 * trapezoid(sq, dt)


@dataclass(frozen=True, eq=False)
class IsoReport:
    """Isoholonomic accounting for one closed curve."""

    length: float
    energy: float
    fr_length: float
    ihb: float
    ihb_alpha: float | None
    slack: float
    strong_slack: float | None
    spectrum_constant: bool
    holonomy: bundle.GaugeElement
    phases: PhaseSpectrum


def check_isoholonomic(rho_curve: OperatorCurve, w0: bundle.Amplitude, alpha=None) -> IsoReport:
    """Evaluate the isoholonomic inequalities on a closed curve; see iso_report."""
    return iso_report(bundle.closed_loop(rho_curve, w0), alpha=alpha)


def iso_report(loop: bundle.ClosedLoop, alpha=None) -> IsoReport:
    """Evaluate the isoholonomic inequalities on an analysed closed curve.

    The length integrates bundle.curve_speeds_sq, one lifted speed for an
    orbit under a constant Hamiltonian. For constant-spectrum curves
    the fixed-spectrum bound applies; with alpha the constrained and strong
    inequalities are evaluated too. Negative slack beyond SLACK_TOL raises
    BoundViolated, which signals a numerical-method bug rather than physics.
    """
    rho_curve, spath, hol = loop.curve, loop.path, loop.holonomy
    phases = eigenphases(hol)

    means = spath.block_means()
    stored = linalg.stored_samples(means)
    constant = bool(np.max(np.abs(stored - means[0])) <= tolerances.CONST_SPECTRUM_TOL)

    length, energy = _path_length_energy(rho_curve, spath)
    fr_length, _ = fisher_rao(ProbabilityPath(grid=rho_curve.grid, values=means, m=spath.m))

    ihb_alpha = None
    if alpha is not None:
        alpha = np.asarray(alpha, dtype=float)
        ihb_alpha = ihb_constrained(alpha, phases)  # checks one finite bound per block
        if np.any(stored < alpha[None, :] - tolerances.REGION_TOL):
            raise OutOfRange("curve leaves the spectrally bounded region")
    ihb = ihb_isospectral(means[0], phases) if constant else (ihb_alpha if ihb_alpha is not None else 0.0)

    slack = length - ihb
    strong_slack = None
    if ihb_alpha is not None:
        strong_slack = length**2 - fr_length**2 - ihb_alpha**2
    if slack < -tolerances.SLACK_TOL:
        raise BoundViolated(f"length undershoots the bound by {-slack:.3e}")
    if strong_slack is not None and strong_slack < -tolerances.SLACK_TOL:
        raise BoundViolated(f"strong inequality violated by {-strong_slack:.3e}")
    return IsoReport(
        length=length, energy=energy, fr_length=fr_length, ihb=ihb, ihb_alpha=ihb_alpha,
        slack=slack, strong_slack=strong_slack, spectrum_constant=constant,
        holonomy=hol, phases=phases,
    )
