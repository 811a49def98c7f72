"""Shared builders for the test suite: random states and gauge elements,
closed-form qubit curves, and small independent oracles."""

from __future__ import annotations

import numpy as np

from holonomy_lab import bundle, spectra
from holonomy_lab.curves import OperatorCurve, TimeGrid
from holonomy_lab.dynamics import SIGMA1, SIGMA2, SIGMA3

TWO_PI = 2.0 * np.pi


def rand_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (z + z.conj().T)


def rand_state(rng, p, m, dim: int) -> spectra.DensityOperator:
    """Random density operator with the given block spectrum in dim."""
    diag = np.zeros(dim)
    pos = 0
    for pj, mj in zip(p, m):
        diag[pos : pos + mj] = pj
        pos += mj
    v = rand_unitary(rng, dim)
    return spectra.spectral_decompose(v @ np.diag(diag).astype(complex) @ v.conj().T)


def rand_gauge(rng, basis: spectra.EigenprojectorBasis) -> bundle.GaugeElement:
    u = np.zeros((basis.dim_k, basis.dim_k), dtype=complex)
    for lo, hi in basis.blocks:
        u[lo:hi, lo:hi] = rand_unitary(rng, hi - lo)
    return bundle.GaugeElement(u=u, basis=basis)


def qubit_axis(n3: float) -> np.ndarray:
    return np.array([np.sqrt(max(1.0 - n3**2, 0.0)), 0.0, n3])


def qubit_propagators(n, omega: float, ts) -> np.ndarray:
    """Closed-form cos(wt/2) 1 - i sin(wt/2) n.sigma, stacked over ts."""
    n = np.asarray(n, dtype=float)
    ns = n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3
    ts = np.asarray(ts, dtype=float)
    return (
        np.cos(0.5 * omega * ts)[:, None, None] * np.eye(2)
        - 1j * np.sin(0.5 * omega * ts)[:, None, None] * ns
    )


def precessing_qubit_curve(n3: float, omega: float, p0: float, nsamp: int) -> OperatorCurve:
    """One period of a mixed qubit precessing about the axis (n1, 0, n3),
    built from the closed-form propagator."""
    tau = TWO_PI / omega
    props = qubit_propagators(qubit_axis(n3), omega, np.linspace(0.0, tau, nsamp))
    rho0 = np.diag([p0, 1.0 - p0]).astype(complex)
    states = props @ rho0 @ np.conj(np.swapaxes(props, -1, -2))
    return OperatorCurve(grid=TimeGrid(tau=tau, n=nsamp), samples=states)


def great_circle_section(nsamp: int, s0: float = 0.0, s1: float = np.pi, phase=None) -> np.ndarray:
    """Unit vectors cos(s)|0> + sin(s)|1> between polar angles s0, s1, with
    an optional extra phase profile (it cancels in every gauge invariant)."""
    s = np.linspace(s0, s1, nsamp)
    psi = np.stack([np.cos(s), np.sin(s)], axis=1).astype(complex)
    if phase is not None:
        psi = psi * np.exp(1j * np.asarray(phase))[:, None]
    return psi


def pure_curve(psi: np.ndarray, tau: float) -> OperatorCurve:
    states = psi[:, :, None] * psi.conj()[:, None, :]
    return OperatorCurve(grid=TimeGrid(tau=tau, n=psi.shape[0]), samples=states)


def aa_holonomy_phase(psi: np.ndarray, dt: float) -> float:
    """Independent holonomy oracle for pure-state curves: the phase of
    <psi_0|psi_tau> exp(-int <psi|psidot> dt), by finite differences and
    the trapezoid rule."""
    d = np.empty_like(psi)
    d[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * dt)
    d[-1] = (3.0 * psi[-1] - 4.0 * psi[-2] + psi[-3]) / (2.0 * dt)
    integrand = np.einsum("kn,kn->k", psi.conj(), d)
    integral = np.trapezoid(integrand, dx=dt)
    return float(np.angle(np.vdot(psi[0], psi[-1]) * np.exp(-integral)))


def wobble_loop(rng, p, m, dim: int, nsamp: int, tau: float = 1.0,
                wobble: float = 0.04) -> tuple[OperatorCurve, spectra.DensityOperator]:
    """Random closed loop with a time-varying spectrum: the eigenvalues
    breathe along a zero-sum direction while two random rotations wind up
    and back down."""
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=int)
    direction = rng.standard_normal(p.size)
    direction -= m * (direction @ m) / (m @ m)
    gaps = np.concatenate([p[:-1] - p[1:], [p[-1]]])
    if np.max(np.abs(direction)) > 0:
        direction *= wobble * np.min(gaps) / np.max(np.abs(direction))
    ts = np.linspace(0.0, tau, nsamp)
    bump = np.sin(TWO_PI * ts / tau)
    p_t = p[None, :] + bump[:, None] * direction[None, :]
    h1 = rand_hermitian(rng, dim, scale=0.8)
    h2 = rand_hermitian(rng, dim, scale=0.8)
    f = np.sin(np.pi * ts / tau) ** 2
    g = np.sin(TWO_PI * ts / tau)
    vbase = rand_unitary(rng, dim)
    samples = np.empty((nsamp, dim, dim), dtype=complex)
    w1, v1 = np.linalg.eigh(h1)
    w2, v2 = np.linalg.eigh(h2)
    for k in range(nsamp):
        u1 = (v1 * np.exp(-1j * f[k] * w1)) @ v1.conj().T
        u2 = (v2 * np.exp(-1j * g[k] * w2)) @ v2.conj().T
        u = u1 @ u2 @ vbase
        diag = np.zeros(dim)
        pos = 0
        for pj, mj in zip(p_t[k], m):
            diag[pos : pos + mj] = pj
            pos += mj
        samples[k] = u @ np.diag(diag).astype(complex) @ u.conj().T
    curve = OperatorCurve(grid=TimeGrid(tau=tau, n=nsamp), samples=samples)
    rho0 = spectra.spectral_decompose(samples[0])
    return curve, rho0


def eigh_propagators(hs, dt: float) -> np.ndarray:
    """Reference for linalg.propagator_step_stack: exp(-i dt H) over a
    stack of Hermitian matrices, through the spectral decomposition."""
    vals, frames = np.linalg.eigh(hs)
    return (frames * np.exp(-1j * dt * vals)[:, None, :]) @ np.conj(np.swapaxes(frames, -1, -2))


def sequential_products(steps, init=None) -> np.ndarray:
    """Reference for linalg.ordered_products: P_0 = init (identity by
    default), P_{k+1} = steps[k] @ P_k, one step at a time."""
    n = steps.shape[-1]
    init = np.eye(n, dtype=complex) if init is None else np.asarray(init, dtype=complex)
    out = np.empty((steps.shape[0] + 1, n, init.shape[1]), dtype=complex)
    out[0] = init
    for k in range(steps.shape[0]):
        out[k + 1] = steps[k] @ out[k]
    return out


def polar_transport_reference(samples, blocks, frames0) -> np.ndarray:
    """Step-by-step discrete parallel transport of eigenframes.

    Each sample is diagonalized on its own (descending eigenvalues); for
    every block the next frame is E_{k+1} polar(E_{k+1}^dag F_k), where E is
    any orthonormal basis of that block's eigenspace. The result does not
    depend on the choice of E, and each consecutive overlap F_k^dag F_{k+1}
    comes out Hermitian positive.
    """
    nsamp = samples.shape[0]
    out = np.empty((nsamp, samples.shape[1], frames0.shape[1]), dtype=complex)
    for k in range(nsamp):
        _, v = np.linalg.eigh(samples[k])
        v = v[:, ::-1]
        for lo, hi in blocks:
            prev = frames0[:, lo:hi] if k == 0 else out[k - 1, :, lo:hi]
            u, _, vh = np.linalg.svd(v[:, lo:hi].conj().T @ prev)
            out[k, :, lo:hi] = v[:, lo:hi] @ (u @ vh)
    return out
