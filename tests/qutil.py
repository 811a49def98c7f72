"""Shared builders for the test suite: random states and gauge elements,
closed-form qubit curves, and small independent oracles."""

from __future__ import annotations

import tracemalloc

import numpy as np

from holonomy_lab import bundle, linalg, spectra, synthesis
from holonomy_lab.curves import OperatorCurve, TimeGrid, grid_derivative
from holonomy_lab.dynamics import SIGMA1, SIGMA2, SIGMA3
from holonomy_lab.errors import NotTangent

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


def projector(rho: spectra.DensityOperator, j: int) -> np.ndarray:
    """Orthogonal projector onto the eigenspace of p_j (0-based)."""
    f = rho.frames[j]
    return f @ f.conj().T


def rand_gauge(rng, basis: spectra.EigenprojectorBasis) -> bundle.GaugeElement:
    u = np.zeros((basis.dim_k, basis.dim_k), dtype=complex)
    for lo, hi in basis.blocks:
        u[lo:hi, lo:hi] = rand_unitary(rng, hi - lo)
    return bundle.GaugeElement(u=u, basis=basis)


def saturating_plan(tau: float = 1.0):
    """The plan for diag(e^{1.6 pi i}, e^{0.4 pi i}) at diag(0.7, 0.3) in dim 4."""
    rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
    target = bundle.GaugeElement(u=np.diag(np.exp(1j * np.array([1.6 * np.pi, 0.4 * np.pi]))), basis=rho.basis)
    return synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=tau, ambient_dim=4)


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


def plain_curve(curve) -> OperatorCurve:
    """The samples of a curve (a unitary orbit, say) as a plain
    OperatorCurve, which decompose_path eigendecomposes."""
    return OperatorCurve(grid=curve.grid, samples=np.array(curve.samples))


def per_sample_speeds_sq(orbit, spath: bundle.SpectralPath) -> np.ndarray:
    """Oracle for bundle.curve_speeds_sq on a unitary orbit: the lift of
    -i[H_k, rho_k] at every sample of its path, whatever its Hamiltonians."""
    return bundle.state_speeds_sq(spath.in_eigenframe(orbit.hamiltonians), spath)


def stack_sizes(monkeypatch, name: str, module=linalg) -> list:
    """Sizes of the stacks module.<name>, a linalg kernel by default, sees from now on."""
    sizes = []
    original = getattr(module, name)

    def spy(ms, *args, **kwargs):
        sizes.append(len(ms))
        return original(ms, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return sizes


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc counts above its reading at the start while
    fn() runs. numpy reports its data buffers to tracemalloc, so the figure
    counts every array fn makes and does not depend on the allocator."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


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
    w1, v1 = np.linalg.eigh(h1)
    w2, v2 = np.linalg.eigh(h2)
    u1 = (v1 * np.exp(-1j * f[:, None] * w1)[:, None, :]) @ v1.conj().T
    u2 = (v2 * np.exp(-1j * g[:, None] * w2)[:, None, :]) @ v2.conj().T
    u = u1 @ u2 @ vbase
    diag = np.zeros((nsamp, dim))
    diag[:, : m.sum()] = np.repeat(p_t, m, axis=1)
    samples = u @ (diag[:, :, None] * np.eye(dim)).astype(complex) @ np.conj(np.swapaxes(u, -1, -2))
    curve = OperatorCurve(grid=TimeGrid(tau=tau, n=nsamp), samples=samples)
    rho0 = spectra.spectral_decompose(samples[0])
    return curve, rho0


def eigh_propagators(hs, dt: float) -> np.ndarray:
    """Reference for linalg.propagator_step_stack: exp(-i dt H) over a
    stack of Hermitian matrices, through the spectral decomposition."""
    vals, frames = np.linalg.eigh(hs)
    return (frames * np.exp(-1j * dt * vals)[:, None, :]) @ np.conj(np.swapaxes(frames, -1, -2))


def plan_propagators(plan) -> np.ndarray:
    """Closed-form propagators U(t_k) = exp(-i G t_k) exp(-i (H_0 - G) t_k) of a plan's
    schedule H(t) = P(t) H_0 P(t)^dag, P(t) = exp(-i G t) with G the plan's generator:
    V = P^dag U obeys V' = -i (H_0 - G) V. H_0 is read from the schedule, so the form is
    exact for a schedule rescaled from the plan's too. Two eigendecompositions."""
    ts, g = plan.schedule.grid.times, plan.generator

    def flow(h):
        vals, frame = np.linalg.eigh(h)
        return (frame * np.exp(-1j * ts[:, None] * vals)[:, None, :]) @ frame.conj().T

    return flow(g) @ flow(plan.schedule.samples[0] - g)


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


def real_gemm_product(a, b) -> np.ndarray:
    """a @ b of complex stacks the way the 1m method forms it, built apart from
    linalg: the float64 view of a, (n, 2k), times the (2k, 2m) floats whose row
    pair j holds b_j and i b_j, read back as complex."""
    a, b = np.ascontiguousarray(a, dtype=complex), np.asarray(b, dtype=complex)
    k, m = b.shape[-2:]
    pairs = np.ascontiguousarray(np.stack([b, 1j * b], axis=-2))  # (..., k, 2, m)
    return (a.view(float) @ pairs.view(float).reshape(pairs.shape[:-3] + (2 * k, 2 * m))).view(complex)


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


def variance_path(states, hs) -> np.ndarray:
    """State-space oracle for the variances tr(rho H^2) - tr(rho H)^2 of
    Hermitian H over stacks (N, n, n), broadcasting a single state or
    Hamiltonian."""
    prod = states @ hs
    means = np.real(np.trace(prod, axis1=-2, axis2=-1))
    # tr(rho H H) contracts (rho H) against H^dag = H entrywise
    sq = np.real(np.sum(prod * np.conj(hs), axis=(-2, -1)))
    return sq - means**2


def lift_connection_residuals(lift: OperatorCurve, basis: spectra.EigenprojectorBasis) -> np.ndarray:
    """Norm of the connection form along a lift, via finite differences.

    For an exactly horizontal lift this vanishes; the discrete transport
    leaves a residual that shrinks with the step size.
    """
    wdots = grid_derivative(lift.samples, lift.grid.dt)
    out = np.empty(lift.samples.shape[0])
    for k in range(lift.samples.shape[0]):
        amp = bundle.Amplitude(w=lift.samples[k], basis=basis)
        out[k] = linalg.frob(bundle.connection_form(amp, wdots[k]).a)
    return out


def reference_lift(spath: bundle.SpectralPath, tangents, tangent_tol: float) -> np.ndarray:
    """Reference for bundle.lift_tangents by lift and reprojection: build
    the lift from K = i T / (lambda_c - lambda_i) off the block mask, then
    reproject e = lift sqrt(lambda) and take e + e^dag - T as the residual."""
    lam, blocks, r = spath.values, spath.blocks, spath.rank
    same = spath.block_mask
    denom = lam[:, None, :] - lam[:, :, None]
    denom[:, same] = 1.0
    K = np.where(same[None, :, :], 0.0, 1j * tangents / denom)
    sqrtp = np.sqrt(lam[:, :r])
    wt = -1j * K[:, :, :r] * sqrtp[:, None, :]
    diag = np.real(np.einsum("kii->ki", tangents))
    for lo, hi in blocks:
        pdot = np.mean(diag[:, lo:hi], axis=1)
        wt[:, range(lo, hi), range(lo, hi)] += (pdot / (2.0 * np.sqrt(lam[:, lo])))[:, None]
    e = np.zeros_like(tangents)
    e[:, :, :r] = wt * sqrtp[:, None, :]
    residual = e + e.conj().transpose(0, 2, 1) - tangents
    res = np.linalg.norm(residual, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(tangents, axis=(1, 2)))
    worst = int(np.argmax(res / scale))
    if res[worst] > tangent_tol * scale[worst]:
        raise NotTangent(f"sample {worst}: lift residual {res[worst]:.3e} exceeds tolerance")
    return wt
