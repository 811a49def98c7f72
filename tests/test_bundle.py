import numpy as np
import pytest

from holonomy_lab import bundle, cli, curves, dynamics, invariants, linalg, serialize, spectra
from holonomy_lab.curves import OperatorCurve
from holonomy_lab.errors import (
    DegeneracyMismatch,
    EndpointMismatch,
    MultiplicityChange,
    NotClosed,
    NotTangent,
    Singular,
)
from qutil import (
    aa_holonomy_phase,
    great_circle_section,
    lift_connection_residuals,
    polar_transport_reference,
    precessing_qubit_curve,
    projector,
    pure_curve,
    rand_gauge,
    rand_hermitian,
    rand_state,
    rand_unitary,
    wobble_loop,
)

TWO_PI = 2.0 * np.pi


def mixed_qubit_state(p0=0.7):
    return spectra.spectral_decompose(np.diag([p0, 1.0 - p0]).astype(complex))


def speed_sq(rho, rdot):
    """Squared metric speed g(rdot, rdot) of a tangent at rho, from its horizontal lift."""
    return float(bundle.path_speeds_sq(bundle.SpectralPath.of_state(rho), np.asarray(rdot, dtype=complex)[None])[0])


def polarized(rho, rdot1, rdot2):
    """g(rdot1, rdot2) by polarization of the squared speeds."""
    return 0.25 * (speed_sq(rho, rdot1 + rdot2) - speed_sq(rho, rdot1 - rdot2))


def constant_curve(mat, tau=1.0, nsamp=41):
    return OperatorCurve.from_samples(tau, np.broadcast_to(mat, (nsamp, *mat.shape)).copy())


class TestAmplitudeAndProjection:
    def test_project_spectral_product(self, rng):
        rho = rand_state(rng, (0.6, 0.4), (1, 1), 3)
        w = bundle.canonical_amplitude(rho)
        assert np.linalg.norm(w.w @ w.w.conj().T - rho.matrix) <= 1e-10

    def test_fiber_invariance(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 4)
        w = bundle.canonical_amplitude(rho)
        u = rand_gauge(rng, w.basis)
        moved = bundle.Amplitude(w=w.w @ u.u, basis=w.basis)
        assert np.linalg.norm(moved.w @ moved.w.conj().T - rho.matrix) <= 1e-10

    def test_canonical_amplitude_diagonal(self):
        rho = mixed_qubit_state()
        w = bundle.canonical_amplitude(rho)
        assert np.allclose(np.abs(w.w), np.diag(np.sqrt([0.7, 0.3])), atol=1e-12)
        gram = w.w.conj().T @ w.w
        assert np.allclose(gram, np.diag([0.7, 0.3]), atol=1e-12)

    def test_canonical_amplitude_rank_deficient(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 4)
        w = bundle.canonical_amplitude(rho)
        assert w.w.shape == (4, 3)
        assert np.allclose(w.w.conj().T @ w.w, np.diag([0.5, 0.25, 0.25]), atol=1e-9)

    def test_amplitude_invariant_enforced(self, rng):
        # a non-block-scalar Gram matrix is rejected
        w = rand_unitary(rng, 3)[:, :2] @ np.diag([1.0, 0.5])
        with pytest.raises(DegeneracyMismatch):
            bundle.Amplitude(w=w, basis=spectra.EigenprojectorBasis(m=(2,)))


class TestConnectionForm:
    def test_pure_case_scalar(self, rng):
        psi = rand_unitary(rng, 3)[:, :1]
        w = bundle.Amplitude(w=psi, basis=spectra.EigenprojectorBasis(m=(1,)))
        wdot = -1j * rand_hermitian(rng, 3) @ psi
        a = bundle.connection_form(w, wdot)
        assert a.a.shape == (1, 1)
        assert abs(a.a[0, 0] - np.vdot(psi[:, 0], wdot[:, 0])) <= 1e-12

    def test_vertical_reproduces_generator(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        w = bundle.canonical_amplitude(rho)
        basis_elems = w.basis.algebra_basis()
        coeff = rng.standard_normal(len(basis_elems))
        x = sum(c * b for c, b in zip(coeff, basis_elems))
        a = bundle.connection_form(w, w.w @ x)
        assert np.linalg.norm(a.a - x) <= 1e-10

    def test_horizontal_annihilated(self, rng):
        rho = rand_state(rng, (0.6, 0.2), (1, 2), 5)
        w = bundle.canonical_amplitude(rho)
        wdot = -1j * rand_hermitian(rng, 5) @ w.w
        _, horizontal = bundle.split(w, wdot)
        a = bundle.connection_form(w, horizontal)
        assert np.linalg.norm(a.a) <= 1e-10

    def test_spectrum_directions_are_horizontal(self, rng):
        # pure eigenvalue motion W * (real block-scalar) has no vertical part
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        w = bundle.canonical_amplitude(rho)
        wdot = w.w @ np.diag([0.3, -0.15, -0.15]).astype(complex)
        a = bundle.connection_form(w, wdot)
        assert np.linalg.norm(a.a) <= 1e-12


class TestSplit:
    def test_vertical_input(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        w = bundle.canonical_amplitude(rho)
        x = 1j * w.basis.block_diag_part(rand_hermitian(rng, 3))
        vertical, horizontal = bundle.split(w, w.w @ x)
        assert np.linalg.norm(vertical - w.w @ x) <= 1e-10
        assert np.linalg.norm(horizontal) <= 1e-10

    def test_components_recombine(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        w = bundle.canonical_amplitude(rho)
        wdot = -1j * rand_hermitian(rng, 5) @ w.w
        vertical, horizontal = bundle.split(w, wdot)
        assert np.linalg.norm(vertical + horizontal - wdot) <= 1e-12

    def test_horizontal_orthogonal_to_gauge_orbit(self, rng):
        # the horizontal component is metric-orthogonal to every vertical
        # direction, tested over a full basis of the gauge algebra
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        w = bundle.canonical_amplitude(rho)
        for _ in range(5):
            wdot = -1j * rand_hermitian(rng, 6) @ w.w
            _, horizontal = bundle.split(w, wdot)
            for x in w.basis.algebra_basis():
                assert abs(bundle.metric_G(horizontal, w.w @ x)) <= 1e-9


class TestMetricG:
    def test_frobenius_norm(self, rng):
        wdot = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert abs(bundle.metric_G(wdot, wdot) - np.linalg.norm(wdot) ** 2) <= 1e-12

    def test_gauge_invariance(self, rng):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        u = rand_gauge(rng, basis)
        w1 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        w2 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        assert abs(bundle.metric_G(w1 @ u.u, w2 @ u.u) - bundle.metric_G(w1, w2)) <= 1e-12

    def test_phase_invariance(self, rng):
        wdot = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert abs(bundle.metric_G(1j * wdot, 1j * wdot) - bundle.metric_G(wdot, wdot)) <= 1e-12


class TestMetricOnStates:
    def test_pure_states_match_fubini_study(self, rng):
        psi = rand_unitary(rng, 3)[:, :1]
        rho = spectra.spectral_decompose(psi @ psi.conj().T)
        for _ in range(5):
            h1, h2 = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
            rd1 = -1j * (h1 @ rho.matrix - rho.matrix @ h1)
            rd2 = -1j * (h2 @ rho.matrix - rho.matrix @ h2)
            assert abs(speed_sq(rho, rd1) - 0.5 * np.real(np.trace(rd1 @ rd1))) <= 1e-10
            g = polarized(rho, rd1, rd2)
            fs = 0.5 * np.real(np.trace(rd1 @ rd2))
            assert abs(g - fs) <= 1e-10

    def test_speed_equals_coherent_uncertainty(self, rng):
        for _ in range(5):
            rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
            h = rand_hermitian(rng, 5)
            _, h_co = dynamics.split_hamiltonian(h, rho)
            rdot = -1j * (h_co @ rho.matrix - rho.matrix @ h_co)
            g = speed_sq(rho, rdot)
            var = np.real(np.trace(rho.matrix @ h_co @ h_co))
            assert abs(g - var) <= 1e-9 * max(1.0, var)

    def test_zero_tangent(self, rng):
        rho = rand_state(rng, (0.6, 0.4), (1, 1), 2)
        assert speed_sq(rho, np.zeros((2, 2))) == 0.0

    def test_commuting_direction_gives_statistical_speed(self, rng):
        # moving only the eigenvalues: g equals sum_j m_j pdot_j^2 / p_j / 4
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        pdot = np.array([0.2, -0.1])  # zero-sum against m = (1, 2)
        rdot = pdot[0] * projector(rho, 0) + pdot[1] * projector(rho, 1)
        g = speed_sq(rho, rdot)
        expected = 0.25 * (pdot[0] ** 2 / 0.5 + 2 * pdot[1] ** 2 / 0.25)
        assert abs(g - expected) <= 1e-12

    def test_mixed_directions_are_orthogonal(self, rng):
        # eigenvalue motion is g-orthogonal to unitary (frame) motion
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        pdot_dir = 0.2 * projector(rho, 0) - 0.1 * projector(rho, 1)
        h = rand_hermitian(rng, 5)
        _, h_co = dynamics.split_hamiltonian(h, rho)
        unitary_dir = -1j * (h_co @ rho.matrix - rho.matrix @ h_co)
        assert abs(polarized(rho, pdot_dir, unitary_dir)) <= 1e-12

    def test_rejects_non_tangent(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 4)
        f = rho.frames[1]
        bad = f @ np.diag([1.0, -1.0]).astype(complex) @ f.conj().T  # splits the block
        with pytest.raises(NotTangent):
            speed_sq(rho, bad)
        kernel_mass = rho.kernel @ rho.kernel.conj().T
        with pytest.raises(NotTangent):
            speed_sq(rho, kernel_mass - np.trace(kernel_mass) * rho.matrix)

    def test_rejects_non_hermitian_tangent(self):
        # path_speeds_sq takes rdot unchecked; zero on the block mask, so only the
        # off-mask residual lambda_i (T_ic - conj(T_ci)) / (lambda_c - lambda_i) sees these
        i_sigma_x = np.array([[0.0, 1j], [1j, 0.0]])  # a support-support pair
        with pytest.raises(NotTangent, match="residual 7.211e"):
            speed_sq(mixed_qubit_state(0.6), i_sigma_x)
        rho = spectra.spectral_decompose(np.diag([0.6, 0.4, 0.0]).astype(complex))
        e02 = np.zeros((3, 3), dtype=complex)
        e02[0, 2] = 1.0  # a support-kernel pair
        with pytest.raises(NotTangent):
            speed_sq(rho, e02)

    def test_largest_finite_value(self):
        t = np.array([[0.0, 1e150], [1e150, 0.0]], dtype=complex)
        assert speed_sq(mixed_qubit_state(0.7), t) == pytest.approx(6.25e300, rel=1e-14)


class TestHorizontalLift:
    def test_constant_curve(self):
        rho = mixed_qubit_state()
        w0 = bundle.canonical_amplitude(rho)
        lift = bundle.horizontal_lift(constant_curve(rho.matrix), w0)
        assert np.max(np.abs(lift.samples - w0.w)) <= 1e-12

    def test_projects_back(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 601)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        lift = bundle.horizontal_lift(c, w0)
        projected = lift.samples @ np.conj(np.swapaxes(lift.samples, -1, -2))
        assert np.max(np.linalg.norm(projected - c.samples, axis=(1, 2))) <= 1e-8

    def test_discrete_horizontality_per_block(self, rng):
        # consecutive frame overlaps are Hermitian positive block by block
        dim, nsamp = 4, 301
        rho0 = rand_state(rng, (0.5, 0.25), (1, 2), dim)
        h = rand_hermitian(rng, dim)
        hv, hw = np.linalg.eigh(h)
        ts = np.linspace(0.0, 1.0, nsamp)
        samples = np.stack([
            (hw * np.exp(-1j * t * hv)) @ hw.conj().T @ rho0.matrix
            @ (hw * np.exp(1j * t * hv)) @ hw.conj().T
            for t in ts
        ])
        c = OperatorCurve.from_samples(1.0, samples)
        frames = bundle.transported_frame(c, [f.copy() for f in rho0.frames])
        for lo, hi in rho0.basis.blocks:
            block = frames[:, :, lo:hi]
            overlaps = np.einsum("kna,knb->kab", block[:-1].conj(), block[1:])
            herm_dev = np.max(np.abs(overlaps - np.conj(np.swapaxes(overlaps, -1, -2))))
            assert herm_dev <= 1e-11
            mineig = min(np.min(np.linalg.eigvalsh(0.5 * (o + o.conj().T))) for o in overlaps)
            assert mineig > 0.0

    def test_great_circle_phase_matches_direct_formula(self, rng):
        # independent oracle: the overlap-times-exponential formula applied
        # to an arbitrarily phased section of the same curve
        nsamp = 2001
        phase = 0.4 * np.sin(np.linspace(0.0, np.pi, nsamp)) ** 2
        psi = great_circle_section(nsamp, 0.0, np.pi, phase=phase)
        c = pure_curve(psi, tau=1.0)
        oracle = aa_holonomy_phase(psi, c.grid.dt)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(c, w0)
        got = np.angle(g.u[0, 0])
        assert abs(got - oracle) <= 1e-5
        assert abs(abs(got) - np.pi) <= 1e-5

    def test_precessing_qubit_endpoint(self):
        n3 = 0.6
        c = precessing_qubit_curve(n3, TWO_PI, 0.7, 2001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        lift = bundle.horizontal_lift(c, w0)
        g = bundle.holonomy(c, w0)
        assert np.linalg.norm(lift.samples[-1] - w0.w @ g.u) <= 1e-6
        phases = np.sort(np.mod(np.angle(np.diag(g.u)), TWO_PI))[::-1]
        expected = np.array([np.pi * (1 + n3), np.pi * (1 - n3)])
        assert np.max(np.abs(phases - expected)) <= 1e-5

    def test_connection_residual_shrinks(self):
        def residual(nsamp):
            c = precessing_qubit_curve(0.6, TWO_PI, 0.7, nsamp)
            rho0 = spectra.spectral_decompose(c.samples[0])
            w0 = bundle.canonical_amplitude(rho0)
            lift = bundle.horizontal_lift(c, w0)
            return np.max(lift_connection_residuals(lift, w0.basis))

        r1, r2 = residual(201), residual(401)
        assert r1 / r2 > 1.8

    def test_multiplicity_change_aborts(self):
        # eigenvalues cross midway through the curve
        nsamp = 101
        t = np.linspace(0.0, 1.0, nsamp)
        p = 0.5 + 0.4 * np.cos(np.pi * t)
        samples = np.stack([np.diag([pk, 1 - pk]).astype(complex) for pk in p])
        c = OperatorCurve.from_samples(1.0, samples)
        with pytest.raises(MultiplicityChange):
            bundle.decompose_path(c)

    def test_endpoint_mismatch(self, rng):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 51)
        other = rand_state(rng, (0.7, 0.3), (1, 1), 2)
        w0 = bundle.canonical_amplitude(other)
        with pytest.raises(EndpointMismatch):
            bundle.horizontal_lift(c, w0)

    def test_varying_spectrum_lift_postconditions(self, rng):
        from qutil import wobble_loop

        c, rho0 = wobble_loop(rng, (0.5, 0.25), (1, 2), 5, nsamp=601)
        w0 = bundle.canonical_amplitude(rho0)
        lift = bundle.horizontal_lift(c, w0)
        projected = lift.samples @ np.conj(np.swapaxes(lift.samples, -1, -2))
        assert np.max(np.linalg.norm(projected - c.samples, axis=(1, 2))) <= 1e-8
        # the Gram matrix tracks the instantaneous block spectrum
        grams = np.conj(np.swapaxes(lift.samples, -1, -2)) @ lift.samples
        means = bundle.decompose_path(c).block_means()
        expected = np.zeros_like(grams)
        for j, (lo, hi) in enumerate(w0.basis.blocks):
            idx = np.arange(lo, hi)
            expected[:, idx, idx] = means[:, j : j + 1]
        assert np.max(np.abs(grams - expected)) <= 1e-8


class TestHolonomy:
    def test_constant_curve_identity(self):
        rho = mixed_qubit_state()
        w0 = bundle.canonical_amplitude(rho)
        g = bundle.holonomy(constant_curve(rho.matrix), w0)
        assert np.linalg.norm(g.u - np.eye(2)) <= 1e-10

    def test_zero_rank_start_aborts(self):
        # a closed curve of zero matrices has no positive eigenvalue to lift
        w0 = bundle.canonical_amplitude(mixed_qubit_state())
        with pytest.raises(MultiplicityChange, match="^initial sample has zero rank$"):
            bundle.holonomy(OperatorCurve.from_samples(1.0, np.zeros((5, 2, 2))), w0)

    def test_fixed_frame_spectrum_loop_is_trivial(self, rng):
        # only the eigenvalues move; the holonomy stays at the identity
        v = rand_unitary(rng, 3)
        nsamp = 201
        t = np.linspace(0.0, 1.0, nsamp)
        p1 = 0.5 + 0.1 * np.sin(TWO_PI * t)
        p2 = 0.3 - 0.05 * np.sin(TWO_PI * t)
        p3 = 1.0 - p1 - p2
        samples = np.stack([
            v @ np.diag([a, b, c]).astype(complex) @ v.conj().T
            for a, b, c in zip(p1, p2, p3)
        ])
        c = OperatorCurve.from_samples(1.0, samples)
        rho0 = spectra.spectral_decompose(samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(c, w0)
        assert np.linalg.norm(g.u - np.eye(3)) <= 1e-8

    def test_gauge_covariance(self, rng):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 801)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(c, w0)
        for _ in range(5):
            u = rand_gauge(rng, w0.basis)
            moved = bundle.Amplitude(w=w0.w @ u.u, basis=w0.basis)
            g_moved = bundle.holonomy(c, moved)
            expected = u.u.conj().T @ g.u @ u.u
            assert np.linalg.norm(g_moved.u - expected) <= 1e-8

    def test_composition_law(self, rng):
        n3a, n3b = 0.6, 0.2
        c1 = precessing_qubit_curve(n3a, TWO_PI, 0.7, 1001)
        c2 = precessing_qubit_curve(n3b, TWO_PI, 0.7, 1001)
        joined = curves.concatenate(c1, c2)
        rho0 = spectra.spectral_decompose(c1.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g1 = bundle.holonomy(c1, w0)
        g2 = bundle.holonomy(c2, w0)
        g12 = bundle.holonomy(joined, w0)
        assert np.linalg.norm(g12.u - g2.u @ g1.u) <= 1e-7

    def test_inverse_under_reversal(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 1001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(c, w0)
        g_rev = bundle.holonomy(curves.reverse(c), w0)
        assert np.linalg.norm(g_rev.u - g.u.conj().T) <= 1e-7

    def test_not_closed(self):
        c = pure_curve(great_circle_section(51, 0.0, 1.0), tau=1.0)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        with pytest.raises(NotClosed):
            bundle.holonomy(c, w0)

    def test_constant_tail_leaves_holonomy_alone(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 1001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        tail = constant_curve(c.samples[-1], tau=c.grid.dt * 200, nsamp=201)
        joined = curves.concatenate(c, tail)
        g = bundle.holonomy(c, w0)
        g_joined = bundle.holonomy(joined, w0)
        assert np.linalg.norm(g_joined.u - g.u) <= 1e-10

    def test_backtracking_cancels(self):
        half = precessing_qubit_curve(0.6, TWO_PI, 0.7, 801)
        joined = curves.concatenate(half, curves.reverse(half))
        rho0 = spectra.spectral_decompose(half.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(joined, w0)
        assert np.linalg.norm(g.u - np.eye(2)) <= 1e-7

    def test_varying_spectrum_phases_match_pure_oracle(self):
        # with nondegenerate blocks the frames ignore the breathing
        # eigenvalues, so each slot accrues the phase of its own pure curve
        from qutil import aa_holonomy_phase, qubit_axis, qubit_propagators

        n3, nsamp = 0.6, 2001
        ts = np.linspace(0.0, 1.0, nsamp)
        props = qubit_propagators(qubit_axis(n3), TWO_PI, ts)
        p0 = 0.7 + 0.05 * np.sin(TWO_PI * ts)
        diags = np.zeros((nsamp, 2, 2), dtype=complex)
        diags[:, 0, 0] = p0
        diags[:, 1, 1] = 1.0 - p0
        samples = props @ diags @ np.conj(np.swapaxes(props, -1, -2))
        c = OperatorCurve.from_samples(1.0, samples)
        rho0 = spectra.spectral_decompose(samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(c, w0)
        got = np.mod(np.angle(np.diag(g.u)), TWO_PI)
        for j in range(2):
            slot = props[:, :, j]
            expected = np.mod(aa_holonomy_phase(slot, c.grid.dt), TWO_PI)
            assert abs(got[j] - expected) <= 1e-5


# closed curves [rho_A, rho_B, rho_A] whose block eigenspaces at A and B are
# orthogonal: block 0 is 1x1 for m = (1, 1) and 2x2 for m = (2, 1)
ORTHOGONAL_SWAPS = {
    "m11": ([0.7, 0.3], [0.3, 0.7], "eigenframe overlap is singular"),
    "m21": ([0.4, 0.4, 0.2, 0.0], [0.0, 0.2, 0.4, 0.4], "eigenframe overlap is singular"),
}


def orthogonal_swap(name):
    a, b, what = ORTHOGONAL_SWAPS[name]
    rho_a, rho_b = np.diag(a).astype(complex), np.diag(b).astype(complex)
    curve = OperatorCurve.from_samples(1.0, np.stack([rho_a, rho_b, rho_a]))
    message = rf"^block 0, step 0 \(sample 0 -> 1\): consecutive {what}, smallest overlap 0\.000e\+00 <= 1\.000e-08$"
    return curve, bundle.canonical_amplitude(spectra.spectral_decompose(rho_a)), message


@pytest.mark.parametrize("name", sorted(ORTHOGONAL_SWAPS))
class TestSingularTransport:
    def test_check_isoholonomic(self, name):
        curve, w0, message = orthogonal_swap(name)
        with pytest.raises(Singular, match=message) as caught:
            invariants.check_isoholonomic(curve, w0)
        assert caught.value.index == 0

    def test_horizontal_lift(self, name):
        curve, w0, message = orthogonal_swap(name)
        with pytest.raises(Singular, match=message):
            bundle.horizontal_lift(curve, w0)

    def test_cli_check_is_an_input_error(self, name, tmp_path, capsys):
        curve, _, _ = orthogonal_swap(name)
        path = tmp_path / "swap.json"
        serialize.write_json(path, serialize.curve_to_json(curve))
        assert cli.main(["check", str(path)]) == 1
        assert "step 0 (sample 0 -> 1)" in capsys.readouterr().err


class TestTransportedFrame:
    def test_nondegenerate_parallel_condition(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 1001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        frames = bundle.transported_frame(c, [f.copy() for f in rho0.frames])
        d = curves.grid_derivative(frames, c.grid.dt)
        overlaps = np.einsum("knj,knj->kj", frames.conj(), d)
        assert np.max(np.abs(overlaps[1:-1])) <= 1e-3 * TWO_PI  # O(dt) residual

    def test_constant_curve(self):
        rho = mixed_qubit_state()
        frames0 = [f.copy() for f in rho.frames]
        frames = bundle.transported_frame(constant_curve(rho.matrix), frames0)
        assert np.max(np.abs(frames - frames[0])) <= 1e-12

    def test_degenerate_block_matches_ode_oracle(self, rng):
        # two-dimensional eigenspace rotating rigidly; the oracle integrates
        # the projector-commutator transport equation with RK4
        dim, nsamp = 4, 801
        rho0 = rand_state(rng, (0.35, 0.15), (2, 2), dim)
        h = rand_hermitian(rng, 4, scale=1.5)
        tau = 1.0
        ts = np.linspace(0.0, tau, nsamp)
        hv, hw = np.linalg.eigh(h)
        samples = np.empty((nsamp, dim, dim), dtype=complex)
        projs = np.empty((nsamp, dim, dim), dtype=complex)
        for k, t in enumerate(ts):
            u = (hw * np.exp(-1j * t * hv)) @ hw.conj().T
            samples[k] = u @ rho0.matrix @ u.conj().T
            projs[k] = u @ projector(rho0, 0) @ u.conj().T
        c = OperatorCurve.from_samples(tau, samples)
        frames = bundle.transported_frame(c, [f.copy() for f in rho0.frames])

        # RK4 on Psi' = [Pdot, P] Psi for the first block
        def pdot(k_float):
            # spectral path of projectors is analytic; use exact derivative
            t = k_float * c.grid.dt
            u = (hw * np.exp(-1j * t * hv)) @ hw.conj().T
            p = u @ projector(rho0, 0) @ u.conj().T
            return -1j * (h @ p - p @ h), p

        psi = rho0.frames[0].copy()
        dt = c.grid.dt
        for k in range(nsamp - 1):
            def rhs(offset, y):
                dp, p = pdot(k + offset)
                return (dp @ p - p @ dp) @ y

            k1 = rhs(0.0, psi)
            k2 = rhs(0.5, psi + 0.5 * dt * k1)
            k3 = rhs(0.5, psi + 0.5 * dt * k2)
            k4 = rhs(1.0, psi + dt * k3)
            psi = psi + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        assert np.linalg.norm(frames[-1][:, :2] - psi) <= 1e-5

    def test_degenerate_block_matches_step_by_step_reference(self, rng):
        # a spectrum-varying loop with a doubly degenerate top block and a kernel
        c, rho0 = wobble_loop(rng, (0.35, 0.3), (2, 1), 4, 401)
        frames0 = np.concatenate([f.copy() for f in rho0.frames], axis=1)
        frames = bundle.transported_frame(c, frames0)
        want = polar_transport_reference(c.samples, [(0, 2), (2, 3)], frames0)
        assert np.max(np.abs(frames - want)) <= 1e-12

    def test_assembly_matches_lift(self):
        # frames plus eigenvalue weights rebuild the horizontal lift, and
        # slot vectors extracted from the lift rebuild the frames
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 501)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        lift = bundle.horizontal_lift(c, w0)
        frames = bundle.transported_frame(c, [f.copy() for f in rho0.frames])
        weights = np.sqrt(np.array([0.7, 0.3]))
        assembled = frames * weights[None, None, :]
        assert np.max(np.linalg.norm(assembled - lift.samples, axis=(1, 2))) <= 1e-8
        extracted = lift.samples / weights[None, None, :]
        assert np.max(np.linalg.norm(extracted - frames, axis=(1, 2))) <= 1e-8

    # bad initial frames on a dim-4 loop with blocks of size 2 and 1 and a kernel
    def test_wrong_shape_rejected(self, rng):
        c, rho0 = wobble_loop(rng, (0.35, 0.3), (2, 1), 4, 201)
        with pytest.raises(DegeneracyMismatch, match="frames have shape"):
            bundle.transported_frame(c, rho0.full_frame)

    def test_non_orthonormal_frames_rejected(self, rng):
        c, rho0 = wobble_loop(rng, (0.35, 0.3), (2, 1), 4, 201)
        frames0 = rho0.full_frame[:, :3].copy()
        frames0[:, 1] += 0.1 * frames0[:, 0]  # inside the top eigenspace, but not orthogonal
        with pytest.raises(DegeneracyMismatch):
            bundle.transported_frame(c, frames0)

    def test_frames_off_the_eigenspaces_rejected(self, rng):
        c, rho0 = wobble_loop(rng, (0.35, 0.3), (2, 1), 4, 201)
        frames0 = rho0.full_frame[:, [0, 1, 3]]  # orthonormal, with a kernel vector for block 1
        with pytest.raises(EndpointMismatch):
            bundle.transported_frame(c, frames0)


class TestGaugeMembership:
    def test_identity(self):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        assert bundle.gauge_membership(np.eye(3), basis)

    def test_block_phases(self):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, 1.1])))
        assert bundle.gauge_membership(u, basis)

    def test_cross_block_swap_rejected(self):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        u = np.zeros((3, 3), dtype=complex)
        u[0, 1], u[1, 0], u[2, 2] = 1.0, 1.0, 1.0
        assert not bundle.gauge_membership(u, basis)

    def test_non_unitary_rejected(self):
        basis = spectra.EigenprojectorBasis(m=(3,))
        assert not bundle.gauge_membership(np.diag([1.0, 1.0, 2.0]).astype(complex), basis)


class TestRiemannianSubmersion:
    def test_lift_preserves_length_and_energy(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 1001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        lift = bundle.horizontal_lift(c, w0)
        base_l, base_e = invariants.curve_length_energy(c)
        d = curves.grid_derivative(lift.samples, lift.grid.dt)
        speeds = np.linalg.norm(d, axis=(1, 2))
        lift_l = np.trapezoid(speeds, dx=lift.grid.dt)
        lift_e = 0.5 * np.trapezoid(speeds**2, dx=lift.grid.dt)
        assert abs(lift_l - base_l) / base_l <= 0.002
        assert abs(lift_e - base_e) / base_e <= 0.002


class TestAuxiliaryBasisIndependence:
    def test_conjugated_bundle_equivariance(self, rng):
        # moving every structure with a fixed unitary V on the auxiliary
        # space conjugates the connection and the holonomy and leaves the
        # metric alone; the primed connection is evaluated from its raw
        # block-projector formula inside the test
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
        w = bundle.canonical_amplitude(rho)
        v = rand_unitary(rng, 3)
        lam_primed = [v.conj().T @ w.basis.lambda_mat(j) @ v for j in range(2)]
        w_primed = w.w @ v

        def primed_connection(wmat, wdot):
            pseudo = linalg.pinv(wmat) @ wdot
            skew = 0.5 * (pseudo - pseudo.conj().T)
            return sum(lam @ skew @ lam for lam in lam_primed)

        for _ in range(5):
            wdot = -1j * rand_hermitian(rng, 5) @ w.w
            a = bundle.connection_form(w, wdot)
            a_primed = primed_connection(w_primed, wdot @ v)
            assert np.linalg.norm(a_primed - v.conj().T @ a.a @ v) <= 1e-9
            assert abs(bundle.metric_G(wdot @ v, wdot @ v) - bundle.metric_G(wdot, wdot)) <= 1e-9

    def test_holonomy_conjugates(self, rng):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 801)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        g = bundle.holonomy(c, w0)
        lift = bundle.horizontal_lift(c, w0)
        v = rand_unitary(rng, 2)
        # the primed lift is the old lift times V; its holonomy relative to
        # W0 V is V^dag Gamma V and commutes with the primed projectors
        w_primed_end = lift.samples[-1] @ v
        gamma_primed = linalg.pinv(w0.w @ v) @ w_primed_end
        expected = v.conj().T @ g.u @ v
        assert np.linalg.norm(gamma_primed - expected) <= 1e-7
        for j in range(2):
            lam = v.conj().T @ w0.basis.lambda_mat(j) @ v
            assert np.linalg.norm(gamma_primed @ lam - lam @ gamma_primed) <= 1e-6


class TestInEigenframeBlocks:
    """A long path is rotated into its eigenframes per linalg.sample_blocks
    block, bit for bit as in one block."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_blocks_match_one_block(self, rng, monkeypatch, n):
        for nsamp in (0, 1, 7, 8, 50):
            frames = np.array([rand_unitary(rng, n) for _ in range(nsamp)]).reshape(nsamp, n, n)
            spath = bundle.SpectralPath(means=np.ones((nsamp, 1)), frames=frames, m=(1,))
            ops = np.array([rand_hermitian(rng, n) for _ in range(nsamp)]).reshape(nsamp, n, n)
            want = spath.in_eigenframe(ops)
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * n * n * 7)
            got = spath.in_eigenframe(ops)
            monkeypatch.undo()
            assert np.array_equal(got, want)
