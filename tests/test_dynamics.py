import numpy as np
import pytest

from holonomy_lab import bundle, dynamics, linalg, spectra, synthesis
from holonomy_lab.curves import TimeGrid, UnitaryOrbit
from holonomy_lab.dynamics import SIGMA1, SIGMA3, HamiltonianSchedule
from holonomy_lab.errors import DimMismatch, InvalidP, NonHermitian, NotClosed, StationaryAxis
from qutil import (
    precessing_qubit_curve,
    qubit_axis,
    qubit_propagators,
    rand_gauge,
    rand_hermitian,
    rand_state,
    rand_unitary,
    sequential_products,
    traced_peak,
)

TWO_PI = 2.0 * np.pi


def mixed_qubit(p0=0.7):
    return spectra.spectral_decompose(np.diag([p0, 1.0 - p0]).astype(complex))


class TestEvolve:
    def test_zero_hamiltonian(self):
        rho0 = mixed_qubit()
        sched = HamiltonianSchedule.constant(np.zeros((2, 2)), 1.0, 21)
        props, states = dynamics.evolve(rho0, sched)
        assert np.max(np.abs(props.samples - np.eye(2))) <= 1e-14
        assert np.max(np.abs(states.samples - rho0.matrix)) <= 1e-14

    def test_matches_closed_form_propagator(self):
        n3, omega, p0 = 0.6, TWO_PI, 0.7
        rho0 = mixed_qubit(p0)
        h = dynamics.qubit_hamiltonian(qubit_axis(n3), omega)
        sched = HamiltonianSchedule.constant(h, TWO_PI / omega, 801)
        props, states = dynamics.evolve(rho0, sched)
        expected = qubit_propagators(qubit_axis(n3), omega, sched.grid.times)
        assert np.max(np.linalg.norm(props.samples - expected, axis=(1, 2))) <= 1e-8
        oracle = precessing_qubit_curve(n3, omega, p0, 801)
        assert np.max(np.linalg.norm(states.samples - oracle.samples, axis=(1, 2))) <= 1e-8

    def test_stationary_state(self):
        rho0 = mixed_qubit()
        sched = HamiltonianSchedule.constant(SIGMA3.astype(complex), 1.0, 51)
        props, states = dynamics.evolve(rho0, sched)
        assert np.max(np.abs(states.samples - rho0.matrix)) <= 1e-12
        assert np.max(np.abs(props.samples[-1] - props.samples[0])) > 0.1

    def test_spectrum_conserved(self, rng):
        rho0 = rand_state(rng, (0.5, 0.25), (1, 2), 4)
        t = np.linspace(0.0, 1.0, 301)
        h0, h1 = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        samples = np.stack([h0 + np.sin(TWO_PI * tk) * h1 for tk in t])
        sched = HamiltonianSchedule(grid=TimeGrid(tau=1.0, n=301), samples=samples)
        _, states = dynamics.evolve(rho0, sched)
        spath = bundle.decompose_path(states)
        means = spath.block_means()
        assert np.max(np.abs(means - np.array(rho0.p)[None, :])) <= 1e-9

    @pytest.mark.parametrize("n", [2, 6])
    def test_constant_schedule_propagators_are_powers_of_one_step(self, rng, n):
        # a constant schedule's propagators are scanned from its one broadcast step: the powers
        # of that step, and as unitary as the scan of a full copy of the steps
        h = rand_hermitian(rng, n, TWO_PI)
        sched = HamiltonianSchedule.constant(h, 1.0, 4001)
        props = dynamics.evolve(rand_state(rng, (1.0,), (1,), n), sched)[0].samples
        steps = np.broadcast_to(linalg.propagator_step_stack(h[None], sched.grid.dt), (4000, n, n))
        assert np.max(np.abs(props - sequential_products(steps))) <= 1e-12

        def unitarity(us):
            return np.max(np.abs(np.conj(np.swapaxes(us, -1, -2)) @ us - np.eye(n)))

        assert unitarity(props) <= 2.0 * unitarity(linalg.ordered_products(np.array(steps)))

    def test_dim_mismatch(self):
        rho0 = mixed_qubit()
        sched = HamiltonianSchedule.constant(np.zeros((3, 3)), 1.0, 5)
        with pytest.raises(DimMismatch):
            dynamics.evolve(rho0, sched)

    def test_schedule_requires_hermitian_samples(self):
        with pytest.raises(NonHermitian, match="sample 0"):
            HamiltonianSchedule.constant(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 5)

    def test_constant_schedule_is_one_read_only_sample(self):
        # h broadcast over the grid: no copy (6.4 MB at N = 1e5) and one sample checked
        h = dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI)
        assert traced_peak(lambda: HamiltonianSchedule.constant(h, 1.0, 10**5)) < 64 * 1024
        sched = HamiltonianSchedule.constant(h, 1.0, 10**5)
        assert not sched.samples.flags.writeable
        assert np.array_equal(sched.samples[-1], h)

    def test_constant_samples_are_stored_once(self):
        # a full stack whose samples equal the first bitwise is stored as a broadcast of a copy
        # of sample 0, so the stack it came from can be freed; one ulp off, it is kept whole
        h = dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI)
        full = np.array(np.broadcast_to(h, (101, 2, 2)))
        sched = HamiltonianSchedule(grid=TimeGrid(tau=1.0, n=101), samples=full)
        assert sched.samples.strides[0] == 0 and not sched.samples.flags.writeable
        assert not np.shares_memory(sched.samples, full) and np.array_equal(sched.samples, full)
        full[50, 0, 0] = np.nextafter(full[50, 0, 0].real, np.inf)
        assert HamiltonianSchedule(grid=TimeGrid(tau=1.0, n=101), samples=full).samples.strides[0] != 0


class TestSplitHamiltonian:
    def test_commuting_is_fully_incoherent(self):
        rho = mixed_qubit()
        h = np.diag([1.3, -0.4]).astype(complex)
        h_in, h_co = dynamics.split_hamiltonian(h, rho)
        assert np.linalg.norm(h_in - h) <= 1e-12
        assert np.linalg.norm(h_co) <= 1e-12

    def test_precessing_qubit_components(self):
        # for the diagonal state the incoherent part is the longitudinal
        # (sigma3) content and the coherent part the transverse content
        n3, omega = 0.6, TWO_PI
        n1 = np.sqrt(1 - n3**2)
        rho = mixed_qubit(0.7)
        h = dynamics.qubit_hamiltonian((n1, 0.0, n3), omega)
        h_in, h_co = dynamics.split_hamiltonian(h, rho)
        assert np.linalg.norm(h_in - 0.5 * omega * n3 * SIGMA3) <= 1e-12
        assert np.linalg.norm(h_co - 0.5 * omega * n1 * SIGMA1) <= 1e-12
        # an identity offset in H lands entirely in the incoherent part and
        # leaves the coherent part and every variance unchanged
        shifted_in, shifted_co = dynamics.split_hamiltonian(h + 0.5 * omega * np.eye(2), rho)
        assert np.linalg.norm(shifted_in - (h_in + 0.5 * omega * np.eye(2))) <= 1e-12
        assert np.linalg.norm(shifted_co - h_co) <= 1e-12
        assert abs(dynamics.uncertainty(rho, h)[2]
                   - dynamics.uncertainty(rho, h + 0.5 * omega * np.eye(2))[2]) <= 1e-12

    def test_pure_state_compression(self, rng):
        psi = rand_unitary(rng, 3)[:, :1]
        rho = spectra.spectral_decompose(psi @ psi.conj().T)
        h = rand_hermitian(rng, 3)
        h_in, h_co = dynamics.split_hamiltonian(h, rho)
        p = psi @ psi.conj().T
        q = np.eye(3) - p
        expected_in = p @ h @ p + q @ h @ q
        assert np.linalg.norm(h_in - expected_in) <= 1e-12
        assert np.linalg.norm(h_co - (h - expected_in)) <= 1e-12

    def test_incoherent_commutes_coherent_offblock(self, rng):
        for _ in range(5):
            rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
            h = rand_hermitian(rng, 5)
            h_in, h_co = dynamics.split_hamiltonian(h, rho)
            comm = h_in @ rho.matrix - rho.matrix @ h_in
            assert np.linalg.norm(comm) <= 1e-9
            # the coherent part has no block-diagonal component
            for j in range(len(rho.m)):
                f = rho.frames[j]
                assert np.linalg.norm(f.conj().T @ h_co @ f) <= 1e-10
            k = rho.kernel
            assert np.linalg.norm(k.conj().T @ h_co @ k) <= 1e-10


class TestUncertainty:
    def test_zero_hamiltonian(self):
        rho = mixed_qubit()
        assert dynamics.uncertainty(rho, np.zeros((2, 2))) == (0.0, 0.0, 0.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            dynamics.uncertainty(mixed_qubit(), [[0.0, 1.0], [0.0, 0.0]])

    def test_precessing_qubit_value(self):
        n3, omega, p0 = 0.6, TWO_PI, 0.7
        rho = mixed_qubit(p0)
        h = dynamics.qubit_hamiltonian(qubit_axis(n3), omega)
        dh, _, _ = dynamics.uncertainty(rho, h)
        expected = 0.5 * omega * np.sqrt(1 - n3**2 * (2 * p0 - 1) ** 2)
        assert abs(expected - 3.049772973122198) <= 1e-12
        assert abs(dh - expected) <= 1e-12

    def test_pure_eigenstate(self):
        psi = np.array([[1.0], [0.0]], dtype=complex)
        rho = spectra.spectral_decompose(psi @ psi.conj().T)
        dh, dco, din = dynamics.uncertainty(rho, SIGMA3.astype(complex))
        assert max(dh, dco, din) <= 1e-12

    def test_variance_pythagoras(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            vals = np.sort(rng.uniform(0.05, 1.0, size=dim))[::-1]
            vals /= vals.sum()
            u = rand_unitary(rng, dim)
            rho = spectra.spectral_decompose(u @ np.diag(vals).astype(complex) @ u.conj().T)
            h = rand_hermitian(rng, dim)
            dh, dco, din = dynamics.uncertainty(rho, h)
            assert abs(dh**2 - dco**2 - din**2) <= 1e-9 * max(1.0, dh**2)

    def test_coherent_mean_vanishes(self, rng):
        for _ in range(10):
            rho = rand_state(rng, (0.5, 0.25), (1, 2), 5)
            h = rand_hermitian(rng, 5)
            _, h_co = dynamics.split_hamiltonian(h, rho)
            assert abs(np.trace(rho.matrix @ h_co)) <= 1e-10


class TestSpeedLimit:
    def run_qubit(self, n3, p0=0.7, omega=TWO_PI, nsamp=2001, offset=0.0):
        rho0 = mixed_qubit(p0)
        h = dynamics.qubit_hamiltonian(qubit_axis(n3), omega) + offset * np.eye(2)
        sched = HamiltonianSchedule.constant(h, TWO_PI / omega, nsamp)
        _, states = dynamics.evolve(rho0, sched)
        w0 = bundle.canonical_amplitude(rho0)
        return dynamics.speed_limit(states, sched, w0)

    def test_bound_formula(self):
        n3, p0 = 0.6, 0.7
        report = self.run_qubit(n3, p0)
        expected = np.sqrt((1 - n3**2) / (1 - n3**2 * (2 * p0 - 1) ** 2))
        assert abs(expected - 0.8240856434303292) <= 1e-12
        assert abs(report.bound - expected) <= 1e-6
        assert report.margin >= 0.0
        assert report.margin > 1e-3

    def test_energy_offset_leaves_the_bound(self):
        plain = self.run_qubit(0.6)
        shifted = self.run_qubit(0.6, offset=1e5)
        assert abs(shifted.bound - plain.bound) <= 1e-6 * plain.bound

    @pytest.mark.parametrize("p", [(0.7, 0.3), (0.5, 0.3, 0.2)], ids=["dim2", "dim3"])
    def test_stationary_run_has_a_zero_bound(self, p):
        # H = I moves no state: the holonomy is trivial, so iHB and the bound are exactly 0
        rho0 = spectra.spectral_decompose(np.diag(p).astype(complex))
        sched = HamiltonianSchedule.constant(np.eye(len(p)), 1.0, 2001)
        _, states = dynamics.evolve(rho0, sched)
        report = dynamics.speed_limit(states, sched, bundle.canonical_amplitude(rho0))
        assert report.ihb == 0.0 and report.bound == 0.0 and report.margin == 1.0

    def test_equality_iff_axis_in_plane(self):
        report = self.run_qubit(0.0)
        assert abs(report.margin) <= 1e-6
        report = self.run_qubit(0.3)
        assert report.margin > 1e-6

    def test_average_uncertainty_bounds_length(self):
        for n3 in (0.0, 0.3, 0.6):
            report = self.run_qubit(n3, nsamp=1001)
            length = np.trapezoid(report.dh_co, dx=report.tau / 1000)
            assert report.tau * report.delta_e >= length - 1e-9

    def test_not_closed(self):
        rho0 = mixed_qubit()
        h = dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI)
        sched = HamiltonianSchedule.constant(h, 0.63, 301)
        _, states = dynamics.evolve(rho0, sched)
        w0 = bundle.canonical_amplitude(rho0)
        with pytest.raises(NotClosed):
            dynamics.speed_limit(states, sched, w0)

    def test_speed_identity_against_finite_differences(self):
        # numeric state speed from samples vs coherent uncertainty
        n3, p0, omega, nsamp = 0.6, 0.7, TWO_PI, 2001
        states = precessing_qubit_curve(n3, omega, p0, nsamp)
        h = dynamics.qubit_hamiltonian(qubit_axis(n3), omega)
        spath = bundle.decompose_path(states)
        from holonomy_lab.curves import grid_derivative

        rdots = grid_derivative(states.samples, states.grid.dt)
        speeds = np.sqrt(bundle.path_speeds_sq(spath, rdots, tangent_tol=1e-3))
        rho0 = mixed_qubit(p0)
        expected = dynamics.uncertainty(rho0, h)[1]  # conserved along the flow
        rel = np.abs(speeds[1:-1] - expected) / expected
        assert np.max(rel) <= 1e-4


def coherent_schedule(sched, states):
    """The schedule of the coherent parts split_hamiltonian gives at each state of the run."""
    h_co = [dynamics.split_hamiltonian(h, spectra.spectral_decompose(state))[1]
            for h, state in zip(sched.samples, states.samples)]
    return HamiltonianSchedule(grid=sched.grid, samples=np.stack(h_co))


class TestUnitaryLift:
    def test_agrees_with_frame_transport(self):
        # the horizontal lift of a unitary run is the start carried by the
        # propagators of the coherent parts: w0 under evolve of that schedule
        n3, p0, omega, nsamp = 0.6, 0.7, TWO_PI, 4001
        rho0 = mixed_qubit(p0)
        h = dynamics.qubit_hamiltonian(qubit_axis(n3), omega)
        sched = HamiltonianSchedule.constant(h, TWO_PI / omega, nsamp)
        _, states = dynamics.evolve(rho0, sched)
        w0 = bundle.canonical_amplitude(rho0)
        lift_a = bundle.horizontal_lift(states, w0)
        props, _ = dynamics.evolve(rho0, coherent_schedule(sched, states))
        lift_b = props.samples @ w0.w
        assert np.max(np.linalg.norm(lift_a.samples - lift_b, axis=(1, 2))) <= 1e-6


STEP_KERNEL = linalg.propagator_step_stack  # unspied by the step_stacks fixture


def midpoint_products(hs, dt):
    """The midpoint rule written out: the step of the first sample broadcast
    over a constant stack, else exp(-i dt (H_k + H_{k+1})/2), then the
    running products."""
    if np.max(np.abs(hs - hs[0])) == 0.0:
        steps = np.broadcast_to(STEP_KERNEL(hs[:1], dt), (len(hs) - 1, *hs.shape[1:]))
    else:
        steps = STEP_KERNEL(0.5 * (hs[:-1] + hs[1:]), dt)
    return linalg.ordered_products(steps)


@pytest.fixture
def step_stacks(monkeypatch):
    """Shapes of the stacks handed to propagator_step_stack from now on."""
    shapes = []
    kernel = linalg.propagator_step_stack

    def spy(hs, dt):
        shapes.append(np.shape(hs))
        return kernel(hs, dt)

    monkeypatch.setattr(linalg, "propagator_step_stack", spy)
    return shapes


class TestStepBuilder:
    """evolve takes its midpoint steps from one builder and gives exactly
    the numbers of the rule written out."""

    def run(self, rho0, sched):
        props, states = dynamics.evolve(rho0, sched)
        expected_props = midpoint_products(sched.samples, sched.grid.dt)
        assert np.array_equal(props.samples, expected_props)
        expected_states = UnitaryOrbit(grid=sched.grid, propagators=expected_props, start=rho0,
                                       hamiltonians=sched.samples).samples
        assert np.array_equal(states.samples, expected_states)
        return states

    def test_constant_qubit_schedule(self, step_stacks):
        rho0 = mixed_qubit()
        sched = HamiltonianSchedule.constant(dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1.0, 2001)
        self.run(rho0, sched)
        # evolve steps the constant schedule once
        assert step_stacks == [(1, 2, 2)]

    def test_synthesized_dim6_schedule(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis),
                                    tau=1.0, ambient_dim=6)
        assert np.max(np.abs(plan.schedule.samples - plan.schedule.samples[0])) > 0.0
        self.run(plan.rho, plan.schedule)

    def test_constant_coherent_part_takes_one_step(self, step_stacks):
        # under H = 0 the coherent-part schedule is bitwise constant, so its evolve takes the shortcut too
        rho0 = mixed_qubit()
        sched = HamiltonianSchedule.constant(np.zeros((2, 2)), 1.0, 201)
        h_co = coherent_schedule(sched, self.run(rho0, sched))
        assert np.all(h_co.samples == h_co.samples[0])
        self.run(rho0, h_co)
        assert step_stacks == [(1, 2, 2), (1, 2, 2)]

    def test_halved_step_takes_the_sums(self, rng):
        # H_k + H_{k+1} under dt / 2 is the midpoint under dt, bit for bit, on plans of any degree
        for scale in (1e-6, 1.0, 1e3):
            hs = np.array([rand_hermitian(rng, 4, scale) for _ in range(9)])
            for dt in (1e-3, 0.1, 2.0):
                want = linalg.propagator_step_stack(0.5 * (hs[:-1] + hs[1:]), dt)
                assert np.array_equal(dynamics._steps(hs, dt), want)


class TestQubitReference:
    def test_equatorial_axis_saturates(self):
        ref = dynamics.qubit_reference(qubit_axis(0.0), TWO_PI, 0.7)
        assert abs(ref.bound - ref.tau) <= 1e-12
        assert abs(ref.ihb - np.pi) <= 1e-12

    def test_tilted_axis(self):
        ref = dynamics.qubit_reference(qubit_axis(0.6), TWO_PI, 0.7)
        assert abs(ref.ihb - 0.8 * np.pi) <= 1e-12
        assert abs(ref.phases[0] - 1.6 * np.pi) <= 1e-12
        assert abs(ref.phases[1] - 0.4 * np.pi) <= 1e-12
        assert abs(ref.length - ref.ihb) <= 1e-12

    def test_stationary_axis_rejected(self):
        with pytest.raises(StationaryAxis):
            dynamics.qubit_reference((0.0, 0.0, 1.0), TWO_PI, 0.7)
        with pytest.raises(StationaryAxis):
            dynamics.qubit_reference((0.5, 0.0, 0.5), TWO_PI, 0.7)

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            dynamics.qubit_reference(qubit_axis(0.3), TWO_PI, 0.4)
        with pytest.raises(InvalidP):
            dynamics.qubit_reference(qubit_axis(0.3), TWO_PI, 1.0)

    @pytest.mark.parametrize("axis", [(np.nan, 0.0, np.nan), (0.6, 0.0, np.nan)])
    def test_non_finite_axis_rejected(self, axis):
        with pytest.raises(StationaryAxis, match="axis"):
            dynamics.qubit_reference(axis, TWO_PI, 0.7)

    @pytest.mark.parametrize("omega", [np.inf, np.nan])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(InvalidP, match="omega"):
            dynamics.qubit_reference(qubit_axis(0.3), omega, 0.7)
