import weakref

import numpy as np
import pytest

from holonomy_lab import bundle, dynamics, invariants, linalg, spectra, synthesis
from holonomy_lab.curves import grid_derivative
from holonomy_lab.errors import (
    DimensionTooSmall,
    GaugeViolation,
    OutOfRange,
    SaturationFailed,
)
from qutil import rand_gauge, rand_state, rand_unitary, traced_peak

TWO_PI = 2.0 * np.pi


def loop_spec(theta, dim=2, tau=1.0):
    psi = np.zeros(dim, dtype=complex)
    phi = np.zeros(dim, dtype=complex)
    psi[0], phi[1] = 1.0, 1.0
    return synthesis.PureLoopSpec(theta=theta, tau=tau, psi=psi, phi=phi)


def loop_path(spec, n_samples):
    """The loop exp(-i t G) psi of the spec's generator G, sampled over [0, tau]."""
    lam, v = np.linalg.eigh(spec.generator)
    ts = np.linspace(0.0, spec.tau, n_samples)
    return (v * np.exp(-1j * ts[:, None, None] * lam)) @ v.conj().T @ spec.psi


class TestOptimalPureLoop:
    def test_zero_phase_constant(self):
        spec = loop_spec(0.0)
        assert np.linalg.norm(spec.generator) == 0.0
        path = loop_path(spec, 11)
        assert np.max(np.abs(path - path[0])) == 0.0

    def test_half_turn_parameters(self):
        spec = loop_spec(np.pi, tau=2.0)
        assert abs(spec.speed - np.pi / 2.0) <= 1e-15
        assert abs(spec.mixing - np.pi / 4.0) <= 1e-15
        vals = np.linalg.eigvalsh(spec.generator)
        assert abs(vals[-1] - np.pi / 2.0) <= 1e-12
        assert abs(vals[0] + np.pi / 2.0) <= 1e-12

    @pytest.mark.parametrize("theta", [0.3, np.pi / 2, np.pi, 5.0, 6.1])
    def test_loop_properties(self, theta):
        spec = loop_spec(theta, dim=3, tau=0.7)
        gen, path = spec.generator, loop_path(spec, 801)
        # closes up to the phase factor
        assert np.linalg.norm(path[-1] - np.exp(1j * theta) * path[0]) <= 1e-8
        # horizontal and constant speed, from the exact generator action
        vel = -1j * path @ gen.T.conj()
        overlap = np.einsum("kn,kn->k", path.conj(), vel)
        assert np.max(np.abs(overlap)) <= 1e-8
        speeds = np.linalg.norm(vel, axis=1)
        target = np.sqrt(theta * (TWO_PI - theta)) / 0.7
        assert np.max(np.abs(speeds - target)) <= 1e-8
        # never leaves the plane
        plane = np.stack([spec.psi, spec.phi], axis=1)
        proj = plane @ plane.conj().T
        assert np.max(np.linalg.norm(path - path @ proj.T, axis=1)) <= 1e-12
        # length equals the pure-state bound
        assert abs(0.7 * target - invariants.pure_ihb(theta)) <= 1e-12

    def test_rejects_bad_theta(self):
        with pytest.raises(OutOfRange):
            loop_spec(TWO_PI)


class TestChoosePlanes:
    """synthesize gives slot q the plane of its slot vector psi_q, from one
    lift-start check, and column q of rho's kernel."""

    @staticmethod
    def plane_vectors(plan):
        return np.stack([v for loop in plan.loops for v in (loop.psi, loop.phi)], axis=1)

    def test_rank_one_in_dim_two(self, rng):
        psi = rand_unitary(rng, 2)[:, :1]
        rho = spectra.spectral_decompose(psi @ psi.conj().T)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis),
                                    tau=1.0, ambient_dim=2, n_samples=11)
        assert len(plan.loops) == 1
        vecs = self.plane_vectors(plan)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(2)) <= 1e-12

    def test_rank_two_in_dim_four(self, rng):
        rho = rand_state(rng, (0.7, 0.3), (1, 1), 4)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis),
                                    tau=1.0, ambient_dim=4, n_samples=11)
        assert len(plan.loops) == 2
        vecs = self.plane_vectors(plan)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(4)) <= 1e-12

    def test_partners_are_kernel_columns(self, rng):
        # dim 5, rank 2: plane q pairs slot q with column q of rho's kernel
        rho = rand_state(rng, (0.6, 0.4), (1, 1), 5)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis),
                                    tau=1.0, ambient_dim=5, n_samples=101)
        assert len(plan.loops) == 2
        for q, loop in enumerate(plan.loops):
            assert np.array_equal(loop.phi, rho.kernel[:, q])
            assert abs(np.vdot(loop.psi, loop.phi)) <= 1e-14

    def test_dim_too_small(self, rng):
        rho = rand_state(rng, (0.7, 0.3), (1, 1), 3)
        w, target = bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis)
        with pytest.raises(DimensionTooSmall, match=r"need ambient dim >= 4 to fit 2 planes, got 3"):
            synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=3)
        with pytest.raises(DimensionTooSmall, match=r"state lives in dim 3, ambient_dim says 4"):
            synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=4)

    def test_one_lift_start_check_per_plan(self, rng, monkeypatch):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        calls, check = [], bundle.check_lift_start
        monkeypatch.setattr(bundle, "check_lift_start", lambda *args: calls.append(args) or check(*args))
        synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis),
                             tau=1.0, ambient_dim=6, n_samples=11)
        assert len(calls) == 1


class TestSynthesize:
    def test_identity_target_constant_plan(self):
        rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
        w = bundle.canonical_amplitude(rho)
        target = bundle.GaugeElement(u=np.eye(2), basis=rho.basis)
        plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=4, n_samples=101)
        assert np.linalg.norm(plan.generator) <= 1e-12
        assert np.max(np.abs(plan.schedule.samples)) <= 1e-12
        report = synthesis.verify_saturation(plan)
        assert report.length <= 1e-9
        assert report.ihb == 0.0
        assert report.holonomy_error <= 1e-9

    def test_qubit_target_length(self):
        rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
        w = bundle.canonical_amplitude(rho)
        target = bundle.GaugeElement(
            u=np.diag(np.exp(1j * np.array([1.6 * np.pi, 0.4 * np.pi]))), basis=rho.basis)
        plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=4)
        report = synthesis.verify_saturation(plan)
        assert abs(report.length - 0.8 * np.pi) <= 1e-5
        assert abs(report.ihb - 0.8 * np.pi) <= 1e-12
        # constant uncertainty at ihb / tau along the run
        assert report.dh_deviation <= 1e-6

    def test_random_block_target(self, rng):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        w = bundle.canonical_amplitude(rho)
        target = rand_gauge(rng, rho.basis)
        plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=6)
        report = synthesis.verify_saturation(plan)
        assert report.holonomy_error <= 1e-6
        assert report.length_error <= 1e-5
        assert report.max_h_in <= 1e-9
        assert report.bound_gap <= 1e-5

    def test_one_eigendecomposition_per_plan(self, rng, monkeypatch):
        # the generator's eigh is the plan's one: the partners come from rho
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        matrices = []
        hermitian_eig = linalg.hermitian_eig

        def spy(m):
            matrices.append(np.shape(m))
            return hermitian_eig(m)

        monkeypatch.setattr(linalg, "hermitian_eig", spy)
        synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                             ambient_dim=6, n_samples=101)
        assert matrices == [(6, 6)]

    def test_coherent_part_from_split_hamiltonian(self, rng, monkeypatch):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        seen = []
        split_hamiltonian = dynamics.split_hamiltonian

        def spy(h, state):
            seen.append((h, state))
            return split_hamiltonian(h, state)

        monkeypatch.setattr(dynamics, "split_hamiltonian", spy)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                                    ambient_dim=6, n_samples=101)
        assert len(seen) == 1
        assert seen[0][0] is plan.generator and seen[0][1] is rho

    @pytest.mark.parametrize("angle", [3e-10, 1e-9, 3e-9, 8e-9, 8.5e-9, 9e-9, 1e-8])
    def test_start_tilted_into_the_kernel_saturates(self, angle):
        # slot 0 of the canonical amplitude turned toward rho's first kernel
        # vector stays a lift start (defect 0.99 angle <= PROJECTION_TOL); the
        # loops start on rho's own eigenspaces, not on W W^dag, so the plan's
        # orbit of rho closes and the drive stays coherent at rho
        rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
        w = bundle.canonical_amplitude(rho).w.copy()
        w[:, 0] = np.sqrt(0.7) * (np.cos(angle) * rho.support_frame[:, 0] + np.sin(angle) * rho.kernel[:, 0])
        target = bundle.GaugeElement(u=np.diag(np.exp(1j * np.array([1.6 * np.pi, 0.4 * np.pi]))), basis=rho.basis)
        plan = synthesis.synthesize(rho, bundle.Amplitude(w=w, basis=rho.basis), target, tau=1.0, ambient_dim=4)
        assert synthesis.verify_saturation(plan).max_h_in <= 1e-13
        assert plan.exact_states().closure_defect() <= 1e-14
        assert max(np.max(np.abs(rho.kernel.conj().T @ loop.psi)) for loop in plan.loops) <= 1e-15

    def test_roomier_ambient_space(self, rng):
        # more kernel directions than planes need; spare ones stay idle
        for p, m, dim in (((1.0,), (1,), 4), ((0.7, 0.3), (1, 1), 5), ((0.7, 0.3), (1, 1), 6)):
            rho = rand_state(rng, p, m, dim)
            w = bundle.canonical_amplitude(rho)
            target = rand_gauge(rng, rho.basis)
            plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=dim)
            report = synthesis.verify_saturation(plan)
            assert report.holonomy_error <= 1e-6
            assert report.length_error <= 1e-5

    def test_degenerate_block_equal_phases(self):
        # equal phases on a two-fold block: the holonomy is a scalar on it
        theta = 2.2
        rho = synthesis.embedded_state(np.diag([0.5, 0.5]).astype(complex), 4)
        assert rho.m == (2,)
        w = bundle.canonical_amplitude(rho)
        target = bundle.GaugeElement(u=np.exp(1j * theta) * np.eye(2), basis=rho.basis)
        plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=4)
        report = synthesis.verify_saturation(plan)
        expected = np.sqrt(2.0 * 0.5 * theta * (TWO_PI - theta))
        assert abs(report.length - expected) <= 1e-5
        assert report.holonomy_error <= 1e-6

    def test_dim_too_small(self, rng):
        rho = rand_state(rng, (0.7, 0.3), (1, 1), 3)
        w = bundle.canonical_amplitude(rho)
        target = rand_gauge(rng, rho.basis)
        with pytest.raises(DimensionTooSmall):
            synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=3)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_tau_rejected(self, tau):
        # the pure-loop specs check tau where it enters the plan, before
        # an infinite one can reach the flow's time grid
        rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
        target = bundle.GaugeElement(u=np.eye(2), basis=rho.basis)
        with pytest.raises(OutOfRange, match="tau must be positive"):
            synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=tau, ambient_dim=4)

    def test_non_gauge_target_rejected(self, rng):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        u = rand_unitary(rng, 3)  # generically not block diagonal
        with pytest.raises(GaugeViolation):
            bundle.GaugeElement(u=u, basis=basis)

    def test_synthesized_frames_stay_parallel(self, rng):
        # transported slot vectors never develop in-block velocity overlap
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        w = bundle.canonical_amplitude(rho)
        target = rand_gauge(rng, rho.basis)
        plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=6, n_samples=1001)
        curve = plan.exact_states()
        frames = bundle.transported_frame(
            curve, [w.w[:, lo:hi] / np.sqrt(plan.rho.p[j])
                    for j, (lo, hi) in enumerate(w.basis.blocks)])
        d = grid_derivative(frames, curve.grid.dt)
        for lo, hi in w.basis.blocks:
            block = np.einsum("kna,knb->kab", frames[:, :, lo:hi].conj(), d[:, :, lo:hi])
            assert np.max(np.abs(block[1:-1])) <= 1e-3


    def test_re_integrated_run_is_freed_before_the_lift(self, rng, monkeypatch):
        # only the integration defect is read from the re-integrated run, so
        # neither of its curves may stay alive through the lift and the checks
        rho = rand_state(rng, (0.7, 0.3), (1, 1), 4)
        w = bundle.canonical_amplitude(rho)
        plan = synthesis.synthesize(rho, w, rand_gauge(rng, rho.basis), tau=1.0, ambient_dim=4)
        refs, entered = [], []
        evolve, closed_loop = dynamics.evolve, bundle.closed_loop

        def tracked_evolve(*args):
            curves = evolve(*args)
            refs.extend(weakref.ref(c) for c in curves)
            return curves

        def checked_closed_loop(*args):
            assert len(refs) == 2 and all(ref() is None for ref in refs)
            entered.append(True)
            return closed_loop(*args)

        monkeypatch.setattr(dynamics, "evolve", tracked_evolve)
        monkeypatch.setattr(bundle, "closed_loop", checked_closed_loop)
        synthesis.verify_saturation(plan)
        assert entered == [True]


# (p, m, dim, target eigenphases / 2pi): the benchmark's saturation sweep,
# and its dim-6 plan with equal phases on the two-fold block
SWEEP_PLANS = (
    ((1.0,), (1,), 2, (0.62,)),
    ((0.7, 0.3), (1, 1), 4, (0.81, 0.27)),
    ((0.5, 0.25), (1, 2), 6, (0.45, 0.93, 0.18)),
    ((0.5, 0.25), (1, 2), 6, (0.45, 0.3, 0.3)),
)
SWEEP_IDS = ["dim2", "dim4", "dim6", "dim6_equal_phases"]


def sweep_plan(rng, p, m, dim, fracs, n_samples=synthesis.PLAN_SAMPLES):
    rho = rand_state(rng, p, m, dim)
    u = np.zeros((rho.rank, rho.rank), dtype=complex)
    for lo, hi in rho.basis.blocks:
        q = rand_unitary(rng, hi - lo)
        u[lo:hi, lo:hi] = (q * np.exp(1j * TWO_PI * np.asarray(fracs[lo:hi]))) @ q.conj().T
    target = bundle.GaugeElement(u=u, basis=rho.basis)
    return synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=1.0, ambient_dim=dim,
                                n_samples=n_samples)


@pytest.fixture
def products(monkeypatch):
    """Operand shapes of every matmul_stack call from now on."""
    shapes = []
    matmul_stack = linalg.matmul_stack

    def spy(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return matmul_stack(a, b)

    monkeypatch.setattr(linalg, "matmul_stack", spy)
    return shapes


def stack_by_stack(shapes):
    """The products of two stacks of more than one sample each."""
    return [(a, b) for a, b in shapes if len(a) > 2 and len(b) > 2 and a[0] > 1 and b[0] > 1]


class TestScheduleProducts:
    """synthesize conjugates the generator's coherent part along the flow in
    the generator's eigenbasis, so each product over the schedule has one
    fixed factor."""

    @pytest.mark.parametrize("p, m, dim, fracs", SWEEP_PLANS, ids=SWEEP_IDS)
    def test_synthesize_makes_no_stack_by_stack_product(self, rng, products, p, m, dim, fracs):
        sweep_plan(rng, p, m, dim, fracs, n_samples=201)
        # the one-sample products are split_hamiltonian's four at rho, and the
        # polar factors check_lift_start takes on the blocks of more than one slot
        blocks = {((1, k, k), (1, k, k)) for k in m if k > 1}
        at_rho = [pair for pair in products if pair[0][0] == 1 and pair not in blocks]
        assert at_rho == [((1, dim, dim), (1, dim, dim))] * 4
        assert [pair for pair in products if pair[0][0] > 1] == [((201, dim, dim), (dim, dim))] * 2
        assert stack_by_stack(products) == []

    def test_orbit_and_its_path_make_one(self, rng, products):
        plan = sweep_plan(rng, *SWEEP_PLANS[2], n_samples=201)
        products.clear()
        orbit = plan.exact_states()
        bundle.decompose_path(orbit)
        # U F0 folds into one GEMM, and the path forms no state
        assert stack_by_stack(products) == []
        orbit.samples
        # the states, on their first read: U rho0 is one GEMM, (U rho0) U^dag pairs two stacks
        assert stack_by_stack(products) == [((201, 6, 6), (201, 6, 6))]

    @pytest.mark.parametrize("p, m, dim, fracs", SWEEP_PLANS, ids=SWEEP_IDS)
    def test_schedule_is_the_conjugated_coupling(self, rng, p, m, dim, fracs):
        plan = sweep_plan(rng, p, m, dim, fracs)
        coupling = sum(loop.speed * (np.outer(loop.psi, loop.phi.conj()) + np.outer(loop.phi, loop.psi.conj()))
                       for loop in plan.loops)
        lam, v = np.linalg.eigh(plan.generator)
        props = (v * np.exp(-1j * plan.schedule.grid.times[:, None, None] * lam)) @ v.conj().T
        want = props @ coupling @ np.conj(np.swapaxes(props, -1, -2))
        assert np.max(np.abs(plan.schedule.samples - want)) <= 1e-13


class TestSampleBlocks:
    """synthesize assembles the drive, and verify_saturation checks the
    re-integration, per linalg.sample_blocks block of the schedule."""

    @pytest.mark.parametrize("p, m, dim, fracs", SWEEP_PLANS, ids=SWEEP_IDS)
    def test_blocks_match_one_block(self, monkeypatch, p, m, dim, fracs):
        # 13 samples a block, the last of them holding 2, 6 and 10 samples
        for n_samples in (2, 201, synthesis.PLAN_SAMPLES):
            want = sweep_plan(np.random.default_rng(5), p, m, dim, fracs, n_samples=n_samples)
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * dim * dim * 13)
            got = sweep_plan(np.random.default_rng(5), p, m, dim, fracs, n_samples=n_samples)
            monkeypatch.undo()
            assert np.array_equal(got.schedule.samples, want.schedule.samples)
        # every field of the report, the integration defect's max over the blocks included
        want_report = synthesis.verify_saturation(want)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * dim * dim * 13)
        assert synthesis.verify_saturation(want) == want_report

    def test_traced_peaks(self, rng):
        # the dim-6 plan at PLAN_SAMPLES, in schedule stacks: over the whole
        # stack at once synthesize peaked at 4.2 and verify_saturation at 7.0
        stack = 16 * 36 * synthesis.PLAN_SAMPLES
        assert traced_peak(lambda: sweep_plan(rng, *SWEEP_PLANS[2])) < 2.75 * stack
        plan = sweep_plan(rng, *SWEEP_PLANS[2])
        assert traced_peak(lambda: synthesis.verify_saturation(plan)) < 5.5 * stack


class TestSaturationGuard:
    def test_detects_wrong_target(self, rng):
        rho = rand_state(rng, (0.7, 0.3), (1, 1), 4)
        w = bundle.canonical_amplitude(rho)
        target = rand_gauge(rng, rho.basis)
        plan = synthesis.synthesize(rho, w, target, tau=1.0, ambient_dim=4, n_samples=501)
        other = bundle.GaugeElement(u=np.diag([1.0, -1.0]).astype(complex) @ target.u, basis=rho.basis)
        broken = synthesis.SaturatingPlan(
            rho=plan.rho, w=plan.w, target=other, tau=plan.tau, loops=plan.loops,
            generator=plan.generator, schedule=plan.schedule)
        with pytest.raises(SaturationFailed):
            synthesis.verify_saturation(broken)


class TestEmbedding:
    def test_embed_pads_with_kernel(self):
        rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 5)
        assert rho.dim == 5
        assert rho.rank == 2
        assert rho.kernel.shape == (5, 3)

    def test_embed_rejects_shrinking(self):
        with pytest.raises(DimensionTooSmall):
            synthesis.embed_state(np.eye(3) / 3.0, 2)
