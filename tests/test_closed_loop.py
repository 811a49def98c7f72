"""Each closed curve is decomposed and lifted once per call, and its holonomy
reduces the transport steps to the lift's endpoint without scanning them."""

import json

import numpy as np
import pytest

from holonomy_lab import bundle, cli, dynamics, invariants, linalg, spectra, synthesis
from holonomy_lab.curves import TimeGrid
from holonomy_lab.errors import GridMismatch
from qutil import plain_curve, qubit_axis, rand_gauge, rand_state, saturating_plan, stack_sizes, wobble_loop

TWO_PI = 2.0 * np.pi


def qubit_run(nsamp=401, p0=0.7, n3=0.6):
    rho0 = spectra.spectral_decompose(np.diag([p0, 1.0 - p0]).astype(complex))
    h = dynamics.qubit_hamiltonian(qubit_axis(n3), TWO_PI)
    sched = dynamics.HamiltonianSchedule.constant(h, 1.0, nsamp)
    _, states = dynamics.evolve(rho0, sched)
    return states, sched, bundle.canonical_amplitude(rho0)


@pytest.fixture
def calls(monkeypatch):
    counts = {"decompose_path": 0, "incoherent_part_path": 0}
    for module, name in ((bundle, "decompose_path"), (dynamics, "incoherent_part_path")):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    # the operator stacks each call rotates into eigenframe coordinates
    counts["in_eigenframe"] = []
    original_rotate = bundle.SpectralPath.in_eigenframe

    def rotate_spy(self, ops):
        counts["in_eigenframe"].append(ops)
        return original_rotate(self, ops)

    monkeypatch.setattr(bundle.SpectralPath, "in_eigenframe", rotate_spy)
    return counts


def rotations_of(calls, ops):
    """Sample counts of the rotated stacks taken from ops."""
    return [len(seen) for seen in calls["in_eigenframe"] if np.shares_memory(seen, ops)]


class TestOncePerCall:
    def test_holonomy(self, calls):
        states, _, w0 = qubit_run()
        bundle.holonomy(states, w0)
        assert calls["decompose_path"] == 1

    def test_check_isoholonomic(self, calls):
        states, _, w0 = qubit_run()
        invariants.check_isoholonomic(states, w0)
        assert calls["decompose_path"] == 1

    def test_speed_limit(self, calls):
        states, sched, w0 = qubit_run()
        dynamics.speed_limit(states, sched, w0)
        assert calls["decompose_path"] == 1
        # the orbit's own constant drive: one schedule sample carries every sample
        assert rotations_of(calls, sched.samples) == [1]
        assert calls["incoherent_part_path"] == 0

    def test_qubit_demo(self, calls, capsys):
        assert cli.main(["qubit-demo", "--n3", "0.6"]) == 0
        assert calls["decompose_path"] == 1
        rows = {row["quantity"]: row["numeric"] for row in json.loads(capsys.readouterr().out)["rows"]}
        # the same numbers as the two stand-alone reports on the run the demo builds
        states, sched, w0 = qubit_run(2001)
        iso = invariants.check_isoholonomic(states, w0)
        speed = dynamics.speed_limit(states, sched, w0)
        assert [rows["theta_0"], rows["theta_1"]] == iso.phases.flat().tolist()
        assert (rows["iHB"], rows["L"]) == (iso.ihb, iso.length)
        assert (rows["delta_E"], rows["bound"], rows["margin"]) == (speed.delta_e, speed.bound, speed.margin)

    def test_verify_saturation(self, calls):
        # synthesize takes its drive's coherent part from split_hamiltonian; count the check alone
        plan = saturating_plan()
        calls.update(decompose_path=0, incoherent_part_path=0, in_eigenframe=[])
        synthesis.verify_saturation(plan)
        assert calls["decompose_path"] == 1
        assert rotations_of(calls, plan.schedule.samples) == [plan.schedule.grid.n]
        assert calls["incoherent_part_path"] == 0


class TestClosedLoop:
    def test_record_matches_parts(self):
        states, _, w0 = qubit_run()
        loop = bundle.closed_loop(states, w0)
        assert loop.curve is states
        assert loop.path.m == (1, 1)
        assert np.array_equal(loop.holonomy.u, bundle.holonomy(states, w0).u)
        report = invariants.iso_report(loop)
        assert np.array_equal(report.holonomy.u, loop.holonomy.u)
        assert report.length == invariants.check_isoholonomic(states, w0).length

    def test_speed_report_rejects_other_interval(self):
        states, sched, w0 = qubit_run()
        longer = dynamics.HamiltonianSchedule(grid=TimeGrid(tau=2.0, n=sched.grid.n), samples=sched.samples)
        with pytest.raises(GridMismatch):
            dynamics.speed_report(bundle.closed_loop(states, w0), longer)


def scanned_holonomy(curve, w0):
    """Blockwise SVD polar factor of W0^+ W_tau, W_tau the last sample of the scanned lift."""
    raw = linalg.pinv(w0.w) @ bundle.horizontal_lift(curve, w0).samples[-1]
    u = np.zeros_like(raw)
    for lo, hi in w0.basis.blocks:
        a, _, bh = np.linalg.svd(raw[lo:hi, lo:hi])
        u[lo:hi, lo:hi] = a @ bh
    return u


# (p, m, dim) of spectrum-varying loops with a degenerate block or a kernel
WOBBLE_CASES = [((0.6, 0.4), (1, 1), 3), ((0.4, 0.2), (2, 1), 3), ((0.5, 0.25), (1, 2), 4)]


class TestEndpointReduction:
    @pytest.mark.parametrize("p, m, dim", WOBBLE_CASES, ids=["m11", "m21", "m12"])
    def test_matches_scanned_lift(self, rng, p, m, dim):
        curve, rho0 = wobble_loop(rng, p, m, dim, nsamp=801)
        w0 = bundle.canonical_amplitude(rho0)
        loop = bundle.closed_loop(curve, w0)
        assert np.max(np.abs(loop.holonomy.u - scanned_holonomy(curve, w0))) <= 1e-12
        end = bundle.lift_endpoint(curve, loop.path, w0)
        assert np.max(np.abs(end - bundle.horizontal_lift(curve, w0).samples[-1])) <= 1e-12

    def test_synthesized_plan(self):
        rho = synthesis.embedded_state(np.diag([0.5, 0.25, 0.25]).astype(complex), 6)
        target = bundle.GaugeElement(u=np.diag(np.exp(TWO_PI * 1j * np.array([0.45, 0.93, 0.18]))), basis=rho.basis)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=1.0, ambient_dim=6)
        assert plan.rho.m == (1, 2)
        states = plan.exact_states()
        assert np.max(np.abs(bundle.holonomy(states, plan.w).u - scanned_holonomy(states, plan.w))) <= 1e-12

    def test_no_scan_and_no_overlap_svd(self, rng, monkeypatch):
        curve, rho0 = wobble_loop(rng, (0.5, 0.25), (1, 2), 4, nsamp=801)
        w0 = bundle.canonical_amplitude(rho0)
        scans, svd_shapes = [], []
        scan, svd = linalg.ordered_products, np.linalg.svd

        def scan_spy(*args, **kwargs):
            scans.append(args[0].shape)
            return scan(*args, **kwargs)

        def svd_spy(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "ordered_products", scan_spy)
        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        bundle.closed_loop(curve, w0)
        assert scans == []
        assert [shape for shape in svd_shapes if shape[0] == curve.grid.n - 1] == []
        # the spies see the lift, which still scans every block
        bundle.horizontal_lift(curve, w0)
        assert scans == [(800, 1, 1), (800, 2, 2)]


def plan_orbit(rng, nsamp, p=(0.5, 0.25), m=(1, 2), dim=6):
    """A synthesized plan's exact_states orbit (its generator broadcast), with
    the plan; m = (1, 2) gives a 2x2 transport block."""
    rho = rand_state(rng, p, m, dim)
    plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                                ambient_dim=dim, n_samples=nsamp)
    return plan.exact_states(), plan


def nudged_qubit_run(nsamp=401):
    """The qubit run of a schedule with one diagonal entry of one sample one
    ulp off: no longer constant bitwise, so every sample takes its own route."""
    states, sched, w0 = qubit_run(nsamp)
    samples = np.array(sched.samples)
    samples[nsamp // 2, 0, 0] = np.nextafter(samples[nsamp // 2, 0, 0].real, np.inf)
    nudged = dynamics.HamiltonianSchedule(grid=sched.grid, samples=samples)
    return dynamics.evolve(states.start, nudged)[1], nudged, w0


class TestConstantDrive:
    """An orbit whose Hamiltonians all equal the first bitwise forms one
    transport overlap per block and raises its step to the power N - 1, and
    its speed-limit report rotates one schedule sample when the schedule is
    its own drive; every other run works sample by sample."""

    @pytest.mark.parametrize("nsamp", [2, 3, 4, 5, 4001])
    @pytest.mark.parametrize("case", ["qubit", "plan-m12"])
    def test_power_endpoint_is_the_scanned_endpoint(self, rng, case, nsamp):
        # even and odd exponents N - 1 and the smallest powers: an exponent one off moves the endpoint by a step
        if case == "qubit":
            orbit, _, w0 = qubit_run(nsamp, n3=0.3)
        else:
            orbit, plan = plan_orbit(rng, nsamp)
            w0 = plan.w
        assert bundle._constant_drive(orbit)
        end = bundle.lift_endpoint(orbit, bundle.decompose_path(orbit), w0)
        assert np.max(np.abs(end - bundle.horizontal_lift(orbit, w0).samples[-1])) <= 1e-12

    def test_constant_drive_forms_one_overlap_per_block(self, rng, monkeypatch):
        orbit, sched, w0 = qubit_run(4001)
        _, plan = plan_orbit(rng, 4001)
        polar_sizes = stack_sizes(monkeypatch, "polar_unitary_stack")
        products = stack_sizes(monkeypatch, "total_product")
        dynamics.speed_limit(orbit, sched, w0)
        invariants.check_isoholonomic(orbit, w0)
        synthesis.verify_saturation(plan)
        # the lift-start heads, one step per block and the holonomy's re-unitarization
        assert polar_sizes and set(polar_sizes) == {1}
        assert products == []

    def test_varying_drive_works_per_sample(self, monkeypatch, calls):
        orbit, sched, w0 = nudged_qubit_run()
        assert not bundle._constant_drive(orbit)
        polar_sizes = stack_sizes(monkeypatch, "polar_unitary_stack")
        report = dynamics.speed_limit(orbit, sched, w0)
        assert rotations_of(calls, sched.samples) == [sched.grid.n]
        assert sched.grid.n - 1 in polar_sizes
        constant = dynamics.speed_limit(*qubit_run())
        assert np.max(np.abs(report.dh - constant.dh)) <= 1e-12

    def test_varying_orbit_against_its_first_drive_works_per_sample(self, calls):
        # a constant schedule equal to the first of a varying orbit's Hamiltonians: the two
        # stored samples agree, but the orbit's propagators need not commute with that H
        orbit, nudged, w0 = nudged_qubit_run()
        first = dynamics.HamiltonianSchedule.constant(nudged.samples[0], nudged.grid.tau, nudged.grid.n)
        dynamics.speed_limit(orbit, first, w0)
        assert rotations_of(calls, first.samples) == [nudged.grid.n]

    def test_other_schedule_works_per_sample(self, rng, calls):
        # an energy offset moves no state: a valid schedule for the orbit, but not its own drive
        orbit, sched, w0 = qubit_run()
        shifted = dynamics.HamiltonianSchedule(grid=sched.grid, samples=sched.samples + 0.5 * np.eye(2))
        own, other = dynamics.speed_limit(orbit, sched, w0), dynamics.speed_limit(orbit, shifted, w0)
        assert rotations_of(calls, sched.samples) == [1] and rotations_of(calls, shifted.samples) == [sched.grid.n]
        assert abs(other.bound - own.bound) <= 1e-12
        # a drive s_k rho_k that commutes with each state adds a varying incoherent part: every
        # sample counts, as on the plain curve of the same states
        bump = np.sin(TWO_PI * sched.grid.times)[:, None, None] * orbit.samples
        varying = dynamics.HamiltonianSchedule(grid=sched.grid, samples=sched.samples + bump)
        report, plain = dynamics.speed_limit(orbit, varying, w0), dynamics.speed_limit(plain_curve(orbit), varying, w0)
        assert np.ptp(report.dh_in) > 0.1 and np.max(np.abs(report.dh - plain.dh)) <= 1e-12
        assert abs(report.bound - plain.bound) <= 1e-12
        # a plan's orbit is driven by its generator, its schedule is the coherent drive
        orbit, plan = plan_orbit(rng, 401)
        assert bundle._constant_drive(orbit)
        dynamics.speed_limit(orbit, plan.schedule, plan.w)
        assert rotations_of(calls, plan.schedule.samples) == [plan.schedule.grid.n]

    def test_one_sample_report_matches_the_per_sample_report(self):
        orbit, sched, w0 = qubit_run(4001)
        one = dynamics.speed_limit(orbit, sched, w0)
        every = dynamics.speed_limit(plain_curve(orbit), sched, w0)
        for a, b in ((one.dh, every.dh), (one.dh_co, every.dh_co), (one.dh_in, every.dh_in)):
            assert a.shape == b.shape == (4001,)
            assert np.max(np.abs(a - b)) <= 1e-12
        assert abs(one.delta_e - every.delta_e) <= 1e-12 and abs(one.margin - every.margin) <= 1e-12
