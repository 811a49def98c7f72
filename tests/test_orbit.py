"""A unitary run carries its spectral path and its Hamiltonians:
decompose_path reads a UnitaryOrbit's eigenframes U_k F_0 and its start's
values instead of eigendecomposing the samples, and agrees with the
eigendecomposition route on a plain curve holding the same samples; its
length comes from the exact tangents -i[H, rho], a plain curve's from finite
differences. Every curve operation returns a plain curve, which takes the
eigendecomposition route again."""

import numpy as np
import pytest

from holonomy_lab import bundle, curves, dynamics, invariants, linalg, serialize, spectra, synthesis
from holonomy_lab.curves import OperatorCurve, UnitaryOrbit
from holonomy_lab.errors import MultiplicityChange, NonFinite, OutOfRange
from qutil import per_sample_speeds_sq, plain_curve, qubit_axis, rand_gauge, rand_state, stack_sizes

TWO_PI = 2.0 * np.pi


def qubit_run(p=(0.7, 0.3), nsamp=401):
    rho0 = spectra.spectral_decompose(np.diag(p).astype(complex))
    sched = dynamics.HamiltonianSchedule.constant(dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1.0, nsamp)
    _, states = dynamics.evolve(rho0, sched)
    return states, sched, bundle.canonical_amplitude(rho0)


def plan_run(rng, p, m, dim):
    rho = rand_state(rng, p, m, dim)
    plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                                ambient_dim=dim)
    return plan.exact_states(), plan.schedule, plan.w, plan.ihb


# (p, m, dim) of the synthesized plans; the last two have a degenerate block
# and a kernel
PLANS = {
    "pure-2": ((1.0,), (1,), 2),
    "m11-4": ((0.7, 0.3), (1, 1), 4),
    "m12-6": ((0.5, 0.25), (1, 2), 6),
    "m22-8": ((0.3, 0.2), (2, 2), 8),
}


def block_projectors(spath):
    """(N, n, n) projectors onto each support block and the kernel."""
    ranges = spath.blocks + [(spath.rank, spath.frames.shape[1])]
    return [spath.frames[:, :, lo:hi] @ np.conj(np.swapaxes(spath.frames[:, :, lo:hi], 1, 2))
            for lo, hi in ranges if hi > lo]


@pytest.mark.parametrize("case", ["qubit-evolve"] + sorted(PLANS))
def test_orbit_route_matches_eigh_route(case, rng):
    """Both routes give one holonomy, iHB and speed-limit bound; the orbit's
    length is exact, the closed form of the qubit or the bound of the plan.
    On a plan, whose speed is constant, the plain route's finite-difference
    length meets the bound too."""
    if case == "qubit-evolve":
        orbit, sched, w0 = qubit_run()
        exact = dynamics.qubit_reference(qubit_axis(0.6), TWO_PI, 0.7).length
    else:
        orbit, sched, w0, exact = plan_run(rng, *PLANS[case])
    assert type(orbit) is UnitaryOrbit
    fast, slow = bundle.closed_loop(orbit, w0), bundle.closed_loop(plain_curve(orbit), w0)
    assert fast.path.m == slow.path.m and fast.path.blocks == slow.path.blocks
    assert linalg.frob(fast.holonomy.u - slow.holonomy.u) <= 1e-12
    for pf, ps in zip(block_projectors(fast.path), block_projectors(slow.path), strict=True):
        assert np.max(np.abs(pf - ps)) <= 1e-12
    iso_fast, iso_slow = invariants.iso_report(fast), invariants.iso_report(slow)
    assert abs(iso_fast.length - exact) <= 1e-12
    if case != "qubit-evolve":
        assert abs(iso_slow.length - exact) <= 1e-12
    assert abs(iso_fast.ihb - iso_slow.ihb) <= 1e-12
    assert abs(dynamics.speed_report(fast, sched).bound - dynamics.speed_report(slow, sched).bound) <= 1e-12


def test_gap_rule_holds_on_both_routes():
    """Blocks 5e-9 apart are two blocks for spectral_decompose (GAP_TOL) but
    too close for a path (10x GAP_TOL): both routes refuse the run."""
    orbit, sched, w0 = qubit_run(p=(0.5 + 2.5e-9, 0.5 - 2.5e-9), nsamp=201)
    assert orbit.start.m == (1, 1)
    for curve in (orbit, plain_curve(orbit)):
        with pytest.raises(MultiplicityChange, match="^inter-block gap closes along the curve$"):
            dynamics.speed_limit(curve, sched, w0)


class TestIntegrity:
    def test_read_only(self):
        orbit, _, _ = qubit_run()
        for array in (orbit.samples, orbit.propagators, orbit.hamiltonians):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 0.0

    def test_caller_array_left_writable(self):
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        props = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
        hs = np.zeros((5, 2, 2), dtype=complex)
        orbit = UnitaryOrbit(grid=curves.TimeGrid(tau=1.0, n=5), propagators=props, start=rho0, hamiltonians=hs)
        assert props.flags.writeable and not orbit.propagators.flags.writeable
        assert hs.flags.writeable and not orbit.hamiltonians.flags.writeable
        assert np.array_equal(orbit.samples, np.broadcast_to(rho0.matrix, (5, 2, 2)))

    def test_hamiltonians_are_required_and_match_the_propagators(self):
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        props = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2))
        grid = curves.TimeGrid(tau=1.0, n=5)
        with pytest.raises(TypeError, match="hamiltonians"):
            UnitaryOrbit(grid=grid, propagators=props, start=rho0)
        for hs in (np.zeros((4, 2, 2)), np.zeros((2, 2)), np.zeros((5, 3, 3))):
            with pytest.raises(ValueError, match="does not match propagators shape"):
                UnitaryOrbit(grid=grid, propagators=props, start=rho0, hamiltonians=hs)

    def test_no_orbit_without_propagators(self):
        orbit, _, _ = qubit_run()
        with pytest.raises(TypeError):
            UnitaryOrbit.from_samples(1.0, orbit.samples)

    def test_curve_operations_return_plain_curves(self):
        orbit, _, _ = qubit_run()
        made = [
            curves.reverse(orbit),
            curves.concatenate(orbit, orbit),
            serialize.curve_from_json(serialize.curve_to_json(orbit)),
        ]
        assert [type(c) for c in made] == [OperatorCurve] * len(made)

    def test_reversed_orbit_is_eigendecomposed(self, monkeypatch):
        orbit, _, _ = qubit_run()
        sizes = stack_sizes(monkeypatch, "hermitian_eig_stack")
        bundle.decompose_path(orbit)
        assert sizes == []
        bundle.decompose_path(curves.reverse(orbit))
        assert sizes == [orbit.grid.n]


class TestLength:
    """An orbit's length is the exact lift of its tangents; a plain curve's
    comes from finite differences. Each curve takes one route."""

    @pytest.mark.parametrize("nsamp", [5, 11, 21, 2001])
    @pytest.mark.parametrize("n3", [0.1, 0.5, 0.9])
    def test_orbit_length_is_the_closed_form(self, n3, nsamp):
        ref = dynamics.qubit_reference(qubit_axis(n3), TWO_PI, 0.7)
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        _, orbit = dynamics.evolve(rho0, dynamics.HamiltonianSchedule.constant(ref.hamiltonian, ref.tau, nsamp))
        length = invariants.check_isoholonomic(orbit, bundle.canonical_amplitude(rho0)).length
        assert abs(length - ref.length) <= 1e-12

    def test_orbit_never_differentiates_its_samples(self, monkeypatch):
        orbit, _, w0 = qubit_run()

        def refuse(*args, **kwargs):
            raise AssertionError("finite differences taken")

        monkeypatch.setattr(bundle, "grid_derivative", refuse)
        invariants.check_isoholonomic(orbit, w0)
        with pytest.raises(AssertionError, match="finite differences taken"):
            invariants.check_isoholonomic(plain_curve(orbit), w0)


def qubit_orbit(n3, nsamp, omega=TWO_PI):
    ref = dynamics.qubit_reference(qubit_axis(n3), omega, 0.7)
    rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
    _, orbit = dynamics.evolve(rho0, dynamics.HamiltonianSchedule.constant(ref.hamiltonian, ref.tau, nsamp))
    return orbit, ref


def lift_sizes(monkeypatch) -> list:
    """Sample counts of the tangent stacks bundle.lift_tangents sees from now on."""
    sizes = []
    lift_tangents = bundle.lift_tangents

    def spy(spath, tangents, tangent_tol):
        sizes.append(len(tangents))
        return lift_tangents(spath, tangents, tangent_tol)

    monkeypatch.setattr(bundle, "lift_tangents", spy)
    return sizes


class TestConstantDrive:
    """An orbit whose Hamiltonians store one sample (a constant schedule's
    broadcast) moves at one speed, since its propagators commute with H: its
    speeds lift sample 0 alone and equal the lift at every sample. Any other
    orbit lifts every sample."""

    @staticmethod
    def assert_speeds_match(orbit, exact):
        spath = bundle.decompose_path(orbit)
        sq, ref = bundle.curve_speeds_sq(orbit, spath), per_sample_speeds_sq(orbit, spath)
        assert sq.shape == ref.shape and np.all(np.abs(sq - ref) <= 1e-12 * ref)
        assert abs(invariants.curve_length_energy(orbit)[0] - exact) <= 1e-12

    @pytest.mark.parametrize("nsamp", [3, 5, 201, 4001])
    @pytest.mark.parametrize("n3", [0.1, 0.5, 0.9])
    def test_qubit_speeds_are_the_per_sample_lift(self, n3, nsamp):
        orbit, ref = qubit_orbit(n3, nsamp)
        self.assert_speeds_match(orbit, ref.length)

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_plan_speeds_are_the_per_sample_lift(self, case, rng):
        orbit, _, _, ihb = plan_run(rng, *PLANS[case])
        self.assert_speeds_match(orbit, ihb)

    def test_constant_drive_lifts_one_sample(self, rng, monkeypatch):
        orbit, _, w0 = qubit_run(nsamp=4001)
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                                    ambient_dim=6)
        sizes = lift_sizes(monkeypatch)
        invariants.check_isoholonomic(orbit, w0)
        assert sizes == [1]
        synthesis.verify_saturation(plan)
        assert sizes == [1, 1]

    def test_varying_drive_lifts_every_sample(self, rng, monkeypatch):
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                                    ambient_dim=6)
        _, synthesized = dynamics.evolve(plan.rho, plan.schedule)
        # one diagonal entry of one sample one ulp off: no longer constant bitwise
        orbit, sched, _ = qubit_run()
        samples = np.array(sched.samples)
        samples[200, 0, 0] = np.nextafter(samples[200, 0, 0].real, np.inf)
        _, nudged = dynamics.evolve(orbit.start, dynamics.HamiltonianSchedule(grid=sched.grid, samples=samples))
        sizes = lift_sizes(monkeypatch)
        for curve in (synthesized, nudged):
            invariants.curve_length_energy(curve)
        assert sizes == [synthesized.grid.n, nudged.grid.n]

    def test_overflowing_speed_is_out_of_range(self):
        orbit, _ = qubit_orbit(0.5, 11, omega=1e155)
        with pytest.raises(OutOfRange, match=r"^tau = 6\.283e-155 overflows the curve's squared speeds$"):
            invariants.check_isoholonomic(orbit, bundle.canonical_amplitude(orbit.start))


# the four one-stored-sample routes: each runs on layout(stack), a broadcast stack of LAYOUT_N
# samples (steps, for the scan) or a full copy of it, and returns its output and what its spies saw
LAYOUT_N = 4001


def drive_steps(layout, monkeypatch):
    sched = qubit_run(nsamp=LAYOUT_N)[1]
    sizes = stack_sizes(monkeypatch, "propagator_step_stack")
    return dynamics._steps(layout(sched.samples), sched.grid.dt), [sizes]


def drive_lift(layout, monkeypatch):
    # bundle._constant_drive: the lifted speeds and lift_endpoint's power of one step
    orbit, _, w0 = qubit_run(nsamp=LAYOUT_N)
    orbit = UnitaryOrbit(grid=orbit.grid, propagators=orbit.propagators, start=orbit.start,
                         hamiltonians=layout(orbit.hamiltonians))
    spies = [lift_sizes(monkeypatch), stack_sizes(monkeypatch, "total_product")]
    report = invariants.check_isoholonomic(orbit, w0)
    return np.append(report.holonomy.u, report.length), spies


def eigenvalue_length(layout, monkeypatch):
    grid, values = curves.TimeGrid(tau=1.0, n=LAYOUT_N), np.broadcast_to([0.7, 0.3], (LAYOUT_N, 2))
    sizes = stack_sizes(monkeypatch, "grid_derivative", curves)
    return np.array(curves.fisher_rao(curves.ProbabilityPath(grid=grid, values=layout(values), m=(1, 1)))), [sizes]


def step_products(layout, monkeypatch):
    # the scan's products of one broadcast step count that step's rows
    steps = dynamics._steps(qubit_run(nsamp=LAYOUT_N)[1].samples, 1.0 / (LAYOUT_N - 1))
    sizes = stack_sizes(monkeypatch, "matmul_stack")
    return linalg.ordered_products(layout(steps)), [sizes]


@pytest.mark.parametrize("route", [drive_steps, drive_lift, eigenvalue_length, step_products],
                         ids=["dynamics._steps", "bundle._constant_drive", "curves.fisher_rao", "linalg._scan"])
def test_constant_is_a_layout(route, monkeypatch):
    """A constant is decided once, where a schedule is built, and stored as a
    broadcast (stride 0): each route takes its one-sample path on the broadcast
    alone, and a full copy equal value for value works on every sample, to the
    same numbers."""
    one, one_sizes = route(lambda stack: stack, monkeypatch)
    monkeypatch.undo()
    every, every_sizes = route(np.array, monkeypatch)
    for broadcast, full in zip(one_sizes, every_sizes):
        assert sum(broadcast) < LAYOUT_N - 1 <= sum(full)
    assert one.shape == every.shape and np.max(np.abs(one - every)) <= 1e-12


class TestStatesOnRead:
    """An orbit forms its state stack on the first read of .samples; its first
    and last states, its closure defect and every analysis of a unitary run
    form one state at a time."""

    def test_samples_are_the_hermitian_states(self, rng):
        orbit = plan_run(rng, *PLANS["m12-6"])[0]
        states = orbit.propagators @ orbit.start.matrix @ np.conj(np.swapaxes(orbit.propagators, -1, -2))
        assert np.array_equal(orbit.samples, 0.5 * (states + np.conj(np.swapaxes(states, -1, -2))))
        assert orbit.samples is orbit.samples  # formed once; TestIntegrity checks it read-only
        assert np.array_equal(orbit.initial, orbit.samples[0]) and np.array_equal(orbit.final, orbit.samples[-1])

    def test_runs_form_no_state_stack(self, rng, monkeypatch):
        sizes = []
        orbit_states = curves._orbit_states

        def spy(u, rho0):
            sizes.append(len(u))
            return orbit_states(u, rho0)

        monkeypatch.setattr(curves, "_orbit_states", spy)
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        sched = dynamics.HamiltonianSchedule.constant(dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1.0, 401)
        _, orbit = dynamics.evolve(rho0, sched)
        w0 = bundle.canonical_amplitude(rho0)
        dynamics.speed_limit(orbit, sched, w0)
        invariants.check_isoholonomic(orbit, w0)
        assert sizes and set(sizes) == {1}
        rho = rand_state(rng, (0.5, 0.25), (1, 2), 6)
        plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), rand_gauge(rng, rho.basis), tau=1.0,
                                    ambient_dim=6)
        sizes.clear()
        synthesis.verify_saturation(plan)
        assert sizes and set(sizes) == {1}
        orbit.samples
        assert sizes[-1] == orbit.grid.n

    def test_first_and_last_states_are_formed_once(self, monkeypatch):
        # closure_defect, _check_run and the lift start of both reports read them: 7 formations
        # without the cache
        sizes = []
        orbit_states = curves._orbit_states
        monkeypatch.setattr(curves, "_orbit_states", lambda u, rho0: sizes.append(len(u)) or orbit_states(u, rho0))
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        sched = dynamics.HamiltonianSchedule.constant(dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1.0, 401)
        _, orbit = dynamics.evolve(rho0, sched)
        w0 = bundle.canonical_amplitude(rho0)
        dynamics.speed_limit(orbit, sched, w0)
        invariants.check_isoholonomic(orbit, w0)
        assert sizes == [1, 1]
        assert not orbit.initial.flags.writeable and not orbit.final.flags.writeable

    @pytest.mark.parametrize("field", ["propagators", "hamiltonians"])
    def test_non_finite_sample_is_named(self, field):
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        stacks = {"propagators": np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy(),
                  "hamiltonians": np.zeros((5, 2, 2), dtype=complex)}
        stacks[field][3, 1, 0] = np.nan
        with pytest.raises(NonFinite, match="^sample 3 has non-finite entries$"):
            UnitaryOrbit(grid=curves.TimeGrid(tau=1.0, n=5), start=rho0, **stacks)

    def test_broadcast_hamiltonians_are_checked_at_sample_0(self):
        # Hamiltonians broadcast over the grid hold one matrix, named at sample 0; the full
        # propagator stack beside them is still read whole
        rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        props = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
        props[3, 1, 0] = np.nan
        for h, first in ((np.zeros((2, 2)), 3), (np.diag([np.nan, 0.0]), 0)):
            with pytest.raises(NonFinite, match=f"^sample {first} has non-finite entries$"):
                UnitaryOrbit(grid=curves.TimeGrid(tau=1.0, n=5), start=rho0, propagators=props,
                             hamiltonians=np.broadcast_to(h.astype(complex), (5, 2, 2)))
