"""Each input is checked once, where it enters: Hermiticity of a state curve
when it is decomposed, of a schedule when it is built, of a single matrix at
its entry point; the stack kernels re-check nothing the library built from
checked data, and a unitary orbit, Hermitian by construction, is neither
checked nor eigendecomposed. speed_report checks that a run and its schedule
cover one interval, horizontal_lift checks its lift start, and synthesize
checks its amplitude with the same lift-start check."""

import numpy as np
import pytest

from holonomy_lab import bundle, cli, dynamics, invariants, serialize, spectra, synthesis
from holonomy_lab.curves import OperatorCurve, TimeGrid
from holonomy_lab.errors import DegeneracyMismatch, EndpointMismatch, GridMismatch, NonHermitian
from qutil import plain_curve, precessing_qubit_curve, qubit_axis, saturating_plan, stack_sizes

TWO_PI = 2.0 * np.pi


def qubit_state(p0=0.7):
    return spectra.spectral_decompose(np.diag([p0, 1.0 - p0]).astype(complex))


def qubit_run(nsamp=201):
    rho0 = qubit_state()
    sched = dynamics.HamiltonianSchedule.constant(dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1.0, nsamp)
    _, states = dynamics.evolve(rho0, sched)
    return states, sched, bundle.canonical_amplitude(rho0)


@pytest.fixture
def herm_checks(monkeypatch):
    """Sizes of the stacks check_hermitian_stack sees."""
    return stack_sizes(monkeypatch, "check_hermitian_stack")


@pytest.fixture
def eig_stacks(monkeypatch):
    """Sizes of the stacks hermitian_eig_stack sees."""
    return stack_sizes(monkeypatch, "hermitian_eig_stack")


class TestHermiticityOnce:
    def test_evolve_constant(self, herm_checks):
        rho0 = qubit_state()
        sched = dynamics.HamiltonianSchedule.constant(dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1.0, 201)
        herm_checks.clear()
        dynamics.evolve(rho0, sched)
        assert herm_checks == []

    def test_evolve_time_varying(self, herm_checks):
        rho0 = qubit_state()
        ts = np.linspace(0.0, 1.0, 201)
        samples = np.array([dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI * (1.0 + t)) for t in ts])
        herm_checks.clear()
        sched = dynamics.HamiltonianSchedule(grid=TimeGrid(tau=1.0, n=201), samples=samples)
        assert herm_checks == [201]  # the schedule's one check, where it is built
        herm_checks.clear()
        dynamics.evolve(rho0, sched)
        assert herm_checks == []

    def test_check_isoholonomic(self, herm_checks):
        states, _, w0 = qubit_run()
        curve = plain_curve(states)
        herm_checks.clear()
        invariants.check_isoholonomic(curve, w0)
        assert herm_checks == [201]

    def test_speed_limit(self, herm_checks):
        states, sched, w0 = qubit_run()
        curve = plain_curve(states)
        herm_checks.clear()
        dynamics.speed_limit(curve, sched, w0)
        assert herm_checks == [201]

    def test_verify_saturation(self, herm_checks):
        # verify_saturation reads the propagators of the plan's orbit, so its
        # analysis, closed_loop and iso_report, takes the plan's trajectory as
        # a plain curve here
        plan = saturating_plan()
        curve = plain_curve(plan.exact_states())
        herm_checks.clear()
        invariants.iso_report(bundle.closed_loop(curve, plan.w))
        # the state curve's one check
        assert [n for n in herm_checks if n > 1] == [plan.schedule.grid.n]


def orbit_entry_points():
    """(name, call) of each entry point that takes a unitary orbit, with its
    inputs built up front."""
    states, sched, w0 = qubit_run()
    plan = saturating_plan()
    return [
        ("check_isoholonomic", lambda: invariants.check_isoholonomic(states, w0)),
        ("speed_limit", lambda: dynamics.speed_limit(states, sched, w0)),
        ("verify_saturation", lambda: synthesis.verify_saturation(plan)),
    ]


def test_orbit_is_neither_checked_nor_decomposed(herm_checks, eig_stacks):
    """The unitary orbits evolve and exact_states return skip the curve check
    and the eigendecomposition of their samples; single matrices (the
    generator, the holonomy's eigenbasis) still go through both."""
    for name, call in orbit_entry_points():
        herm_checks.clear()
        eig_stacks.clear()
        call()
        assert [n for n in herm_checks if n > 1] == [], name
        assert [n for n in eig_stacks if n > 1] == [], name


def synthesize_from(states, w0):
    """synthesize at the first state of a qubit curve; the lift-start check
    runs before the ambient dimension is looked at."""
    rho = spectra.spectral_decompose(states.samples[0])
    target = bundle.GaugeElement(u=np.diag(np.exp(1j * np.array([1.0, 2.0]))), basis=rho.basis)
    return synthesis.synthesize(rho, w0, target, tau=1.0, ambient_dim=4)


class TestUnitaryLiftChecks:
    def test_other_interval(self):
        states, sched, w0 = qubit_run()
        longer = dynamics.HamiltonianSchedule(grid=TimeGrid(tau=2.0, n=sched.grid.n), samples=sched.samples)
        with pytest.raises(GridMismatch, match="different intervals"):
            dynamics.speed_limit(states, longer, w0)

    def test_foreign_start(self):
        states, _, w0 = qubit_run()
        c, s = np.cos(0.25), np.sin(0.25)
        foreign = bundle.Amplitude(w=np.array([[c, -s], [s, c]]) @ w0.w, basis=w0.basis)
        for lift in (lambda: bundle.horizontal_lift(states, foreign),
                     lambda: synthesize_from(states, foreign)):
            with pytest.raises(EndpointMismatch, match=r"W0 projects 1\.4\d+e-01 away"):
                lift()

    def test_other_degeneracy(self):
        states, _, _ = qubit_run()
        flat = bundle.canonical_amplitude(spectra.spectral_decompose(0.5 * np.eye(2, dtype=complex)))
        for lift in (lambda: bundle.horizontal_lift(states, flat),
                     lambda: synthesize_from(states, flat)):
            with pytest.raises(DegeneracyMismatch, match=r"m=\(2,\), curve has m=\(1, 1\)"):
                lift()


def test_split_hamiltonian_rejects_non_hermitian():
    with pytest.raises(NonHermitian, match="Hermiticity deviation"):
        dynamics.split_hamiltonian([[0.0, 1.0], [0.0, 0.0]], qubit_state())


class TestStateCurveBoundary:
    """A closed qubit curve, N = 201, with 1e-6 added to one off-diagonal
    entry of sample 37: every entry point names the sample."""

    @pytest.fixture
    def curve(self):
        clean = precessing_qubit_curve(0.6, TWO_PI, 0.7, 201)
        samples = clean.samples.copy()
        samples[37, 0, 1] += 1e-6
        return OperatorCurve(grid=clean.grid, samples=samples)

    def test_check_isoholonomic(self, curve):
        with pytest.raises(NonHermitian, match="^sample 37: "):
            invariants.check_isoholonomic(curve, bundle.canonical_amplitude(qubit_state()))

    def test_horizontal_lift(self, curve):
        with pytest.raises(NonHermitian, match="^sample 37: "):
            bundle.horizontal_lift(curve, bundle.canonical_amplitude(qubit_state()))

    def test_speed_limit(self, curve):
        _, sched, w0 = qubit_run()
        with pytest.raises(NonHermitian, match="^sample 37: "):
            dynamics.speed_limit(curve, sched, w0)

    def test_cli_check(self, curve, tmp_path, capsys):
        path = tmp_path / "c.json"
        serialize.write_json(path, serialize.curve_to_json(curve))
        assert cli.main(["check", str(path)]) == 1
        assert "sample 37" in capsys.readouterr().err
