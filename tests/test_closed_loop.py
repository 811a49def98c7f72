"""Each closed curve is decomposed and lifted once per call."""

import numpy as np
import pytest

from holonomy_lab import bundle, dynamics, invariants, spectra, synthesis
from qutil import qubit_axis

TWO_PI = 2.0 * np.pi


def qubit_run(nsamp=401):
    rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
    h = dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI)
    sched = dynamics.HamiltonianSchedule.constant(h, 1.0, nsamp)
    _, states = dynamics.evolve(rho0, sched)
    return states, sched, bundle.canonical_amplitude(rho0)


def saturating_plan():
    rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
    target = bundle.GaugeElement(
        u=np.diag(np.exp(1j * np.array([1.6 * np.pi, 0.4 * np.pi]))), basis=rho.basis)
    return synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=1.0, ambient_dim=4)


@pytest.fixture
def calls(monkeypatch):
    counts = {"decompose_path": 0, "incoherent_part_path": 0}
    for module, name in ((bundle, "decompose_path"), (dynamics, "incoherent_part_path")):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return counts


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

    def test_verify_saturation(self, calls):
        plan = saturating_plan()
        synthesis.verify_saturation(plan)
        assert calls["decompose_path"] == 1
        assert calls["incoherent_part_path"] == 1


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
