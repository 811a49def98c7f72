"""Each closed curve is decomposed and lifted once per call."""

import json

import numpy as np
import pytest

from holonomy_lab import bundle, cli, dynamics, invariants, spectra, synthesis
from holonomy_lab.curves import TimeGrid
from holonomy_lab.errors import GridMismatch
from qutil import qubit_axis

TWO_PI = 2.0 * np.pi


def qubit_run(nsamp=401, p0=0.7):
    rho0 = spectra.spectral_decompose(np.diag([p0, 1.0 - p0]).astype(complex))
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
    # the operator stacks each call rotates into eigenframe coordinates
    counts["in_eigenframe"] = []
    original_rotate = bundle.SpectralPath.in_eigenframe

    def rotate_spy(self, ops):
        counts["in_eigenframe"].append(ops)
        return original_rotate(self, ops)

    monkeypatch.setattr(bundle.SpectralPath, "in_eigenframe", rotate_spy)
    return counts


def rotations_of(calls, ops):
    return sum(seen is ops for seen in calls["in_eigenframe"])


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
        assert rotations_of(calls, sched.samples) == 1
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
        plan = saturating_plan()
        synthesis.verify_saturation(plan)
        assert calls["decompose_path"] == 1
        assert rotations_of(calls, plan.schedule.samples) == 1
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
