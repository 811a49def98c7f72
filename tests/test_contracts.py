"""The numerical contracts fire: a fault planted behind a checked guarantee
ends in SaturationFailed or ContractViolation (exit 2), naming its size."""

import json

import numpy as np
import pytest

from holonomy_lab import bundle, cli, dynamics, invariants, linalg, serialize, spectra, synthesis
from holonomy_lab.errors import BoundViolated, ContractViolation, SaturationFailed
from qutil import plan_propagators, qubit_axis, saturating_plan, wobble_loop


def synthesize_exits_two(tmp_path, monkeypatch, capsys, plan, message):
    """The synthesize command, handed plan in place of its own, exits 2 with message."""
    state, target = tmp_path / "s.json", tmp_path / "u.json"
    serialize.write_json(state, serialize.state_to_json(np.diag([0.7, 0.3]).astype(complex)))
    serialize.write_json(target, serialize.unitary_to_json(plan.target))
    monkeypatch.setattr(synthesis, "synthesize", lambda *args, **kwargs: plan)
    assert cli.main(["synthesize", str(state), str(target), "--tau", repr(plan.tau), "--ambient-dim", "4",
                     "--out", str(tmp_path / "plan")]) == 2
    assert message in capsys.readouterr().err


def test_incoherent_drive_is_caught():
    # eps I commutes with every state: the re-integrated states, the holonomy
    # and the length pass, and only the incoherent mass eps |I|_F = 2 eps shows
    plan = saturating_plan()
    shifted = dynamics.HamiltonianSchedule(grid=plan.schedule.grid,
                                           samples=plan.schedule.samples + 1e-9 * np.eye(4))
    broken = synthesis.SaturatingPlan(rho=plan.rho, w=plan.w, target=plan.target, tau=plan.tau,
                                      loops=plan.loops, generator=plan.generator, schedule=shifted)
    with pytest.raises(SaturationFailed, match=r"drive has incoherent mass 2\.000e-09"):
        synthesis.verify_saturation(broken)


def second_half_plan(plant):
    """The saturating plan driven by plant(samples, bump), bump = sin^2(2 pi t / tau) on the
    second half of the grid and 0 before it: 0 at both ends and at the middle, 1 at 3 tau / 4."""
    plan = saturating_plan()
    t = plan.schedule.grid.times / plan.tau
    bump = np.where(t >= 0.5, np.sin(2.0 * np.pi * t) ** 2, 0.0)
    planted = dynamics.HamiltonianSchedule(grid=plan.schedule.grid, samples=plant(plan.schedule.samples, bump))
    return synthesis.SaturatingPlan(rho=plan.rho, w=plan.w, target=plan.target, tau=plan.tau,
                                    loops=plan.loops, generator=plan.generator, schedule=planted)


@pytest.mark.parametrize("plant, message", [
    (lambda hs, bump: hs + 1e-9 * bump[:, None, None] * np.eye(4), "drive has incoherent mass 2.000e-09"),
    (lambda hs, bump: (1.0 + 2e-6 * bump)[:, None, None] * hs, "energy uncertainty varies by 5.027e-06"),
], ids=["incoherent_drive", "dh_ripple"])
def test_second_half_defects_exit_two(tmp_path, monkeypatch, capsys, plant, message):
    # unlike the uniform defects above, these touch neither end of the run: a check
    # that reads its first or its last sample alone would pass them. An incoherent
    # eps I moves no state; the 2e-6 ripple moves them by less than SAT_INTEGRATION_TOL
    broken = second_half_plan(plant)
    with pytest.raises(SaturationFailed, match=message):
        synthesis.verify_saturation(broken)
    synthesize_exits_two(tmp_path, monkeypatch, capsys, broken, message)


def scaled_plan():
    # a schedule 1e-4 too strong turns the re-integrated run off the trajectory
    plan = saturating_plan()
    scaled = dynamics.HamiltonianSchedule(grid=plan.schedule.grid, samples=(1.0 + 1e-4) * plan.schedule.samples)
    return synthesis.SaturatingPlan(rho=plan.rho, w=plan.w, target=plan.target, tau=plan.tau,
                                    loops=plan.loops, generator=plan.generator, schedule=scaled)


def test_scaled_schedule_fails_to_regenerate_the_trajectory(tmp_path, monkeypatch, capsys):
    message = "schedule fails to regenerate the trajectory by 1.435e-04"
    broken = scaled_plan()
    with pytest.raises(SaturationFailed, match=message):
        synthesis.verify_saturation(broken)
    synthesize_exits_two(tmp_path, monkeypatch, capsys, broken, message)
    # the defect is the plant's: the closed form of the scaled schedule has the reported defect,
    # up to the integrator's own error (max|U - U_exact| of evolve on the unscaled plan)
    planned = broken.exact_states().propagators
    reported = synthesis._integration_defect(broken.rho, broken.schedule, planned)

    def states(props):
        return props @ broken.rho.matrix @ np.conj(np.swapaxes(props, -1, -2))

    exact = np.sqrt(np.max(linalg.stack_sq_norms(states(plan_propagators(broken)) - states(planned))))
    plan = saturating_plan()
    own = np.max(np.abs(dynamics.evolve(plan.rho, plan.schedule)[0].samples - plan_propagators(plan)))
    assert abs(reported - exact) <= own


def planted(monkeypatch, module, name, defect):
    """Replace module.name by the function whose result is defect(module.name's result)."""
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: defect(fn(*args)))


@pytest.mark.parametrize("tau", [1.0, 1e-3, 1e3])
@pytest.mark.parametrize("plant, message", [
    (lambda mp: planted(mp, bundle, "curve_speeds_sq", lambda sq: (1.0 + 2e-4) * sq),
     "length differs from the bound by 2.513e-04"),
    (lambda mp: planted(mp, dynamics, "speed_bound", lambda eb: ((1.0 + 1e-4) * eb[0], eb[1])),
     "tau Delta E misses the length by 2.513e-04"),
    (lambda mp: planted(mp, dynamics, "speed_bound", lambda eb: (eb[0], (1.0 + 1e-4) * eb[1])),
     "speed limit not saturated, gap 1.000e-04"),
], ids=["length", "energy", "bound_gap"])
def test_planted_length_and_energy_defects_exit_two(tmp_path, monkeypatch, capsys, plant, message, tau):
    # each defect sits in the method and reaches its own check first, at every tau: squared
    # speeds 2e-4 long make the length L = 0.8 pi 1e-4 longer than iHB, a Delta E 1e-4 high
    # makes tau Delta E as much longer than L while Delta H (the drive's check) is untouched,
    # and a bound 1e-4 high puts the speed-limit time 1e-4 tau past tau
    plan = saturating_plan(tau)
    plant(monkeypatch)
    with pytest.raises(SaturationFailed, match=message):
        synthesis.verify_saturation(plan)
    synthesize_exits_two(tmp_path, monkeypatch, capsys, plan, message)


def test_inflated_fisher_rao_length_breaks_the_strong_inequality(tmp_path, monkeypatch, capsys, rng):
    # alpha just below the block means keeps the loop in range; L_FR 1e3 times longer, plus 10,
    # outgrows L^2 - IHB_alpha^2 while the weak inequality, which has no L_FR, still holds
    curve, _ = wobble_loop(rng, (0.5, 0.25), (1, 2), 4, nsamp=401)
    path = tmp_path / "c.json"
    serialize.write_json(path, serialize.curve_to_json(curve))
    alpha = ",".join(map(repr, (bundle.decompose_path(curve).block_means().min(axis=0) - 1e-6).tolist()))
    assert cli.main(["check", str(path), "--alpha", alpha]) == 0
    assert json.loads(capsys.readouterr().out)["strong_slack"] > 30.0
    planted(monkeypatch, invariants, "fisher_rao", lambda le: (1e3 * le[0] + 10.0, le[1]))
    assert cli.main(["check", str(path), "--alpha", alpha]) == 2
    assert "strong inequality violated by 2.463e+03" in capsys.readouterr().err


def test_scaled_lift_breaks_the_speed_identity(monkeypatch, capsys):
    # lifts 1e-3 too long square to speeds 2.001e-3 off the coherent variance
    lift_tangents = bundle.lift_tangents
    monkeypatch.setattr(bundle, "lift_tangents", lambda *args: (1.0 + 1e-3) * lift_tangents(*args))
    assert cli.main(["qubit-demo", "--n3", "0.6"]) == 2
    assert "speed identity violated by 2.001e-03" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [2e-6 * np.pi, 2e-3 * np.pi, 2e3 * np.pi])
def test_speed_identity_holds_in_any_unit_of_time(monkeypatch, capsys, omega):
    # the identity is relative to the run's largest coherent variance, which scales as omega^2:
    # a sound run passes and the same 1e-3 longer lifts fail by the same amount at every omega
    args = ["qubit-demo", "--n3", "0.6", "--omega", repr(omega)]
    assert cli.main(args) == 0
    lift_tangents = bundle.lift_tangents
    monkeypatch.setattr(bundle, "lift_tangents", lambda *args: (1.0 + 1e-3) * lift_tangents(*args))
    assert cli.main(args) == 2
    assert "speed identity violated by 2.001e-03" in capsys.readouterr().err


def short_speeds(monkeypatch):
    # squared speeds 1e-3 short make lengths 5.0e-4 short of the bound, on the
    # one-sample route of a constant drive as on the per-sample one
    state_speeds_sq = bundle.state_speeds_sq
    monkeypatch.setattr(bundle, "state_speeds_sq", lambda *args: (1.0 - 1e-3) * state_speeds_sq(*args))


def test_short_orbit_speeds_undershoot_the_bound(monkeypatch):
    ref = dynamics.qubit_reference(qubit_axis(0.6), 2.0 * np.pi, 0.7)
    rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
    _, orbit = dynamics.evolve(rho0, dynamics.HamiltonianSchedule.constant(ref.hamiltonian, ref.tau, 2001))
    short_speeds(monkeypatch)
    with pytest.raises(BoundViolated, match="length undershoots the bound by 1.256e-03"):
        invariants.check_isoholonomic(orbit, bundle.canonical_amplitude(rho0))


def test_short_plan_speeds_exit_two(tmp_path, monkeypatch, capsys):
    plan = saturating_plan()
    state, target = tmp_path / "s.json", tmp_path / "u.json"
    serialize.write_json(state, serialize.state_to_json(np.diag([0.7, 0.3]).astype(complex)))
    serialize.write_json(target, serialize.unitary_to_json(plan.target))
    short_speeds(monkeypatch)
    assert cli.main(["synthesize", str(state), str(target), "--tau", "1.0", "--ambient-dim", "4",
                     "--out", str(tmp_path / "plan")]) == 2
    assert "length undershoots the bound by 1.257e-03" in capsys.readouterr().err


@pytest.mark.parametrize("tau, power", [(1.0, "04"), (1e-4, "08"), (1e-6, "10")])
@pytest.mark.parametrize("route", ["one-sample", "per-sample"])
def test_inflated_bound_breaks_the_margin_at_every_tau(monkeypatch, route, tau, power):
    # a bound 1e-3 too high puts the saturating plan's speed-limit time 1e-3 tau past tau, so
    # the margin test scales with tau: an absolute MARGIN_TOL passes it below tau = 1e-3
    rho = synthesis.embedded_state(np.diag([0.7, 0.3]).astype(complex), 4)
    target = bundle.GaugeElement(u=np.diag(np.exp(1j * np.array([1.6, 0.4]) * np.pi)), basis=rho.basis)
    plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=tau, ambient_dim=4)
    orbit = plan.exact_states()
    # the orbit's own generator (one-sample route) or the plan's coherent drive (per-sample route)
    sched = (dynamics.HamiltonianSchedule.constant(plan.generator, tau, orbit.grid.n) if route == "one-sample"
             else plan.schedule)
    assert 0.0 <= dynamics.speed_limit(orbit, sched, plan.w).margin <= 1e-7 * tau  # the transport's O(dt^2)
    ihb_isospectral = invariants.ihb_isospectral
    monkeypatch.setattr(invariants, "ihb_isospectral", lambda *args: (1.0 + 1e-3) * ihb_isospectral(*args))
    with pytest.raises(ContractViolation, match=rf"^speed-limit margin -9\.999e-{power} is negative$"):
        dynamics.speed_limit(orbit, sched, plan.w)
