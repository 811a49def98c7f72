import concurrent.futures
import json
import logging
import os

import numpy as np
import pytest

from holonomy_lab import cli, dynamics, serialize
from qutil import precessing_qubit_curve, qubit_axis

TWO_PI = 2.0 * np.pi


def write_curve(path, curve):
    serialize.write_json(path, serialize.curve_to_json(curve))
    return str(path)


def write_state(path, rho):
    serialize.write_json(path, serialize.state_to_json(rho))
    return str(path)


def write_schedule(path, h, tau, nsamp):
    sched = dynamics.HamiltonianSchedule.constant(h, tau, nsamp)
    serialize.write_json(path, serialize.curve_to_json(sched))
    return str(path)


def constant_state_curve(nsamp=21):
    rho = np.diag([0.7, 0.3]).astype(complex)
    samples = np.broadcast_to(rho, (nsamp, 2, 2)).copy()
    from holonomy_lab.curves import OperatorCurve

    return OperatorCurve.from_samples(1.0, samples)


class TestCheck:
    def test_constant_curve_zeros(self, tmp_path, capsys):
        path = write_curve(tmp_path / "c.json", constant_state_curve())
        assert cli.main(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["L"]) <= 1e-9
        assert abs(report["iHB"]) <= 1e-9
        assert report["spectrum_constant"] is True

    def test_precessing_qubit_saturates(self, tmp_path, capsys):
        path = write_curve(tmp_path / "c.json", precessing_qubit_curve(0.6, TWO_PI, 0.7, 2001))
        assert cli.main(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["slack"]) <= 1e-5
        assert abs(report["L"] - 0.8 * np.pi) <= 1e-4

    def test_truncated_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"tau": 1.0, "samples": [[[')
        assert cli.main(["check", str(path)]) == 1

    @pytest.mark.parametrize("document, message", [
        ([1, 2], "expected an object with field 'tau', got list"),
        ({"tau": [1], "samples": []}, "field 'tau' must be int or float, got list"),
        ({"tau": 1.0}, "missing field 'samples'"),
    ], ids=["array", "list_tau", "no_samples"])
    def test_malformed_document_exits_one(self, tmp_path, capsys, document, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(document))
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_object_matrix_entry_exits_one(self, tmp_path, capsys):
        path = write_curve(tmp_path / "c.json", constant_state_curve())
        amp = tmp_path / "a.json"
        amp.write_text(json.dumps({"matrix": [[{"re": 1.0}]], "basis": {"m": [1, 1]}}))
        assert cli.main(["check", path, "--amplitude", str(amp)]) == 1
        assert "matrix JSON must be rows of [re, im] pairs" in capsys.readouterr().err

    def test_open_curve_exits_one(self, tmp_path):
        from holonomy_lab.curves import OperatorCurve
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 101)
        open_c = OperatorCurve.from_samples(0.5, c.samples[:51])
        path = write_curve(tmp_path / "c.json", open_c)
        assert cli.main(["check", str(path)]) == 1

    def test_batch_with_jobs(self, tmp_path, capsys):
        p1 = write_curve(tmp_path / "c1.json", precessing_qubit_curve(0.2, TWO_PI, 0.7, 401))
        p2 = write_curve(tmp_path / "c2.json", precessing_qubit_curve(0.6, TWO_PI, 0.7, 401))
        out = tmp_path / "reports.json"
        assert cli.main(["check", p1, p2, "--jobs", "2", "--out", str(out)]) == 0
        reports = serialize.read_json(out)
        assert len(reports) == 2
        assert reports[0]["input"] == p1 and reports[1]["input"] == p2

    @pytest.mark.parametrize("jobs, ncurves, cpus, want", [
        (1000, 3, 64, 3),
        (1000, 3, 2, 2),
        (2, 3, 64, 2),
        (1000, 1, 64, None),
        (1000, 3, 1, None),
    ])
    def test_jobs_capped(self, tmp_path, monkeypatch, jobs, ncurves, cpus, want):
        # a recording stand-in: no real pool is ever asked for `jobs` workers
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        paths = [write_curve(tmp_path / f"c{i}.json", precessing_qubit_curve(0.6, TWO_PI, 0.7, 101))
                 for i in range(ncurves)]
        out = tmp_path / "reports.json"
        assert cli.main(["check", *paths, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert asked == ([] if want is None else [want])

    def test_nan_sample_exits_one(self, tmp_path, capsys):
        data = serialize.curve_to_json(precessing_qubit_curve(0.6, TWO_PI, 0.7, 101))
        data["samples"][50][0][1] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        serialize.write_json(path, data)
        assert cli.main(["check", str(path)]) == 1
        assert "sample 50" in capsys.readouterr().err

    def test_ragged_sample_exits_one(self, tmp_path, capsys):
        data = serialize.curve_to_json(precessing_qubit_curve(0.6, TWO_PI, 0.7, 11))
        data["samples"][3] = serialize.matrix_to_json(np.eye(3) / 3)
        path = tmp_path / "ragged.json"
        serialize.write_json(path, data)
        assert cli.main(["check", str(path)]) == 1
        assert "sample 3 " in capsys.readouterr().err

    def test_alpha_flag(self, tmp_path, capsys):
        path = write_curve(tmp_path / "c.json", precessing_qubit_curve(0.6, TWO_PI, 0.7, 801))
        assert cli.main(["check", path, "--alpha", "0.5,0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iHB_alpha"] is not None
        assert report["strong_slack"] >= -1e-6

    def test_nan_alpha_exits_one(self, tmp_path, capsys):
        path = write_curve(tmp_path / "c.json", precessing_qubit_curve(0.6, TWO_PI, 0.7, 401))
        assert cli.main(["check", path, "--alpha", "nan,0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_explicit_amplitude_file(self, tmp_path, capsys):
        from holonomy_lab import bundle, spectra
        from qutil import rand_gauge

        rng = np.random.default_rng(5)
        curve = precessing_qubit_curve(0.6, TWO_PI, 0.7, 801)
        cpath = write_curve(tmp_path / "c.json", curve)
        assert cli.main(["check", cpath]) == 0
        base = json.loads(capsys.readouterr().out)
        rho0 = spectra.spectral_decompose(curve.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        moved = bundle.Amplitude(w=w0.w @ rand_gauge(rng, w0.basis).u, basis=w0.basis)
        apath = tmp_path / "w.json"
        serialize.write_json(apath, serialize.amplitude_to_json(moved))
        assert cli.main(["check", cpath, "--amplitude", str(apath)]) == 0
        report = json.loads(capsys.readouterr().out)
        # gauge choice shifts the holonomy matrix but not its invariants
        assert abs(report["iHB"] - base["iHB"]) <= 1e-8
        assert np.allclose(report["phases"], base["phases"], atol=1e-8)


    def test_non_integral_amplitude_m_exits_one(self, tmp_path, capsys):
        # int() used to truncate m = (1.2, 1.7) to (1, 1) and run the check
        from holonomy_lab import bundle, spectra

        curve = precessing_qubit_curve(0.6, TWO_PI, 0.7, 101)
        cpath = write_curve(tmp_path / "c.json", curve)
        data = serialize.amplitude_to_json(bundle.canonical_amplitude(spectra.spectral_decompose(curve.samples[0])))
        data["basis"]["m"] = [1.2, 1.7]
        apath = tmp_path / "w.json"
        serialize.write_json(apath, data)
        assert cli.main(["check", cpath, "--amplitude", str(apath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degeneracies must be positive integers, got [1.2, 1.7]" in captured.err

    def test_object_amplitude_m_exits_one(self, tmp_path, capsys):
        # float({}) raises TypeError, which used to escape as a traceback
        path = write_curve(tmp_path / "c.json", constant_state_curve())
        amp = tmp_path / "a.json"
        amp.write_text(json.dumps({"matrix": serialize.matrix_to_json(np.eye(2)), "basis": {"m": [{}]}}))
        assert cli.main(["check", path, "--amplitude", str(amp)]) == 1
        assert capsys.readouterr().err == "error: degeneracies m must be numbers, got [{}]\n"

    def test_amplitude_of_another_dimension_exits_one(self, tmp_path, capsys):
        # three rows over a dim-2 curve used to fail inside numpy's broadcasting
        path = write_curve(tmp_path / "c.json", constant_state_curve())
        w = np.zeros((3, 2))
        w[0, 0], w[1, 1] = np.sqrt(0.7), np.sqrt(0.3)
        amp = tmp_path / "a.json"
        amp.write_text(json.dumps({"matrix": serialize.matrix_to_json(w), "basis": {"m": [1, 1]}}))
        assert cli.main(["check", path, "--amplitude", str(amp)]) == 1
        assert capsys.readouterr().err == "error: amplitude has shape (3, 2), the state has shape (2, 2)\n"


class TestEvolve:
    def test_zero_hamiltonian(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        sched = write_schedule(tmp_path / "h.json", np.zeros((2, 2)), 1.0, 51)
        out = tmp_path / "curve.json"
        assert cli.main(["evolve", state, sched, "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["iHB"]) <= 1e-9
        curve = serialize.curve_from_json(serialize.read_json(out))
        assert np.max(np.abs(curve.samples - curve.samples[0])) <= 1e-12

    def test_speed_limit_bound(self, tmp_path, capsys):
        n3, p0 = 0.6, 0.7
        state = write_state(tmp_path / "s.json", np.diag([p0, 1 - p0]).astype(complex))
        h = dynamics.qubit_hamiltonian(qubit_axis(n3), TWO_PI)
        sched = write_schedule(tmp_path / "h.json", h, 1.0, 2001)
        out = tmp_path / "curve.json"
        assert cli.main(["evolve", state, sched, "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["bound"] - 0.8240856434303292) <= 1e-6

    def test_non_hermitian_exits_one(self, tmp_path):
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        bad = {"tau": 1.0, "samples": [serialize.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))] * 5}
        path = tmp_path / "h.json"
        serialize.write_json(path, bad)
        assert cli.main(["evolve", state, str(path), "--out", str(tmp_path / "c.json")]) == 1

    @pytest.mark.parametrize("h, tau, norm", [
        (np.diag([1e308, -1e308]), 1.0, "2.500e+306"),
        (np.diag([0.5, -0.5]), 1e300, "1.250e+298"),
    ], ids=["entries_1e308", "tau_1e300"])
    def test_step_without_a_taylor_plan_exits_one(self, tmp_path, capsys, h, tau, norm):
        # finite entries whose dt |H|_1 needs infinitely many squarings
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        sched = write_schedule(tmp_path / "h.json", h, tau, 41)
        assert cli.main(["evolve", state, sched, "--out", str(tmp_path / "c.json")]) == 1
        assert f"dt*|H|_1 = {norm} is non-finite or too large for a finite Taylor plan" in capsys.readouterr().err

    def test_step_beyond_the_squaring_cap_exits_one(self, tmp_path, capsys):
        # the README precession slowed to tau = 1e7 over 41 samples: dt |H|_1 = 1.1e6
        # needs more squarings than keep a step unitary to STEP_UNITARITY_TOL
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        sched = write_schedule(tmp_path / "h.json", dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI), 1e7, 41)
        assert cli.main(["evolve", state, sched, "--out", str(tmp_path / "c.json")]) == 1
        assert ("dt*|H|_1 = 1.100e+06 is non-finite or too large for a finite Taylor plan: "
                "the largest admissible value is 4.640e+05") in capsys.readouterr().err

    def test_tau_that_underflows_the_energy_uncertainty_exits_one(self, tmp_path, capsys):
        # the README precession slowed down by 1e170: every variance underflows
        # to 0 while the holonomy, and so iHB, stays that of the full period
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        h = 1e-170 * dynamics.qubit_hamiltonian(qubit_axis(0.6), TWO_PI)
        sched = write_schedule(tmp_path / "h.json", h, 1e170, 201)
        assert cli.main(["evolve", state, sched, "--out", str(tmp_path / "c.json")]) == 1
        assert "error: tau = 1.000e+170 underflows the energy uncertainty to zero" in capsys.readouterr().err


class TestLift:
    def test_round_trip(self, tmp_path, capsys):
        path = write_curve(tmp_path / "c.json", precessing_qubit_curve(0.6, TWO_PI, 0.7, 201))
        out = tmp_path / "lift.json"
        assert cli.main(["lift", path, "--out", str(out)]) == 0
        data = serialize.read_json(out)
        assert data["basis"]["m"] == [1, 1]
        lift = serialize.curve_from_json(data)
        projected = lift.samples @ np.conj(np.swapaxes(lift.samples, -1, -2))
        base = serialize.curve_from_json(serialize.read_json(path))
        assert np.max(np.abs(projected - base.samples)) <= 1e-8


class TestSynthesize:
    def test_qubit_target(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        target = {"matrix": serialize.matrix_to_json(
            np.diag(np.exp(1j * np.array([1.6 * np.pi, 0.4 * np.pi])))), "basis": {"m": [1, 1]}}
        tpath = tmp_path / "u.json"
        serialize.write_json(tpath, target)
        prefix = str(tmp_path / "plan")
        code = cli.main(["synthesize", state, str(tpath), "--tau", "1.0",
                         "--ambient-dim", "4", "--out", prefix])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["L"] - report["iHB"]) <= 1e-5
        assert 0.0 <= report["integration_defect"] <= 1e-5
        sched = serialize.read_json(prefix + ".schedule.json")
        assert len(sched["samples"]) == 4001
        manifest = serialize.read_json(prefix + ".manifest.json")
        assert len(manifest["loops"]) == 2

    def test_identity_target(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        target = {"matrix": serialize.matrix_to_json(np.eye(2, dtype=complex)), "basis": {"m": [1, 1]}}
        tpath = tmp_path / "u.json"
        serialize.write_json(tpath, target)
        code = cli.main(["synthesize", state, str(tpath), "--tau", "1.0",
                         "--ambient-dim", "4", "--n", "101", "--out", str(tmp_path / "plan")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["L"] <= 1e-9

    def test_dim_too_small_exits_one(self, tmp_path):
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        target = {"matrix": serialize.matrix_to_json(np.eye(2, dtype=complex)), "basis": {"m": [1, 1]}}
        tpath = tmp_path / "u.json"
        serialize.write_json(tpath, target)
        assert cli.main(["synthesize", state, str(tpath), "--tau", "1.0",
                         "--ambient-dim", "3", "--out", str(tmp_path / "plan")]) == 1

    def test_tau_that_underflows_the_squared_loop_speeds_exits_one(self, tmp_path, capsys):
        # a loop of phase 1e-3 over tau = 1e300 has speed 7.9e-302, whose square is 0
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        target = {"matrix": serialize.matrix_to_json(np.diag([1.0, np.exp(1e-3j)])), "basis": {"m": [1, 1]}}
        tpath = tmp_path / "u.json"
        serialize.write_json(tpath, target)
        assert cli.main(["synthesize", state, str(tpath), "--tau", "1e300", "--ambient-dim", "4",
                         "--n", "201", "--out", str(tmp_path / "plan")]) == 1
        assert "error: tau = 1.000e+300 underflows the plan's squared loop speeds" in capsys.readouterr().err

    def test_long_tau_saturates_the_speed_limit(self, tmp_path, capsys):
        # iHB / Delta E rounds to about 6e-4 off tau = 1e12 in absolute terms;
        # the saturation test compares the two relative to tau
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3]).astype(complex))
        target = {"matrix": serialize.matrix_to_json(np.diag([1.0, np.exp(1e-3j)])), "basis": {"m": [1, 1]}}
        tpath = tmp_path / "u.json"
        serialize.write_json(tpath, target)
        assert cli.main(["synthesize", state, str(tpath), "--tau", "1e12", "--ambient-dim", "4",
                         "--out", str(tmp_path / "plan")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iHB"] > 0.0 and report["bound_gap"] <= 1e-12

    def test_target_phase_within_phase_tol_of_zero_is_trivial(self, tmp_path, capsys):
        # a phase of 1e-12 reads as 0, so even at tau = 1e300 the plan is the
        # trivial one, which meets the target to 1e-12
        state = write_state(tmp_path / "s.json", np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))
        target = {"matrix": serialize.matrix_to_json(np.diag([1.0, np.exp(1e-12j)])), "basis": {"m": [1, 1]}}
        tpath = tmp_path / "u.json"
        serialize.write_json(tpath, target)
        assert cli.main(["synthesize", state, str(tpath), "--tau", "1e300", "--ambient-dim", "4",
                         "--n", "2", "--out", str(tmp_path / "plan")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iHB"] == 0.0 and report["L"] == 0.0 and report["bound_gap"] == 0.0
        assert report["holonomy_error"] <= 1e-12


class TestQubitDemo:
    def test_table_values(self, capsys):
        assert cli.main(["qubit-demo", "--n3", "0.6", "--n", "2001"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["quantity"]: row for row in payload["rows"]}
        assert rows["theta_0"]["abs_err"] <= 1e-5
        assert rows["theta_1"]["abs_err"] <= 1e-5
        assert rows["bound"]["abs_err"] <= 1e-6

    def test_equatorial_axis_equality(self, capsys):
        assert cli.main(["qubit-demo", "--n3", "0.0", "--n", "801"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["quantity"]: row for row in payload["rows"]}
        assert abs(rows["margin"]["numeric"]) <= 1e-6

    def test_stationary_axis_exits_one(self, capsys):
        assert cli.main(["qubit-demo", "--n3", "1.0"]) == 1

    def test_nan_axis_exits_one(self, capsys):
        assert cli.main(["qubit-demo", "--n3", "nan", "--n", "11"]) == 1
        assert "axis" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        assert cli.main(["qubit-demo", "--n3", "0.3", "--n", "401", "--csv",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quantity,analytic,numeric,abs_err"
        assert len(lines) == 10


class TestLogging:
    @pytest.mark.parametrize("name, level", [
        ("debug", logging.DEBUG), ("INFO", logging.INFO), ("basic_format", logging.WARNING), ("loud", logging.WARNING),
    ])
    def test_level_comes_from_the_environment(self, monkeypatch, capsys, name, level):
        # a name of logging that is no level, like BASIC_FORMAT, falls back to WARNING
        monkeypatch.setenv("HOLONOMY_LAB_LOG", name)
        calls = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: calls.append(kwargs))
        assert cli.main(["qubit-demo", "--n3", "0.5", "--n", "51"]) == 0
        assert calls == [{"level": level}]


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_args_exit_one(self):
        assert cli.main(["synthesize", "a.json"]) == 1

    def test_ambient_dim_below_two_names_a_dimension(self, capsys):
        assert cli.main(["synthesize", "s.json", "u.json", "--tau", "1", "--ambient-dim", "1"]) == 1
        err = capsys.readouterr().err
        assert "argument --ambient-dim: dimension must be at least 2, got 1" in err
        assert "samples" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_names_the_flag(self, tmp_path, capsys, jobs):
        path = write_curve(tmp_path / "c.json", constant_state_curve())
        assert cli.main(["check", path, "--jobs", jobs]) == 1
        assert f"argument --jobs: need at least 1 job, got {jobs}" in capsys.readouterr().err

    # --jobs and --ambient-dim have their own tests above
    @pytest.mark.parametrize("command, flag, value, message", [
        (["synthesize", "s.json", "u.json", "--ambient-dim", "4"], "--tau", "0", "must be positive"),
        (["synthesize", "s.json", "u.json", "--ambient-dim", "4"], "--tau", "nan", "must be positive"),
        (["synthesize", "s.json", "u.json", "--tau", "1", "--ambient-dim", "4"], "--n", "1",
         "need at least 2 samples"),
        (["qubit-demo", "--n3", "0.5"], "--n", "-4", "need at least 2 samples"),
    ])
    def test_number_out_of_range_names_the_flag(self, capsys, command, flag, value, message):
        assert cli.main([*command, flag, value]) == 1
        assert f"argument {flag}: {message}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, kind", [
        (["check", "c.json"], "--jobs", "two", "int"),
        (["synthesize", "s.json", "u.json", "--ambient-dim", "4"], "--tau", "1s", "float"),
        (["synthesize", "s.json", "u.json", "--tau", "1"], "--ambient-dim", "4.0", "int"),
        (["qubit-demo", "--n3", "0.5"], "--n", "", "int"),
    ])
    def test_non_numeric_text_names_the_flag(self, capsys, command, flag, value, kind):
        assert cli.main([*command, flag, value]) == 1
        assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gap-tol", "--phase-tol"])
    def test_tolerance_flags_are_gone(self, tmp_path, capsys, flag):
        path = write_curve(tmp_path / "c.json", constant_state_curve())
        assert cli.main(["check", path, flag, "1e-6"]) == 1
        assert f"unrecognized arguments: {flag} 1e-6" in capsys.readouterr().err
