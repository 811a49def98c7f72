import concurrent.futures
import json
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

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        assert cli.main(["qubit-demo", "--n3", "0.3", "--n", "401", "--csv",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quantity,analytic,numeric,abs_err"
        assert len(lines) == 10


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
