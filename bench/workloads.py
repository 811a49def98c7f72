"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
operation (an "op") per ``op`` call through the public holonomy_lab API or
the holonomy-lab CLI's ``main``, and checks an op's outputs in ``check``, which returns
the op's accuracy figures or raises CheckFailed. Workloads call the library
through module attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import holonomy_lab as hl
from holonomy_lab import cli, serialize

import inputs

TAU = 1.0


class CheckFailed(Exception):
    """An op returned, but its outputs are wrong."""


def _accuracy(phase: float, bound: float, length_gap: float = 0.0) -> dict:
    return {"phase": phase, "bound": bound, "length_gap": length_gap}


class QubitLoop:
    """README quick-start pipeline on a precessing mixed qubit."""

    name = "qubit_loop"
    P0 = 0.7
    OMEGA = 2.0 * np.pi  # one period is tau = 1
    N = 4001
    POOL = 16
    PHASE_TOL = 1e-5
    BOUND_TOL = 1e-6

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.axes = inputs.qubit_axes(rng, self.POOL)
        self.hamiltonians = [inputs.qubit_hamiltonian(a, self.OMEGA) for a in self.axes]
        self.rho_matrix = np.diag([self.P0, 1.0 - self.P0]).astype(np.complex128)

    def op(self, k: int):
        rho0 = hl.spectral_decompose(self.rho_matrix)
        sched = hl.HamiltonianSchedule.constant(self.hamiltonians[k % self.POOL], tau=TAU, n=self.N)
        _, states = hl.evolve(rho0, sched)
        w0 = hl.canonical_amplitude(rho0)
        return hl.speed_limit(states, sched, w0), hl.check_isoholonomic(states, w0)

    def check(self, k: int, result) -> dict:
        sl, iso = result
        n3 = float(self.axes[k % self.POOL][2])
        phase_err = inputs.phase_error([iso.phases.flat()], [inputs.qubit_phases(n3)])
        bound_err = abs(sl.bound - inputs.qubit_bound(n3, self.P0, TAU))
        if phase_err > self.PHASE_TOL or bound_err > self.BOUND_TOL:
            raise CheckFailed(f"n3={n3:.4f}: phase error {phase_err:.3e}, bound error {bound_err:.3e}")
        return _accuracy(phase_err, bound_err)


# (p, m, dim) of each plan in a round, and its fixed target eigenphases / 2pi
SATURATION_CASES = (
    ((1.0,), (1,), 2, (0.62,)),
    ((0.7, 0.3), (1, 1), 4, (0.81, 0.27)),
    ((0.5, 0.25), (1, 2), 6, (0.45, 0.93, 0.18)),
)


class SaturationSweep:
    """Criterion-5 sweep: synthesize then verify one plan per op, cycling
    through the cases. Ops of one plan each give a run enough latency
    samples to put its tail percentile above p90."""

    name = "saturation_sweep"
    POOL = 4  # rounds of one plan per case

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.plans = []
        for _ in range(self.POOL):
            for p, m, dim, frac in SATURATION_CASES:
                phases = inputs.TWO_PI * np.asarray(frac)
                self.plans.append((inputs.random_state(rng, p, m, dim), inputs.block_gauge(rng, m, phases), dim,
                                   inputs.ihb(p, m, phases)))

    def op(self, k: int):
        rho_matrix, u, dim, _ = self.plans[k % len(self.plans)]
        rho = hl.spectral_decompose(rho_matrix)
        w = hl.canonical_amplitude(rho)
        target = hl.GaugeElement(u=u, basis=rho.basis)
        plan = hl.synthesize(rho, w, target, tau=TAU, ambient_dim=dim)
        return hl.verify_saturation(plan)  # raises SaturationFailed on any violation

    def check(self, k: int, result) -> dict:
        ihb = self.plans[k % len(self.plans)][3]
        # iHB from the computed holonomy against iHB of the target phases
        bound = abs(result.length - result.slack - ihb)
        return _accuracy(result.holonomy_error, bound, result.length_error)


class VaryingLoops:
    """Criterion-6i loops: spectrum-varying closed curves with degenerate blocks."""

    name = "varying_loops"
    N = 2001
    POOL = 4
    SLACK_TOL = 1e-6
    REVERSAL_TOL = 1e-7
    PHASE_TOL = 1e-4

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.rounds = []
        for _ in range(self.POOL):
            loops = []
            for index in range(len(inputs.WOBBLE_SHAPES)):
                samples, alpha, exact = inputs.wobble_loop(rng, index, self.N, tau=TAU)
                loops.append((hl.OperatorCurve.from_samples(TAU, samples), alpha, exact))
            self.rounds.append(loops)
        self.reversal_checked = set()

    def op(self, k: int):
        out = []
        for curve, alpha, _ in self.rounds[k % self.POOL]:
            w0 = hl.canonical_amplitude(hl.spectral_decompose(curve.samples[0]))
            out.append((w0, hl.check_isoholonomic(curve, w0, alpha=alpha)))
        return out

    def check(self, k: int, result) -> dict:
        phase = bound = 0.0
        for i, ((w0, report), (curve, alpha, exact)) in enumerate(zip(result, self.rounds[k % self.POOL])):
            if report.slack < -self.SLACK_TOL or report.strong_slack < -self.SLACK_TOL:
                raise CheckFailed(f"loop {i}: slack {report.slack:.3e}, strong slack {report.strong_slack:.3e}")
            err = inputs.phase_error(report.phases.blocks, exact)
            if err > self.PHASE_TOL:
                raise CheckFailed(f"loop {i}: holonomy phases miss the closed form by {err:.3e}")
            phase = max(phase, err)
            ihb_alpha = float(np.sqrt(sum(a * np.sum(th * (inputs.TWO_PI - th)) for a, th in zip(alpha, exact))))
            bound = max(bound, abs(report.ihb_alpha - ihb_alpha))
            key = (k % self.POOL, i)
            if key not in self.reversal_checked:
                back = hl.holonomy(hl.reverse(curve), w0)
                dev = float(np.linalg.norm(back.u - report.holonomy.u.conj().T))
                if dev > self.REVERSAL_TOL:
                    raise CheckFailed(f"loop {i}: reversed holonomy misses U^dag by {dev:.3e}")
                self.reversal_checked.add(key)
        return _accuracy(phase, bound)


class CliFiles:
    """The holonomy-lab CLI's synthesize and check, JSON files in and out."""

    name = "cli_files"
    P, M, DIM = (0.5, 0.25), (1, 2), 6
    PHASE_FRACTIONS = (0.45, 0.93, 0.18)
    REL_TOL = 1e-12
    PHASE_TOL = 1e-5

    def setup(self, seed: int, workdir: Path) -> None:
        rho_matrix, u = self.write_inputs(seed, workdir)
        # the checked curve is the exact trajectory of a plan for the same target
        rho = hl.spectral_decompose(rho_matrix)
        plan = hl.synthesize(rho, hl.canonical_amplitude(rho), hl.GaugeElement(u=u, basis=rho.basis),
                             tau=TAU, ambient_dim=self.DIM)
        inputs.write_curve(self.curve_path, TAU, plan.exact_states().samples)
        self.reference = None

    def write_inputs(self, seed: int, workdir: Path) -> tuple[np.ndarray, np.ndarray]:
        """Write the state and target files; returns their matrices."""
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.phases = inputs.TWO_PI * np.asarray(self.PHASE_FRACTIONS)
        self.ihb = inputs.ihb(self.P, self.M, self.phases)
        rho_matrix = inputs.random_state(rng, self.P, self.M, self.DIM)
        u = inputs.block_gauge(rng, self.M, self.phases)
        self.state_path = workdir / "state.json"
        self.target_path = workdir / "target.json"
        self.curve_path = workdir / "curve.json"
        self.plan_prefix = workdir / "plan"
        self.report_path = workdir / "report.json"
        inputs.write_state(self.state_path, rho_matrix)
        inputs.write_unitary(self.target_path, u, self.M)
        return rho_matrix, u

    def argvs(self) -> list[list[str]]:
        return [
            ["synthesize", str(self.state_path), str(self.target_path), "--tau", str(TAU),
             "--ambient-dim", str(self.DIM), "--out", str(self.plan_prefix)],
            ["check", str(self.curve_path), "--out", str(self.report_path)],
        ]

    def op(self, k: int):
        """Returns [(exit code, stdout, stderr)] of synthesize and check.

        The CLI runs in this process: a child's time does not track the
        machine probe that scales op times, because the child's vCPU state
        changes within the op. Child start-up is cli.startup_ms instead.
        """
        runs = []
        for argv in self.argvs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
        return runs

    def check(self, k: int, result) -> dict:
        for (code, _, err), argv in zip(result, self.argvs()):
            if code != 0:
                raise CheckFailed(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
        synth = json.loads(result[0][1])
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        if self.reference is None:
            self.reference = self._library_result()
        got = np.array([report["L"], report["iHB"], *np.concatenate(report["phases"])])
        want = self.reference
        if got.shape != want.shape or np.any(np.abs(got - want) > self.REL_TOL * np.maximum(np.abs(want), 1.0)):
            raise CheckFailed(f"check JSON {got.tolist()} differs from the library result {want.tolist()}")
        phase = inputs.phase_error(report["phases"], _split(self.phases, self.M))
        if phase > self.PHASE_TOL:
            raise CheckFailed(f"holonomy phases miss the target by {phase:.3e}")
        return _accuracy(phase, abs(report["iHB"] - self.ihb), synth["length_error"])

    def _library_result(self) -> np.ndarray:
        """L, iHB and phases of the curve file, computed in this process."""
        curve = serialize.curve_from_json(serialize.read_json(self.curve_path))
        w0 = hl.canonical_amplitude(hl.spectral_decompose(curve.samples[0]))
        iso = hl.check_isoholonomic(curve, w0)
        return np.array([iso.length, iso.ihb, *iso.phases.flat()])


def evolve_probe(workload, seed: int, workdir: Path) -> tuple[int, float]:
    """Run `holonomy-lab evolve` on a synthesized schedule at the default N.

    Returns the exit code and the closure defect of the curve that the
    library's evolve produces from the same files, which does not depend on
    whether the CLI writes its curve before rejecting it. The cli_files
    workload lends its files; any other writes its own.
    """
    files = workload
    if not isinstance(files, CliFiles):
        files = CliFiles()
        files.write_inputs(seed, workdir / "probe")
    schedule = Path(f"{files.plan_prefix}.schedule.json")
    if not schedule.exists():
        proc = run_cli(files.argvs()[0])
        if proc.returncode != 0:
            raise CheckFailed(f"synthesize exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    proc = run_cli(["evolve", str(files.state_path), str(schedule), "--out", str(files.workdir / "evolved.json")])
    rho0 = hl.spectral_decompose(serialize.state_from_json(serialize.read_json(files.state_path)))
    _, states = hl.evolve(rho0, serialize.schedule_from_json(serialize.read_json(schedule)))
    return proc.returncode, states.closure_defect()


def _split(values, m) -> list:
    out, lo = [], 0
    for mj in m:
        out.append(values[lo : lo + mj])
        lo += mj
    return out


def cli_env() -> dict:
    """Environment of a CLI child: the checkout's src first on the path."""
    env = dict(os.environ)
    src = str(Path(hl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "holonomy_lab.cli", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=timeout)


WORKLOADS = {w.name: w for w in (QubitLoop, SaturationSweep, VaryingLoops, CliFiles)}
