"""holonomy-lab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. One client in one process runs one op at a
time (a closed loop) for S seconds after set-up and a warm-up op, checking
every op's outputs outside the timed region. BLAS is pinned to one thread
here and in every CLI child. With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it runs every second op traced and prints the
per-layer metrics. The last line of standard output is one JSON object:
correct, attempted, failed, metrics. The exit code is 0 when every op
passed its checks, 1 when one failed and 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("qubit_loop", "saturation_sweep", "varying_loops", "cli_files")
BLAS_THREADS = "1"
SETUP_REPEATS = 3  # at least this many set-ups, and
SETUP_SECONDS = 5.0  # at least this long in total, for a steady median
STARTUP_REPEATS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

# The four times are scaled to a reference machine speed; see MachineProbe.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_phase_err", "1"),
    ("max_bound_err", "1"),
)
PER_LAYER = (
    ("linalg.hermitian_eig_stack.self_ms", "ms"),
    ("linalg.hermitian_eig_stack.matrices", "count"),
    ("linalg.propagator_step_stack.self_ms", "ms"),
    ("linalg.polar_unitary.calls", "count"),
    ("spectra.spectral_decompose.calls", "count"),
    ("curves.grid_derivative.self_ms", "ms"),
    ("curves.fisher_rao.self_ms", "ms"),
    ("bundle.decompose_path.calls", "count"),
    ("bundle.decompose_path.self_ms", "ms"),
    ("bundle.decompose_path.samples_per_curve_sample", "ratio"),
    ("bundle.path_speeds_sq.self_ms", "ms"),
    ("invariants.check_isoholonomic.self_ms", "ms"),
    ("invariants.eigenphases.calls", "count"),
    ("dynamics.evolve.self_ms", "ms"),
    ("dynamics.speed_limit.self_ms", "ms"),
    ("dynamics.incoherent_part_path.calls", "count"),
    ("dynamics.incoherent_part_path.self_ms", "ms"),
    ("synthesis.synthesize.self_ms", "ms"),
    ("synthesis.verify_saturation.self_ms", "ms"),
    ("synthesis.max_length_gap", "1"),
    ("serialize.read_json.self_ms", "ms"),
    ("serialize.read_json.bytes", "bytes"),
    ("serialize.write_json.self_ms", "ms"),
    ("serialize.write_json.bytes", "bytes"),
    ("serialize.curve_from_json.self_ms", "ms"),
    ("serialize.curve_to_json.self_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.cmd_check.self_ms", "ms"),
    ("cli.cmd_synthesize.self_ms", "ms"),
    ("cli.evolve_synth.exit_code", "code"),
    ("cli.evolve_synth.closure_defect", "1"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace_overhead", "ratio"),
)


class MachineProbe:
    """Fixed CPU work, timed before and after every op and set-up.

    The vCPUs of a shared machine slow down by up to 2x while a neighbour
    keeps their sibling busy, and that state changes every few seconds. The
    probe slows down with them: a wall time t taken between probe times p1
    and p2 is reported as t * REFERENCE_S / mean(p1, p2), the time it would
    take where the probe takes REFERENCE_S. The probe's work mixes a Python
    loop, small eigh stacks and JSON, like the workloads.
    """

    REFERENCE_S = 0.005

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((400, 4, 4))
        self.stack = a + a.transpose(0, 2, 1)
        self.values = rng.standard_normal(3000).tolist()
        self.times = []

    def run(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for x in self.values:
            total += x * x
        for _ in range(3):
            self._np.linalg.eigh(self.stack)
        json.loads(json.dumps(self.values[:1500]))
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def timed(self, fn, *args):
        """(result, wall seconds, scaled seconds) of fn(*args)."""
        before = self.run()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        return result, elapsed, elapsed * self.REFERENCE_S / (0.5 * (before + self.run()))


@dataclass
class OpRun:
    """Timed ops of one closed loop: seconds per returned op, and the
    largest accuracy figure of each kind over the ops that passed."""

    times: list = field(default_factory=list)
    scaled_times: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    accuracy: dict = field(default_factory=lambda: defaultdict(float))


def run_ops(wl, seconds: float, tracer=None, probe=None) -> OpRun:
    """Closed loop of ops for the given seconds. With a tracer, every second
    op runs traced, so drift over the run hits both kinds alike. With a
    probe, every op's time is also scaled to the reference speed."""
    from workloads import CheckFailed

    run = OpRun()
    deadline = time.perf_counter() + seconds
    while run.attempted == 0 or time.perf_counter() < deadline:
        k = run.attempted
        run.attempted += 1
        traced = tracer is not None and k % 2 == 1
        try:
            if traced:
                with tracer:
                    result, elapsed = tracer.run_op(wl.op, k)
            elif probe is not None:
                result, elapsed, scaled = probe.timed(wl.op, k)
                run.scaled_times.append(scaled)
            else:
                start = time.perf_counter()
                result = wl.op(k)
                elapsed = time.perf_counter() - start
        except Exception:  # an op that raises is a failed op; the loop goes on
            run.failed += 1
            if run.failed <= 3:
                print(f"op {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        (run.traced_times if traced else run.times).append(elapsed)
        try:
            figures = wl.check(k, result)
        except CheckFailed as exc:
            run.failed += 1
            if run.failed <= 3:
                print(f"op {k} failed its check: {exc}", file=sys.stderr)
            continue
        for key, value in figures.items():
            run.accuracy[key] = max(run.accuracy[key], value)
    return run


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it. With too few samples for one above the median, the median."""
    s = sorted(times)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def set_up(wl, args, workdir: Path) -> None:
    wl.setup(args.seed, workdir)
    wl.op(0)  # untimed warm-up


def end_to_end(wl, args, workdir: Path) -> tuple[OpRun, dict]:
    probe = MachineProbe()
    probe.run()  # warm-up
    setups, wall_setup = [], 0.0
    while len(setups) < SETUP_REPEATS or wall_setup < SETUP_SECONDS:
        _, elapsed, scaled = probe.timed(set_up, wl, args, workdir)
        setups.append(scaled)
        wall_setup += elapsed
    run = run_ops(wl, args.seconds, probe=probe)
    n = len(run.times)
    if n:
        tail_value, tail_pct = tail(run.scaled_times)
        print(f"# {wl.name}: {n} timed ops; op_tail_ms is p{tail_pct:.1f} of {n} samples")
        print(f"# {wl.name} wall op ms: p50 {1000 * statistics.median(run.times):.6g}, "
              f"tail {1000 * tail(run.times)[0]:.6g}, best {1000 * min(run.times):.6g}; "
              f"probe p50 {1000 * statistics.median(probe.times):.4g} ms "
              f"(reference {1000 * MachineProbe.REFERENCE_S:g} ms)")
    values = {
        "ops_per_s": (run.attempted - run.failed) / sum(run.scaled_times) if n else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(run.scaled_times) if n else 0.0,
        "op_tail_ms": 1000.0 * tail_value if n else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_phase_err": run.accuracy["phase"],
        "max_bound_err": run.accuracy["bound"],
    }
    return run, {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(wl, args, workdir: Path) -> tuple[OpRun, dict]:
    import tracing
    import workloads

    set_up(wl, args, workdir)
    tracer = tracing.Tracer()
    run = run_ops(wl, args.seconds, tracer=tracer)
    values = defaultdict(float, tracer.per_op())
    values["synthesis.max_length_gap"] = run.accuracy["length_gap"]
    if run.times and run.traced_times:
        # fastest op of each kind: the machine's speed drifts more than tracing costs
        values["trace_overhead"] = min(run.traced_times) / min(run.times) - 1.0
    code, defect = workloads.evolve_probe(wl, args.seed, workdir)
    values["cli.evolve_synth.exit_code"] = float(code)
    values["cli.evolve_synth.closure_defect"] = defect
    if wl.name == "cli_files":
        values["cli.startup_ms"] = startup_ms()
    return run, {name: (values[name], unit) for name, unit in PER_LAYER}


def startup_ms() -> float:
    """Median wall time of a child that only imports holonomy_lab.cli."""
    from workloads import cli_env

    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import holonomy_lab.cli"], env=cli_env(), check=True, timeout=60)
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        run, metrics = (per_layer if args.trace else end_to_end)(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# env {json.dumps(environment(args))}")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    failed_ratio = run.failed / run.attempted
    print(f"# {args.workload} failed_ratio = {failed_ratio:.6g} ({run.failed} of {run.attempted} ops)")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "holonomy_lab" / "__init__.py").is_file():
        print(f"error: the holonomy_lab sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # before numpy loads, so this process and its CLI children use one BLAS thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
