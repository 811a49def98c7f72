"""Batch command-line front end.

Commands: check, evolve, lift, synthesize, qubit-demo. All artifacts are
JSON (CSV tables opt-in). Exit codes: 0 success, 1 input error, 2 numbered
numerical-contract violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import logging
import os
import sys

import numpy as np

from . import bundle, dynamics, invariants, serialize, spectra, synthesis
from .errors import ContractViolation, HolonomyLabError


def _configure_logging() -> None:
    level = logging.getLevelName(os.environ.get("HOLONOMY_LAB_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, not contract bugs
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_alpha(text: str | None):
    if text is None:
        return None
    return [float(x) for x in text.split(",") if x.strip()]


def _emit(payload, out_path: str | None) -> None:
    if out_path:
        serialize.write_json(out_path, payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _lift_start(rho_curve, amplitude_path: str | None) -> bundle.Amplitude:
    """The --amplitude file, or the canonical amplitude over the first state."""
    if amplitude_path:
        return serialize.amplitude_from_json(serialize.read_json(amplitude_path))
    return bundle.canonical_amplitude(spectra.spectral_decompose(rho_curve.samples[0]))


def _check_one(path: str, amplitude_path: str | None, alpha) -> dict:
    curve = serialize.curve_from_json(serialize.read_json(path))
    report = invariants.check_isoholonomic(curve, _lift_start(curve, amplitude_path), alpha=alpha)
    payload = serialize.iso_report_to_json(report)
    payload["input"] = path
    return payload


def cmd_check(args) -> int:
    alpha = _parse_alpha(args.alpha)
    # the pool starts every worker up front, so ask for no more than can run
    jobs = min(args.jobs, len(args.curves), os.cpu_count() or 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(
                _check_one, args.curves,
                [args.amplitude] * len(args.curves),
                [alpha] * len(args.curves),
            ))
    else:
        reports = [_check_one(p, args.amplitude, alpha) for p in args.curves]
    _emit(reports[0] if len(reports) == 1 else reports, args.out)
    return 0


def cmd_evolve(args) -> int:
    rho0 = spectra.spectral_decompose(serialize.state_from_json(serialize.read_json(args.state)))
    sched = serialize.schedule_from_json(serialize.read_json(args.hamiltonian))
    _, rho_curve = dynamics.evolve(rho0, sched)
    serialize.write_json(args.out, serialize.curve_to_json(rho_curve))
    w0 = bundle.canonical_amplitude(rho0)
    report = dynamics.speed_limit(rho_curve, sched, w0)
    payload = serialize.speed_report_to_json(report)
    payload["curve_file"] = args.out
    _emit(payload, None)
    return 0


def cmd_lift(args) -> int:
    curve = serialize.curve_from_json(serialize.read_json(args.curve))
    w0 = _lift_start(curve, args.amplitude)
    lift = bundle.horizontal_lift(curve, w0)
    _emit(serialize.amplitude_curve_to_json(lift, w0.basis), args.out)
    return 0


def cmd_synthesize(args) -> int:
    rho_mat = serialize.state_from_json(serialize.read_json(args.state))
    rho = synthesis.embedded_state(rho_mat, args.ambient_dim)
    target = serialize.unitary_from_json(serialize.read_json(args.target))
    w = bundle.canonical_amplitude(rho)
    plan = synthesis.synthesize(rho, w, target, tau=args.tau, ambient_dim=args.ambient_dim,
                                n_samples=args.n)
    prefix = args.out or "plan"
    serialize.write_json(f"{prefix}.schedule.json", serialize.curve_to_json(plan.schedule))
    serialize.write_json(f"{prefix}.manifest.json", serialize.plan_manifest_to_json(plan))
    report = synthesis.verify_saturation(plan)
    payload = serialize.saturation_report_to_json(report)
    payload["schedule_file"] = f"{prefix}.schedule.json"
    payload["manifest_file"] = f"{prefix}.manifest.json"
    _emit(payload, None)
    return 0


def cmd_qubit_demo(args) -> int:
    ref = dynamics.qubit_reference(
        (float(np.sqrt(max(1.0 - args.n3**2, 0.0))), 0.0, args.n3), args.omega, args.p0)
    sched = dynamics.HamiltonianSchedule.constant(ref.hamiltonian, ref.tau, args.n)
    rho0 = spectra.spectral_decompose(np.diag([args.p0, 1.0 - args.p0]).astype(complex))
    _, rho_curve = dynamics.evolve(rho0, sched)
    w0 = bundle.canonical_amplitude(rho0)
    loop = bundle.closed_loop(rho_curve, w0)
    report = dynamics.speed_report(loop, sched)
    iso = invariants.iso_report(loop)
    numeric_phases = iso.phases.flat()
    wilson = invariants.wilson_loop(iso.holonomy)
    rows = [
        {"quantity": "theta_0", "analytic": ref.phases[0], "numeric": float(numeric_phases[0])},
        {"quantity": "theta_1", "analytic": ref.phases[1], "numeric": float(numeric_phases[1])},
        {"quantity": "iHB", "analytic": ref.ihb, "numeric": iso.ihb},
        {"quantity": "L", "analytic": ref.length, "numeric": iso.length},
        {"quantity": "delta_E", "analytic": ref.delta_e, "numeric": report.delta_e},
        {"quantity": "bound", "analytic": ref.bound, "numeric": report.bound},
        {"quantity": "margin", "analytic": ref.tau - ref.bound, "numeric": report.margin},
        {"quantity": "wilson_re", "analytic": float(np.cos(ref.phases[0]) + np.cos(ref.phases[1])),
         "numeric": float(np.real(wilson))},
        {"quantity": "wilson_im", "analytic": float(np.sin(ref.phases[0]) + np.sin(ref.phases[1])),
         "numeric": float(np.imag(wilson))},
    ]
    for row in rows:
        row["abs_err"] = abs(row["analytic"] - row["numeric"])
    for row in rows[:2]:  # phases: the distance on the circle
        row["abs_err"] = min(row["abs_err"] % (2.0 * np.pi), -row["abs_err"] % (2.0 * np.pi))
    payload = {"n3": args.n3, "omega": args.omega, "p0": args.p0, "n": args.n,
               "tau": ref.tau, "rows": rows}
    if args.csv:
        target = args.out or "qubit_demo.csv"
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["quantity", "analytic", "numeric", "abs_err"])
            writer.writeheader()
            writer.writerows(rows)
        print(target)
    else:
        _emit(payload, args.out)
    return 0


def _number(cast, accept, message: str):
    """argparse type: the text cast to a number that accept takes, else the
    input error "<message>, got <text>"."""
    def parse(text: str):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{message}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse reports a failed cast as "invalid int value"
    return parse


_SAMPLE_COUNT = _number(int, lambda v: v >= 2, "need at least 2 samples")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="holonomy-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("check", help="isoholonomic report for closed curve files")
    p.add_argument("curves", nargs="+")
    p.add_argument("--amplitude", type=str, default=None)
    p.add_argument("--alpha", type=str, default=None, help="comma-separated spectral bounds")
    p.add_argument("--jobs", type=_number(int, lambda v: v >= 1, "need at least 1 job"), default=1)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve", help="unitary evolution and speed-limit report")
    p.add_argument("state")
    p.add_argument("hamiltonian")
    common(p)
    p.set_defaults(func=cmd_evolve)
    p.set_defaults(out="evolved_curve.json")

    p = sub.add_parser("lift", help="horizontal lift of a state curve")
    p.add_argument("curve")
    p.add_argument("--amplitude", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("synthesize", help="bound-saturating plan for a target holonomy")
    p.add_argument("state")
    p.add_argument("target")
    p.add_argument("--tau", type=_number(float, lambda v: 0.0 < v < np.inf, "must be positive and finite"),
                   required=True)
    p.add_argument("--ambient-dim", type=_number(int, lambda v: v >= 2, "dimension must be at least 2"), required=True)
    p.add_argument("--n", type=_SAMPLE_COUNT, default=synthesis.PLAN_SAMPLES)
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("qubit-demo", help="analytic vs numeric table for the qubit benchmark")
    p.add_argument("--n3", type=float, required=True)
    p.add_argument("--omega", type=float, default=2.0 * np.pi)
    p.add_argument("--p0", type=float, default=0.7)
    p.add_argument("--n", type=_SAMPLE_COUNT, default=2001)
    p.add_argument("--csv", action="store_true")
    common(p)
    p.set_defaults(func=cmd_qubit_demo)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code) if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 2
    except (HolonomyLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a run too large for this machine is an input error, not a traceback
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
