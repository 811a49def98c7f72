"""JSON schemas for states, curves, schedules, amplitudes, and reports.

Complex entries are [re, im] pairs; matrices are nested row-major lists,
and a stack of them is encoded or decoded in one numpy call. Files are
written as compact JSON; readers accept any whitespace. Floats go through
Python's shortest round-trip repr, so write/read is bit-exact for finite
values, signed zeros included. A reader raises ValueError naming the field
that a document lacks or holds with the wrong JSON type.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import bundle, dynamics, invariants, linalg, synthesis
from .curves import OperatorCurve
from .spectra import EigenprojectorBasis

Array = np.ndarray


def _field(data, name: str, kinds: tuple = (list,)):
    """data[name], an instance of one of kinds (a bool counts as no number)."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {name!r}, got {type(data).__name__}")
    if name not in data:
        raise ValueError(f"missing field {name!r}")
    if not isinstance(data[name], kinds) or isinstance(data[name], bool):
        want = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"field {name!r} must be {want}, got {type(data[name]).__name__}")
    return data[name]


def matrix_to_json(m: Array) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(data) -> Array:
    try:
        arr = np.ascontiguousarray(data, dtype=float)
    except TypeError as exc:
        raise ValueError(f"matrix JSON must be rows of [re, im] pairs: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"matrix JSON must be rows of [re, im] pairs, got shape {arr.shape}")
    return arr.view(np.complex128)[..., 0]  # a view keeps -0.0, which re + 1j*im turns into +0.0


def stack_from_json(samples) -> Array:
    """Decode a list of matrices into one (N, rows, cols) complex stack;
    ValueError names the first sample not shaped like most samples."""
    try:
        arr = np.ascontiguousarray(samples, dtype=float)
        if arr.ndim == 4 and arr.shape[-1] == 2:
            return arr.view(np.complex128)[..., 0]
    except (TypeError, ValueError):
        pass
    shapes = []
    for sample in samples if isinstance(samples, list) else []:
        try:
            shapes.append(matrix_from_json(sample).shape)
        except (TypeError, ValueError):
            shapes.append(None)
    common = max(dict.fromkeys(s for s in shapes if s), key=shapes.count, default=None)
    k = next((k for k, s in enumerate(shapes) if s != common), 0)
    raise ValueError(f"sample {k} is not a matrix of [re, im] pairs shaped like most samples")


def state_to_json(rho: Array) -> dict:
    rho = linalg.as_cmat(rho)
    return {"dim": rho.shape[0], "matrix": matrix_to_json(rho)}


def state_from_json(data: dict) -> Array:
    rho, dim = matrix_from_json(_field(data, "matrix")), _field(data, "dim", (int,))
    if rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} contradicts dim {dim}")
    return rho


def curve_to_json(curve: OperatorCurve) -> dict:
    return {"tau": curve.grid.tau, "samples": matrix_to_json(curve.samples)}


def curve_from_json(data: dict) -> OperatorCurve:
    return OperatorCurve.from_samples(_field(data, "tau", (int, float)), stack_from_json(_field(data, "samples")))


def schedule_from_json(data: dict) -> dynamics.HamiltonianSchedule:
    return dynamics.HamiltonianSchedule.from_samples(_field(data, "tau", (int, float)),
                                                     stack_from_json(_field(data, "samples")))


def amplitude_to_json(amp: bundle.Amplitude) -> dict:
    return {"matrix": matrix_to_json(amp.w), "basis": {"m": list(amp.basis.m)}}


def amplitude_from_json(data: dict) -> bundle.Amplitude:
    basis = EigenprojectorBasis(m=_field(_field(data, "basis", (dict,)), "m"))
    return bundle.Amplitude(w=matrix_from_json(_field(data, "matrix")), basis=basis)


def amplitude_curve_to_json(curve: OperatorCurve, basis: EigenprojectorBasis) -> dict:
    out = curve_to_json(curve)
    out["basis"] = {"m": list(basis.m)}
    return out


def unitary_to_json(g: bundle.GaugeElement) -> dict:
    return {"matrix": matrix_to_json(g.u), "basis": {"m": list(g.basis.m)}}


def unitary_from_json(data: dict) -> bundle.GaugeElement:
    basis = EigenprojectorBasis(m=_field(_field(data, "basis", (dict,)), "m"))
    return bundle.GaugeElement(u=matrix_from_json(_field(data, "matrix")), basis=basis)


def iso_report_to_json(report: invariants.IsoReport) -> dict:
    return {
        "L": report.length,
        "E": report.energy,
        "L_FR": report.fr_length,
        "iHB": report.ihb,
        "iHB_alpha": report.ihb_alpha,
        "slack": report.slack,
        "strong_slack": report.strong_slack,
        "spectrum_constant": report.spectrum_constant,
        "phases": [list(map(float, ph)) for ph in report.phases.blocks],
        "wilson_loop": [float(np.real(invariants.wilson_loop(report.holonomy))),
                        float(np.imag(invariants.wilson_loop(report.holonomy)))],
        "holonomy": matrix_to_json(report.holonomy.u),
    }


def speed_report_to_json(report: dynamics.SpeedLimitReport) -> dict:
    return {
        "tau": report.tau,
        "delta_E": report.delta_e,
        "iHB": report.ihb,
        "bound": report.bound,
        "margin": report.margin,
        "dH": [float(x) for x in report.dh],
        "dH_co": [float(x) for x in report.dh_co],
        "dH_in": [float(x) for x in report.dh_in],
        "phases": [list(map(float, ph)) for ph in report.phases.blocks],
    }


def saturation_report_to_json(report: synthesis.SaturationReport) -> dict:
    return {
        "holonomy_error": report.holonomy_error,
        "L": report.length,
        "iHB": report.ihb,
        "length_error": report.length_error,
        "slack": report.slack,
        "max_H_in": report.max_h_in,
        "dH_deviation": report.dh_deviation,
        "energy_gap": report.energy_gap,
        "bound_gap": report.bound_gap,
        "integration_defect": report.integration_defect,
    }


def plan_manifest_to_json(plan: synthesis.SaturatingPlan) -> dict:
    return {
        "tau": plan.tau,
        "iHB": plan.ihb,
        "target": unitary_to_json(plan.target),
        "amplitude": amplitude_to_json(plan.w),
        "state": state_to_json(plan.rho.matrix),
        "loops": [
            {
                "theta": loop.theta,
                "speed": loop.speed,
                "psi": matrix_to_json(loop.psi[:, None]),
                "phi": matrix_to_json(loop.phi[:, None]),
            }
            for loop in plan.loops
        ],
    }


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
