"""Outcome census: seeded valid inputs, some of them too coarse for their
grid, run through the public API and classified as the CLI classifies them.
Exit code 2 (ContractViolation) is meant to signal a method bug; the pinned
table records where valid input reaches it today.

The table is a ratchet. A cell may move only from exit 2 to exit 1 or pass,
or from exit 1 to pass; any other edit is a regression. Each row is one
string with one character per run, in run order: "." for pass, an upper-case
letter for a contract violation (exit 2), a lower-case one for an input
error (exit 1).
"""

import numpy as np

from holonomy_lab import bundle, cli, dynamics, errors, invariants, serialize, spectra, synthesis
from holonomy_lab.curves import OperatorCurve, TimeGrid
from holonomy_lab.errors import ContractViolation
from qutil import precessing_qubit_curve, qubit_axis, rand_gauge, rand_state, wobble_loop

TWO_PI = 2.0 * np.pi

# error class -> census character; the case says which exit code the CLI gives
CODES = {
    "BoundViolated": "B",
    "SaturationFailed": "S",
    "LengthMismatch": "l",
    "MultiplicityChange": "m",
    "NotClosed": "c",
    "NotTangent": "t",
    "OutOfRange": "o",
    "Singular": "s",
}

TILTS = np.linspace(0.1, 0.9, 9)
QUBIT_N = (3, 5, 11, 21, 51, 201)
WOBBLE_N = (5, 11, 21, 51, 101, 201)
WOBBLE_RUNS = 30
WOBBLE_SPECS = (((0.7, 0.3), (1, 1), 2), ((0.4, 0.2), (2, 1), 3), ((0.5, 0.25), (1, 2), 4))
SATURATION_N = (11, 51, 201, 1001, 2001)
PLAN_SPECS = (((0.7, 0.3), (1, 1), 4), ((0.5, 0.25), (1, 2), 6), ((0.4, 0.2), (2, 1), 6),
              ((1.0,), (1,), 2), ((0.5, 0.5), (2,), 4), ((0.6, 0.4), (1, 1), 5))


def outcome(run) -> str:
    """The census character of run(): "." when it returns, else the code of
    the error it raises; an error class without a code shows as its name."""
    try:
        run()
    except (errors.HolonomyLabError, ValueError) as exc:
        return CODES.get(type(exc).__name__, f"[{type(exc).__name__}]")
    return "."


def qubit_rows() -> dict:
    """A mixed qubit (p0 = 0.7) precessing once about each tilted axis: the
    closed-form plain curve and the evolve orbit through check_isoholonomic,
    and the orbit through speed_limit. This is the equality case L = iHB,
    where the slack is pure discretization error of either sign."""
    rho0 = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
    w0 = bundle.canonical_amplitude(rho0)
    rows = {}
    for n in QUBIT_N:
        plain, orbit, limit = "", "", ""
        for n3 in TILTS:
            curve = precessing_qubit_curve(n3, TWO_PI, 0.7, n)
            h = dynamics.qubit_hamiltonian(qubit_axis(n3), TWO_PI)
            sched = dynamics.HamiltonianSchedule.constant(h, 1.0, n)
            _, states = dynamics.evolve(rho0, sched)
            plain += outcome(lambda: invariants.check_isoholonomic(curve, w0))
            orbit += outcome(lambda: invariants.check_isoholonomic(states, w0))
            limit += outcome(lambda: dynamics.speed_limit(states, sched, w0))
        rows[f"qubit check plain N={n}"] = plain
        rows[f"qubit check orbit N={n}"] = orbit
        rows[f"qubit speed_limit N={n}"] = limit
    return rows


def wobble_rows() -> dict:
    """Thirty loops whose spectrum varies, each sampled at every N of
    WOBBLE_N (strides of one 201-sample build), through the isoholonomic
    report with alpha at 0.8 of each block's smallest mean. Acceptance
    criterion 6i runs 100 such loops at N = 601, where all pass."""
    rng = np.random.default_rng(6)
    fine = max(WOBBLE_N)
    loops = [wobble_loop(rng, *WOBBLE_SPECS[k % len(WOBBLE_SPECS)], nsamp=fine) for k in range(WOBBLE_RUNS)]
    rows = {}
    for n in WOBBLE_N:
        row = ""
        for curve, rho0 in loops:
            samples = curve.samples[:: (fine - 1) // (n - 1)]
            coarse = OperatorCurve(grid=TimeGrid(tau=curve.grid.tau, n=n), samples=samples)

            def run():
                loop = bundle.closed_loop(coarse, bundle.canonical_amplitude(rho0))
                invariants.iso_report(loop, alpha=0.8 * loop.path.block_means().min(axis=0))

            row += outcome(run)
        rows[f"wobble check alpha N={n}"] = row
    return rows


def saturation_rows() -> dict:
    """synthesize then verify_saturation on six plans (random targets, dim 2
    to 6) at coarse to moderate N."""
    rows = {}
    for n in SATURATION_N:
        rng = np.random.default_rng([7, n])
        row = ""
        for p, m, dim in PLAN_SPECS:
            rho = rand_state(rng, p, m, dim)
            target = rand_gauge(rng, rho.basis)

            def run():
                plan = synthesis.synthesize(rho, bundle.canonical_amplitude(rho), target, tau=1.0,
                                            ambient_dim=dim, n_samples=n)
                synthesis.verify_saturation(plan)

            row += outcome(run)
        rows[f"synthesize verify N={n}"] = row
    return rows


def cli_chain_row(tmp_path) -> str:
    """Exit codes of holonomy-lab synthesize, evolve and check, each reading
    the files the one before wrote, at the default N."""
    state = tmp_path / "s.json"
    serialize.write_json(state, serialize.state_to_json(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)))
    target = tmp_path / "u.json"
    serialize.write_json(target, {"matrix": serialize.matrix_to_json(np.diag(np.exp([1.1j, 2.3j]))),
                                  "basis": {"m": [1, 1]}})
    prefix, curve = str(tmp_path / "plan"), str(tmp_path / "evolved.json")
    codes = [cli.main(["synthesize", str(state), str(target), "--tau", "1", "--ambient-dim", "4", "--out", prefix]),
             cli.main(["evolve", str(state), f"{prefix}.schedule.json", "--out", curve]),
             cli.main(["check", curve, "--out", str(tmp_path / "check.json")])]
    return " ".join(map(str, codes))


def census(tmp_path) -> dict:
    rows = {**qubit_rows(), **wobble_rows(), **saturation_rows()}
    rows["cli synthesize evolve check"] = cli_chain_row(tmp_path)
    rows["spectra.validate m=(1.2, 1.7)"] = outcome(lambda: spectra.validate([0.6, 0.4], [1.2, 1.7]))
    return rows


EXPECTED = {
    "qubit check plain N=3": ".........",
    "qubit check orbit N=3": ".........",
    "qubit speed_limit N=3": ".........",
    "qubit check plain N=5": "BBBBBBB..",
    "qubit check orbit N=5": ".........",
    "qubit speed_limit N=5": ".........",
    "qubit check plain N=11": "BBB......",
    "qubit check orbit N=11": ".........",
    "qubit speed_limit N=11": ".........",
    "qubit check plain N=21": "B........",
    "qubit check orbit N=21": ".........",
    "qubit speed_limit N=21": ".........",
    "qubit check plain N=51": ".........",
    "qubit check orbit N=51": ".........",
    "qubit speed_limit N=51": ".........",
    "qubit check plain N=201": ".........",
    "qubit check orbit N=201": ".........",
    "qubit speed_limit N=201": ".........",
    "wobble check alpha N=5": ".tt.ttBtt.tt.tt.ttBttBtt.tt.tt",
    "wobble check alpha N=11": ".tt.tt.tt.tt.tt.tt.tt.tt.tt.tt",
    "wobble check alpha N=21": ".tt.tt.tt.tt.tt.tt.tt.tt.tt.tt",
    "wobble check alpha N=51": ".tt.tt.tt.tt.tt.tt.tt.tt.tt.tt",
    "wobble check alpha N=101": ".tt.tt.tt.tt.tt.tt.tt.tt.tt.tt",
    "wobble check alpha N=201": "..t.tt..t.tt..t..t..t..t..t...",
    "synthesize verify N=11": "SSSSSS",
    "synthesize verify N=51": "SSSSSS",
    "synthesize verify N=201": "SSSSSS",
    "synthesize verify N=1001": "SSSSSS",
    "synthesize verify N=2001": "S.S.SS",
    "cli synthesize evolve check": "0 1 1",
    "spectra.validate m=(1.2, 1.7)": "l",
}


def test_codes_follow_the_exit_codes():
    for name, code in CODES.items():
        assert code.isupper() == issubclass(getattr(errors, name), ContractViolation)


def test_census_matches_the_pinned_table(tmp_path, capsys):
    got = census(tmp_path)
    capsys.readouterr()  # the CLI row's reports and error lines
    assert got == EXPECTED
