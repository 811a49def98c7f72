"""Layering guards: rules of the library's layout that no run of it can see.
Each source file is parsed once. Each guard that reads the sources has a
probe beside it that plants a breach in a temporary file and shows it is seen.

- No module reads another module's underscore names.
- Every threshold lives in the tolerance table; six kernels take a tolerance, as its docstring says.
- numpy's decompositions and solves are called only in linalg.
- The stack kernels that trust their input are called only where that input was checked.
- hermitian_eig is called only by spectral_decompose and a plan's flow.
- Only linalg.stored_samples reads strides: it alone tells a broadcast stack from a full one.
- The one-stored-sample routes are the four that test_orbit.py::test_constant_is_a_layout runs.
- Every loop over sample blocks takes one route for every block.
- Per-sample norms of a stack go through linalg.stack_sq_norms.
- Only the two unitary runs build a UnitaryOrbit, and only bundle tells an orbit from a plain curve.
- The exit-2 raise sites are pinned.
- Every public name, method and property has a caller, and every tolerance a reader.
- No module imports a name it does not read.
- numpy is the only third-party package the library imports or depends on."""

import ast
import functools
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import holonomy_lab

SRC = Path(holonomy_lab.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")}
REPO = Path(__file__).resolve().parent.parent


@functools.cache
def parsed(path):
    """The syntax tree of one file, parsed once per run."""
    return ast.parse(path.read_text(encoding="utf-8"))


def by_function(path, classes=False):
    """(enclosing function, node) of every node of one file; module-level nodes
    count under "<module>". With classes, a class qualifies the names inside it."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or classes and isinstance(node, ast.ClassDef):
            where = f"{where}.{node.name}" if classes and where != "<module>" else node.name
        yield where, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return visit(parsed(path), "<module>")


def name_of(node):
    """The name a node spells, f for both f and m.f; None for other nodes."""
    return getattr(node, "id", getattr(node, "attr", None))


def in_src(finder):
    """(module, where) of everything finder(path) finds in the library's files."""
    return {(path.stem, where) for path in SRC.glob("*.py") for where in finder(path)}


def foreign_private_reads(path):
    """(line, text) of every read of <sibling module>._name in one file."""
    found = []
    for node in ast.walk(parsed(path)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES - {path.stem}
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level > 0 and node.module != path.stem:
            found.extend((node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                         if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_no_module_reads_another_modules_private_names():
    offenders = {path.name: reads for path in sorted(SRC.glob("*.py"))
                 if (reads := foreign_private_reads(path))}
    assert offenders == {}


def test_guard_sees_a_private_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import bundle\nfrom .dynamics import _uncertainty_path\n"
                     "x = bundle._lift_samples\n", encoding="utf-8")
    assert foreign_private_reads(probe) == [(2, "dynamics._uncertainty_path"), (3, "bundle._lift_samples")]


# the kernels whose tolerance has two values in use, or a tighter one in a test
TOLERANCE_PARAMETERS = {
    ("bundle", "gauge_membership", "tol"),
    ("bundle", "lift_tangents", "tangent_tol"),
    ("bundle", "path_speeds_sq", "tangent_tol"),
    ("linalg", "check_hermitian_stack", "tol"),
    ("linalg", "polar_unitary_stack", "tol"),
    ("spectra", "validate", "norm_tol"),
}


def tolerance_definitions(path):
    """Names ending in _TOL that one file assigns at module level."""
    found = []
    for node in parsed(path).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found.extend(t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_TOL"))
    return found


def tolerance_parameters(path):
    """(module, function, parameter) of every parameter named tol, *_tol or strict."""
    found = set()
    for node in ast.walk(parsed(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            found.update((path.stem, node.name, a.arg) for a in args.posonlyargs + args.args + args.kwonlyargs
                         if a.arg in ("tol", "strict") or a.arg.endswith("_tol"))
    return found


def test_tolerances_are_defined_only_in_the_table():
    offenders = {path.name: names for path in sorted(SRC.glob("*.py"))
                 if path.stem != "tolerances" and (names := tolerance_definitions(path))}
    assert offenders == {}
    table = parsed(SRC / "tolerances.py")
    assert not [n for n in ast.walk(table) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_only_the_kernels_take_a_tolerance():
    found = set().union(*(tolerance_parameters(path) for path in SRC.glob("*.py")))
    assert found == TOLERANCE_PARAMETERS


NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
                "eleven", "twelve")


def docstring_kernels(path):
    """(count word, {(module, function)}) of the kernels a tolerance-table
    docstring lists as module.function after "Only <count> kernel parameters"."""
    doc = " ".join(ast.get_docstring(parsed(path)).split())
    count, names = re.search(r"Only (\w+) kernel parameters (.*?)\.(?:\s|$)", doc).groups()
    return count, {pair for pair in re.findall(r"\b(\w+)\.(\w+)\b", names) if pair[0] in MODULES}


def test_table_docstring_names_the_tolerance_kernels():
    count, named = docstring_kernels(SRC / "tolerances.py")
    assert named == {(module, function) for module, function, _ in TOLERANCE_PARAMETERS}
    assert count == NUMBER_WORDS[len(TOLERANCE_PARAMETERS)]


def test_docstring_guard_sees_the_list(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""Table.\n\nOnly two kernel parameters take one: linalg.cluster\n'
                     'and bundle.lift_tangents. Not os.path or spectra.validate."""\n', encoding="utf-8")
    assert docstring_kernels(probe) == ("two", {("linalg", "cluster"), ("bundle", "lift_tangents")})


def test_guard_sees_a_tolerance(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("EDGE_TOL = 1e-3\nLIMIT_TOL: float = 1.0\n\n\n"
                     "def f(x, tol=EDGE_TOL, *, strict=True):\n    LOCAL_TOL = tol\n", encoding="utf-8")
    assert tolerance_definitions(probe) == ["EDGE_TOL", "LIMIT_TOL"]
    assert tolerance_parameters(probe) == {("probe", "f", "tol"), ("probe", "f", "strict")}


# numpy.linalg calls that factor a matrix or solve with one; norm and the
# products stay free to use anywhere
DECOMPOSITIONS = {"cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "pinv",
                  "qr", "solve", "svd", "svdvals", "tensorinv", "tensorsolve"}


def numpy_decompositions(path):
    """(line, name) of every numpy.linalg decomposition or solve one file calls
    or imports by name."""
    found = []
    for node in ast.walk(parsed(path)):
        if (isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name) and node.value.value.id in ("np", "numpy")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend((node.lineno, alias.name) for alias in node.names if alias.name in DECOMPOSITIONS)
    return found


def test_numpy_decompositions_only_in_linalg():
    offenders = {path.name: calls for path in sorted(SRC.glob("*.py"))
                 if path.stem != "linalg" and (calls := numpy_decompositions(path))}
    assert offenders == {}
    assert numpy_decompositions(SRC / "linalg.py")


def test_guard_sees_a_decomposition(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy.linalg import qr, norm\n"
                     "u, s, vh = np.linalg.svd(a)\nn = np.linalg.norm(a)\n", encoding="utf-8")
    assert numpy_decompositions(probe) == [(2, "qr"), (3, "svd")]


# stack kernels that do not check Hermiticity, and the functions that may
# call them because their input was checked where it entered (unitary_eig:
# because it builds a Hermitian matrix itself; _steps: the step builder of
# evolve, whose schedule was checked when it was built)
TRUSTING_KERNELS = {"hermitian_eig_stack", "propagator_step_stack"}
TRUSTED_CALLERS = {("linalg", "hermitian_eig"), ("linalg", "unitary_eig"), ("bundle", "decompose_path"),
                   ("dynamics", "_steps")}


def trusting_kernel_uses(path):
    """(enclosing function, kernel) of every reference to a trusting kernel in one file."""
    found = set()
    for where, node in by_function(path):
        if isinstance(node, ast.ImportFrom):
            found.update((where, alias.name) for alias in node.names if alias.name in TRUSTING_KERNELS)
        elif name_of(node) in TRUSTING_KERNELS:
            found.add((where, name_of(node)))
    return found


def test_trusting_kernels_only_behind_a_check():
    callers = {(path.stem, where) for path in SRC.glob("*.py") for where, _ in trusting_kernel_uses(path)}
    assert callers == TRUSTED_CALLERS


def test_guard_sees_a_trusting_kernel(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .linalg import propagator_step_stack\n\n\n"
                     "def evolve(hs):\n    return linalg.hermitian_eig_stack(hs)\n\n\n"
                     "def planted(hs):\n    f = propagator_step_stack\n    return f(hs, 0.1)\n", encoding="utf-8")
    assert trusting_kernel_uses(probe) == {("<module>", "propagator_step_stack"), ("evolve", "hermitian_eig_stack"),
                                           ("planted", "propagator_step_stack")}


# a state is eigendecomposed once, by spectral_decompose, and a plan's
# generator once, by _flow; every other eigenframe is read from those
EIG_CALLERS = {("spectra", "spectral_decompose"), ("synthesis", "_flow")}


def hermitian_eig_calls(path):
    """Enclosing function of every call of hermitian_eig in one file."""
    return {where for where, node in by_function(path)
            if isinstance(node, ast.Call) and name_of(node.func) == "hermitian_eig"}


def test_hermitian_eig_only_where_pinned():
    assert in_src(hermitian_eig_calls) == EIG_CALLERS


def test_guard_sees_a_hermitian_eig_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import linalg\nfrom .linalg import hermitian_eig, hermitian_eig_stack\n\n\n"
                     "def complement(s):\n    return linalg.hermitian_eig(s @ s.T)[1]\n\n\n"
                     "def stack(ms):\n    return hermitian_eig_stack(ms)\n\n\n"
                     "values, frame = hermitian_eig(m)\n", encoding="utf-8")
    assert hermitian_eig_calls(probe) == {"complement", "<module>"}


def stride_reads(path):
    """Enclosing function of every read of an array's strides in one file."""
    return {where for where, node in by_function(path) if isinstance(node, ast.Attribute) and node.attr == "strides"}


def test_broadcast_rule_in_one_place():
    # a stack with sample-axis stride 0 is read at sample 0: linalg.stored_samples alone tests it
    assert in_src(stride_reads) == {("linalg", "stored_samples")}


def test_guard_sees_a_stride_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def check(ms):\n    return ms[:1] if ms.strides[0] == 0 else ms\n\n\n"
                     "def other(ms):\n    return not any(ms.strides[:-2])\n\n\n"
                     "def shape(ms):\n    return ms.shape[0] == 0\n", encoding="utf-8")
    assert stride_reads(probe) == {"check", "other"}


def one_sample_routes(path):
    """Enclosing function of every comparison of len(stored_samples(...)) in
    one file: a route taken when a stack stores one sample (a broadcast)."""
    return {where for where, node in by_function(path) if isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Call) and ast.unparse(side.func) == "len" and "stored_samples(" in ast.unparse(side)
        for side in [node.left, *node.comparators])}


def test_one_sample_routes_are_pinned():
    # the step builder, the constant-drive test, the Fisher-Rao length and the ordered-product
    # scan: each has a case in test_orbit.py::test_constant_is_a_layout, which runs it on a
    # broadcast and on a full copy; a fifth route joins that test
    assert in_src(one_sample_routes) == {("dynamics", "_steps"), ("bundle", "_constant_drive"),
                                         ("curves", "fisher_rao"), ("linalg", "_scan")}


def test_guard_sees_a_one_sample_route(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def steps(hs):\n    if len(stored_samples(hs)) == 1:\n        return hs[:1]\n\n\n"
                     "def drive(c):\n    return 1 == len(linalg.stored_samples(c.h))\n\n\n"
                     "def scan(hs):\n    return hs if len(linalg.stored_samples(hs)) > 1 else hs[0]\n\n\n"
                     "def other(hs):\n    n = len(stored_samples(hs))\n    return len(hs) == 1, n\n",
                     encoding="utf-8")
    assert one_sample_routes(probe) == {"steps", "drive", "scan"}


def per_block_routes(node):
    """Return, break, if and conditional-expression nodes under node, outside
    the loops nested in it, where only a Return leaves the block loop."""
    if isinstance(node, (ast.Return, ast.Break, ast.If, ast.IfExp)):
        yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.For, ast.While)):
            yield from (inner for inner in ast.walk(child) if isinstance(inner, ast.Return))
        else:
            yield from per_block_routes(child)


def branching_block_loops(path):
    """Enclosing function of every loop over sample_blocks, in one file, whose
    body returns, breaks or branches per block: a block that can take another
    route than the rest, as a stack that fits one block returned uncopied."""
    # names bound to the blocks (or alongside them) in one assignment
    blocks = {name.id for bind in ast.walk(parsed(path)) if isinstance(bind, ast.Assign)
              and "sample_blocks(" in ast.unparse(bind.value)
              for target in bind.targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    return {where for where, node in by_function(path) if isinstance(node, ast.For)
            and ("sample_blocks(" in (loop := ast.unparse(node.iter)) or loop in blocks)
            and any(per_block_routes(ast.Module(body=node.body, type_ignores=[])))}


def test_every_sample_block_takes_one_route():
    # each block kernel writes every block, a one-block stack too, through the same loop body
    assert in_src(branching_block_loops) == set()


def test_guard_sees_a_branching_block_loop(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def steps(hs, blocks, out):\n    for block in sample_blocks(len(hs), 2):\n"
                     "        if out is None:\n            return hs[block]\n        out[block] = hs[block]\n\n\n"
                     "def drive(hs, out):\n    parts = linalg.sample_blocks(len(hs), 2)\n    for block in parts:\n"
                     "        out = hs if len(parts) == 1 else out\n\n\n"
                     "def rotate(hs, out):\n    for block in linalg.sample_blocks(len(hs), 2):\n"
                     "        out[block] = hs[block]\n    if out is None:\n        return hs\n\n\n"
                     "def leave(hs):\n    for block in sample_blocks(len(hs), 2):\n        while hs:\n"
                     "            return hs[block]\n\n\n"
                     "def other(hs, out):\n    for block in sample_blocks(len(hs), 2):\n        for k in range(2):\n"
                     "            out[block] = hs[block] if k else out[block]\n    for k in range(len(hs)):\n"
                     "        if k:\n            return hs\n",
                     encoding="utf-8")
    assert branching_block_loops(probe) == {"steps", "drive", "leave"}


# per-sample norms of a stack come from linalg.stack_sq_norms alone; these
# are the other ways to take them: a sum or a matrix norm over two axes
TWO_AXIS_REDUCTIONS = {"np.sum": 1, "numpy.sum": 1, "np.linalg.norm": 2, "numpy.linalg.norm": 2}


def two_axis_reductions(path):
    """(line, function) of every np.sum, x.sum or np.linalg.norm call in one
    file whose axis, by keyword or by position, is a pair of axes."""
    found = []
    for node in ast.walk(parsed(path)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name in TWO_AXIS_REDUCTIONS:
            position = TWO_AXIS_REDUCTIONS[name]
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "sum":
            name, position = "sum", 0
        else:
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[position:position + 1]
        if any(isinstance(axis, ast.Tuple) and len(axis.elts) == 2 for axis in axes):
            found.append((node.lineno, name))
    return found


def test_stack_norms_only_through_the_kernel():
    offenders = {path.name: calls for path in sorted(SRC.glob("*.py")) if (calls := two_axis_reductions(path))}
    assert offenders == {}


def test_guard_sees_a_stack_norm(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n\n"
                     "a = np.linalg.norm(x, axis=(1, 2))\nb = np.sum(np.abs(x) ** 2, axis=(-2, -1))\n"
                     "c = np.linalg.norm(x, None, (-1, -2))\nd = (x.real**2).sum((1, 2))\n"
                     "e = np.sum(x, axis=-2)\nf = np.linalg.norm(x)\ng = x.all(axis=(1, 2))\n"
                     "h = linalg.stack_sq_norms(x)\n", encoding="utf-8")
    assert two_axis_reductions(probe) == [(3, "np.linalg.norm"), (4, "np.sum"), (5, "np.linalg.norm"), (6, "sum")]


# decompose_path trusts an orbit's propagators to carry its start's spectral
# path, so orbits are built only from the library's own unitary runs
ORBIT_BUILDERS = {("dynamics", "evolve"), ("synthesis", "SaturatingPlan.exact_states")}


def orbit_constructions(path):
    """Enclosing function, qualified by its class, of every call of
    UnitaryOrbit in one file."""
    return {where for where, node in by_function(path, classes=True)
            if isinstance(node, ast.Call) and name_of(node.func) == "UnitaryOrbit"}


def test_only_unitary_runs_build_orbits():
    assert in_src(orbit_constructions) == ORBIT_BUILDERS


def test_guard_sees_an_orbit_construction(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import curves\nfrom .curves import UnitaryOrbit\n\n\n"
                     "def evolve(u, rho):\n    return UnitaryOrbit(grid=None, propagators=u, start=rho)\n\n\n"
                     "class Plan:\n    def exact_states(self):\n"
                     "        return curves.UnitaryOrbit(grid=None, propagators=None, start=None)\n\n\n"
                     "def route(c):\n    return isinstance(c, UnitaryOrbit)\n\n\n"
                     "planted = UnitaryOrbit(grid=None, propagators=None, start=None)\n", encoding="utf-8")
    assert orbit_constructions(probe) == {"evolve", "Plan.exact_states", "<module>"}


# bundle alone tells an orbit from a plain curve: it reads what an orbit
# carries beyond its samples (its propagators and Hamiltonians) and decides
# which curves are differentiated, so invariants takes its speeds from
# bundle.curve_speeds_sq without knowing the route
CURVE_ROUTE_NAMES = {"UnitaryOrbit", "grid_derivative"}


def orbit_tests(path):
    """Line of every isinstance call in one file whose class argument names
    UnitaryOrbit."""
    return sorted(node.lineno for node in ast.walk(parsed(path))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2 and "UnitaryOrbit" in ast.unparse(node.args[1]))


def curve_route_reads(path):
    """(line, name) of every import or attribute read of UnitaryOrbit or
    grid_derivative in one file."""
    found = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names if alias.name in CURVE_ROUTE_NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in CURVE_ROUTE_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_bundle_tells_an_orbit_from_a_curve():
    testers = {path.stem for path in SRC.glob("*.py") if orbit_tests(path)}
    assert testers == {"bundle"}
    assert curve_route_reads(SRC / "invariants.py") == []


def test_guard_sees_an_orbit_test(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import curves\nfrom .curves import OperatorCurve, UnitaryOrbit, grid_derivative\n\n\n"
                     "def speeds(c):\n    if isinstance(c, curves.UnitaryOrbit):\n        return c.hamiltonians\n"
                     "    if isinstance(c, (OperatorCurve, UnitaryOrbit)):\n"
                     "        return curves.grid_derivative(c.samples, 1.0)\n"
                     "    return isinstance(c, OperatorCurve), type(c) is UnitaryOrbit\n", encoding="utf-8")
    assert orbit_tests(probe) == [6, 8]
    assert curve_route_reads(probe) == [(2, "UnitaryOrbit"), (2, "grid_derivative"), (6, "UnitaryOrbit"),
                                        (9, "grid_derivative")]


# CLI exit 2 says the method has a bug; these are the raise statements of
# ContractViolation or a subclass per (module, function), so a new exit-2
# path is added here on purpose
EXIT_TWO_RAISES = {("dynamics", "speed_report"): 2, ("invariants", "iso_report"): 2,
                   ("synthesis", "verify_saturation"): 7}


def contract_classes(path):
    """ContractViolation and the classes an errors module derives from it."""
    names = {"ContractViolation"}
    for node in parsed(path).body:
        if isinstance(node, ast.ClassDef) and any(name_of(b) in names for b in node.bases):
            names.add(node.name)
    return names


def contract_raises(path, contracts):
    """Count of raise statements of a contract class per (module, enclosing
    function) in one file."""
    return Counter((path.stem, where) for where, node in by_function(path)
                   if isinstance(node, ast.Raise) and name_of(getattr(node.exc, "func", node.exc)) in contracts)


def test_exit_two_raises_are_pinned():
    contracts = contract_classes(SRC / "errors.py")
    assert {"BoundViolated", "SaturationFailed"} <= contracts
    found = sum((contract_raises(path, contracts) for path in SRC.glob("*.py")), Counter())
    assert dict(found) == EXIT_TWO_RAISES


def test_guard_sees_a_contract_raise(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class HolonomyLabError(Exception):\n    pass\n\n\n"
                      "class ContractViolation(HolonomyLabError):\n    pass\n\n\n"
                      "class Drift(ContractViolation):\n    pass\n\n\n"
                      "class Deeper(errors.Drift):\n    pass\n\n\n"
                      "class OutOfRange(HolonomyLabError):\n    pass\n", encoding="utf-8")
    contracts = contract_classes(errors)
    assert contracts == {"ContractViolation", "Drift", "Deeper"}
    probe = tmp_path / "probe.py"
    probe.write_text("def check(x):\n    if x:\n        raise ContractViolation('a')\n"
                     "    raise errors.Deeper\n\n\n"
                     "def other(x):\n    try:\n        x()\n    except Exception:\n        raise\n"
                     "    raise OutOfRange('b')\n\n\n"
                     "raise Drift('c')\n", encoding="utf-8")
    assert contract_raises(probe, contracts) == {("probe", "check"): 2, ("probe", "<module>"): 1}


# public names that nothing in the pipeline calls, kept for what they compute;
# README's module table gives the same reasons
KEEP = {
    "assemble": "the tests' oracle that rebuilds a state from its spectral data; moved to tests/ it is no smaller",
    "curve_length_energy": "L and E of an open curve, which no closed-loop report gives; moved to tests/ no smaller",
}


def names_read(nodes):
    """Every name the nodes read: identifiers, attributes, imported names, and
    string constants that are identifiers (tables that look a name up by string)."""
    found = set()
    for node in (inner for outer in nodes for inner in ast.walk(outer)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def uncalled_names(paths, callers):
    """module.name of every public top-level def or class in paths that no
    other top-level statement of its file, no other file in paths and no
    file in callers reads, and module.Class.name of every public method or
    property of a public class that nothing but its own definition reads."""
    trees = {path: parsed(path).body for path in paths}
    outside = names_read(node for path in callers for node in parsed(path).body)
    found = []
    for path, body in trees.items():
        others = outside | names_read(node for other, nodes in trees.items() if other != path for node in nodes)
        for definition in body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = names_read(node for node in body if node is not definition)
            if not definition.name.startswith("_") and definition.name not in others | own:
                found.append(f"{path.stem}.{definition.name}")
            if not isinstance(definition, ast.ClassDef) or definition.name.startswith("_"):
                continue
            for member in definition.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_")
                        and member.name not in others | own | names_read(
                            node for node in definition.body if node is not member)):
                    found.append(f"{path.stem}.{definition.name}.{member.name}")
    return found


def unread_tolerances(table, paths):
    """The names a tolerance table assigns that no file in paths reads."""
    read = names_read(node for path in paths for node in parsed(path).body)
    return [name for name in tolerance_definitions(table) if name not in read]


def test_every_public_name_has_a_caller():
    # a caller is another library module, the benchmark or the acceptance
    # suite; the package's re-exports and a name's own tests do not count
    modules = sorted(path for path in SRC.glob("*.py") if path.stem != "__init__")
    callers = sorted((REPO / "bench").glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]
    assert {name.split(".", 1)[1] for name in uncalled_names(modules, callers)} == set(KEEP)
    assert unread_tolerances(SRC / "tolerances.py", [path for path in modules if path.stem != "tolerances"]) == []


def test_guard_sees_an_uncalled_name(tmp_path):
    lib, bench = tmp_path / "lib.py", tmp_path / "bench.py"
    lib.write_text("LIMIT_TOL = 1.0\nEDGE_TOL = 2.0\n\n\n"
                   "def called():\n    pass\n\n\ndef helper():\n    pass\n\n\n"
                   "def looked_up():\n    pass\n\n\ndef from_bench():\n    pass\n\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n\n\ndef uncalled():\n    return helper()\n\n\n"
                   "class Unused:\n    pass\n\n\ndef _private():\n    pass\n", encoding="utf-8")
    user = tmp_path / "user.py"
    user.write_text("from . import lib\nfrom .lib import called\n\n"
                    "TABLE = {'looked_up': None}\nx = tolerances.LIMIT_TOL\n", encoding="utf-8")
    bench.write_text("import lib as hl\n\nhl.from_bench()\n", encoding="utf-8")
    assert uncalled_names([lib, user], [bench]) == ["lib.recursive", "lib.uncalled", "lib.Unused"]
    assert unread_tolerances(lib, [user]) == ["EDGE_TOL"]


def test_guard_sees_an_uncalled_method(tmp_path):
    lib, bench = tmp_path / "lib.py", tmp_path / "bench.py"
    lib.write_text("class Basis:\n    m: tuple\n\n"
                   "    def __post_init__(self):\n        pass\n\n"
                   "    @property\n    def blocks(self):\n        return self.m\n\n"
                   "    @property\n    def labels(self):\n        return self.blocks\n\n"
                   "    def helper(self):\n        return self.blocks\n\n"
                   "    def used(self):\n        return self.helper()\n\n"
                   "    def from_bench(self):\n        pass\n\n"
                   "    def recursive(self):\n        return self.recursive()\n\n"
                   "    def _private(self):\n        pass\n\n\n"
                   "class _Hidden:\n    def unread(self):\n        pass\n\n\n"
                   "def build():\n    return Basis(m=()).used(), _Hidden()\n", encoding="utf-8")
    bench.write_text("import lib as hl\n\nhl.build()\nhl.Basis(m=()).from_bench()\n", encoding="utf-8")
    assert uncalled_names([lib], [bench]) == ["lib.Basis.labels", "lib.Basis.recursive"]


def unused_imports(path):
    """(line, name) of every name a module-level import of one file binds and
    the file never reads; from __future__ imports are not names."""
    tree = parsed(path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend((node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, alias.asname or alias.name) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_unused_imports():
    # the package's __init__ imports to re-export; the tests are held to the same rule
    paths = [path for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    offenders = {str(path.relative_to(path.parent.parent)): found
                 for path in paths + sorted((REPO / "tests").glob("*.py")) if (found := unused_imports(path))}
    assert offenders == {}


def test_guard_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n\nimport os\nimport numpy as np\nimport os.path\n"
                     "from . import linalg\nfrom .errors import Singular, NotClosed as Open\n\n\n"
                     "def f(x: Open):\n    import sys\n    return np.eye(2), sys, linalg.frob\n", encoding="utf-8")
    assert unused_imports(probe) == [(3, "os"), (5, "os"), (7, "Singular")]


def scipy_imports(path):
    """Line numbers of every import of scipy or a scipy submodule in one file."""
    found = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for alias in node.names if alias.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            found.append(node.lineno)
    return found


def test_no_module_imports_scipy():
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py")) if (lines := scipy_imports(path))}
    assert offenders == {}


def test_guard_sees_a_scipy_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nimport scipy.linalg\nfrom scipy import sparse\n"
                     "from .scipyish import x\nimport os, scipy\n", encoding="utf-8")
    assert scipy_imports(probe) == [2, 3, 5]


def test_cli_import_leaves_scipy_unloaded():
    # a fresh interpreter: this test process may have imported scipy itself
    code = "import sys, holonomy_lab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=SRC.parent, timeout=60)
    assert out.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = REPO / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps] == ["numpy"]
