"""No module of the library reads another module's underscore names."""

import ast
from pathlib import Path

import holonomy_lab

SRC = Path(holonomy_lab.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def foreign_private_reads(path):
    """(line, text) of every read of <sibling module>._name in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
