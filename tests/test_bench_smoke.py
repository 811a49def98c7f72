"""One op of every benchmark workload, so a library change that breaks the
benchmark shows up in the test suite. Nothing here is timed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed=0, workdir=tmp_path)
    result = workload.op(0)
    accuracy = workload.check(0, result)
    assert set(accuracy) == {"phase", "bound", "length_gap"}
