import json

import numpy as np
import pytest

from holonomy_lab import bundle, dynamics, serialize, spectra
from holonomy_lab.curves import OperatorCurve
from holonomy_lab.errors import NonHermitian
from qutil import precessing_qubit_curve, rand_unitary


class TestMatrixRoundTrip:
    def test_bit_identical(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        data = json.loads(json.dumps(serialize.matrix_to_json(m)))
        back = serialize.matrix_from_json(data)
        assert np.array_equal(back, m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


class TestStateRoundTrip:
    def test_round_trip(self, rng):
        u = rand_unitary(rng, 3)
        rho = u @ np.diag([0.5, 0.3, 0.2]).astype(complex) @ u.conj().T
        data = json.loads(json.dumps(serialize.state_to_json(rho)))
        assert np.array_equal(serialize.state_from_json(data), rho)

    def test_dim_consistency(self):
        data = serialize.state_to_json(np.eye(2, dtype=complex) / 2)
        data["dim"] = 3
        with pytest.raises(ValueError):
            serialize.state_from_json(data)


class TestCurveRoundTrip:
    def test_round_trip(self):
        c = precessing_qubit_curve(0.6, 2 * np.pi, 0.7, 11)
        data = json.loads(json.dumps(serialize.curve_to_json(c)))
        back = serialize.curve_from_json(data)
        assert back.grid.tau == c.grid.tau
        assert np.array_equal(back.samples, c.samples)


class TestAmplitudeRoundTrip:
    def test_round_trip(self):
        rho = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        w = bundle.canonical_amplitude(rho)
        data = json.loads(json.dumps(serialize.amplitude_to_json(w)))
        back = serialize.amplitude_from_json(data)
        assert np.array_equal(back.w, w.w)
        assert back.basis.m == w.basis.m


class TestFileIO:
    def test_write_read(self, tmp_path):
        c = precessing_qubit_curve(0.2, 2 * np.pi, 0.7, 7)
        path = tmp_path / "curve.json"
        serialize.write_json(path, serialize.curve_to_json(c))
        back = serialize.curve_from_json(serialize.read_json(path))
        assert np.array_equal(back.samples, c.samples)


def edge_stack(rng):
    """Complex (7, 3, 3) stack salted with signed zeros, subnormals and +-1e308."""
    stack = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
    floats = stack.view(np.float64).reshape(7, 3, 3, 2)
    floats[0, 0, 0] = [0.0, -0.0]
    floats[0, 0, 1] = [-0.0, 0.0]
    floats[1, 1, 1] = [5e-324, -5e-324]
    floats[2, 0, 2] = [2.2250738585072e-310, -1e-320]
    floats[3, 2, 0] = [1e308, -1e308]
    floats[4, 1, 2] = [-1.7976931348623157e308, 1.7976931348623157e308]
    return stack


class TestStackCodec:
    def test_write_read_bit_identical(self, rng, tmp_path):
        stack = edge_stack(rng)
        path = tmp_path / "curve.json"
        serialize.write_json(path, {"tau": 1.0, "samples": serialize.matrix_to_json(stack)})
        back = serialize.stack_from_json(serialize.read_json(path)["samples"])
        assert np.array_equal(back.view(np.float64), stack.view(np.float64))
        # the float64 comparison treats -0.0 and 0.0 as equal; the bits do not
        assert np.array_equal(back.view(np.uint64), stack.view(np.uint64))

    def test_compact_and_indented_curve_files_read_back(self, rng, tmp_path):
        curve = OperatorCurve.from_samples(0.5, edge_stack(rng))
        payload = serialize.curve_to_json(curve)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        serialize.write_json(compact, payload)
        indented.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        for path in (compact, indented):
            back = serialize.curve_from_json(serialize.read_json(path))
            assert back.grid.tau == curve.grid.tau
            assert np.array_equal(back.samples.view(np.uint64), curve.samples.view(np.uint64))

    def test_write_json_is_compact(self, tmp_path):
        c = precessing_qubit_curve(0.6, 2 * np.pi, 0.7, 5)
        payload = {"curve": serialize.curve_to_json(c), "note": "x", "flag": True, "none": None}
        path = tmp_path / "out.json"
        serialize.write_json(path, payload)
        assert path.read_text(encoding="utf-8") == json.dumps(payload, separators=(",", ":")) + "\n"

    def test_matrix_to_json_matches_per_element(self, rng):
        stack = edge_stack(rng)
        per_element = [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in stack]
        assert serialize.matrix_to_json(stack) == per_element

    @pytest.mark.parametrize("k, shape", [(3, (3, 3)), (2, (1, 4)), (0, (3, 3)), (0, (1, 4))])
    def test_misshapen_sample_is_named(self, k, shape):
        samples = serialize.matrix_to_json(np.zeros((6, 2, 2)))
        samples[k] = serialize.matrix_to_json(np.zeros(shape))
        samples[5] = serialize.matrix_to_json(np.zeros((3, 3)))
        with pytest.raises(ValueError, match=f"sample {k} "):
            serialize.stack_from_json(samples)

    @pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], "x", None])
    def test_entry_not_a_pair_names_sample(self, entry):
        samples = serialize.matrix_to_json(np.zeros((5, 2, 2)))
        samples[4][1][0] = entry
        with pytest.raises(ValueError, match="sample 4 "):
            serialize.stack_from_json(samples)

    @pytest.mark.parametrize("samples", [
        [[[1.0, 2.0], [3.0, 4.0]], [[[0.0, 0.0]]]],  # sample 0 has no [re, im] axis
        [],
        5,
        None,
        {"samples": []},
    ])
    def test_bad_first_sample(self, samples):
        with pytest.raises(ValueError, match="sample 0 "):
            serialize.stack_from_json(samples)

    def test_schedule_shares_the_decoder(self):
        sched = dynamics.HamiltonianSchedule.constant(np.diag([1.0, -1.0]), 1.0, 4)
        data = serialize.curve_to_json(sched)
        back = serialize.schedule_from_json(data)
        assert isinstance(back, dynamics.HamiltonianSchedule)
        assert np.array_equal(back.samples, sched.samples)
        data["samples"][1] = serialize.matrix_to_json(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="sample 1 "):
            serialize.schedule_from_json(data)

    def test_schedule_non_hermitian_sample(self):
        data = serialize.curve_to_json(dynamics.HamiltonianSchedule.constant(np.eye(2), 1.0, 4))
        data["samples"][2] = serialize.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitian, match="sample 2"):
            serialize.schedule_from_json(data)
