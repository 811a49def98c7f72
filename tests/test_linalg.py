import numpy as np
import pytest

from holonomy_lab import linalg
from holonomy_lab.errors import NonHermitian, RankDeficient, Singular
from qutil import rand_unitary, sequential_products

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


class TestHermitianEig:
    def test_identity(self):
        eig = linalg.hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(eig.values, [1.0, 1.0])
        assert np.allclose(eig.frame.conj().T @ eig.frame, np.eye(2), atol=1e-14)

    def test_already_diagonal(self):
        eig = linalg.hermitian_eig(SIGMA3)
        assert np.allclose(eig.values, [1.0, -1.0])
        assert np.allclose(np.abs(eig.frame), np.eye(2), atol=1e-14)

    def test_qubit_closed_form(self):
        # eigenvalues of (omega/2) n.sigma are +-(omega/2)|n|
        omega = 2.0
        eig = linalg.hermitian_eig(0.5 * omega * SIGMA3)
        assert np.allclose(eig.values, [1.0, -1.0])

    def test_rejects_non_hermitian(self):
        # one matrix: no sample index, and the tolerance is stated
        with pytest.raises(NonHermitian, match=r"^Hermiticity deviation 1\.414e\+00 exceeds 1\.000e-10$"):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_reconstruction(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = 0.5 * (z + z.conj().T)
            eig = linalg.hermitian_eig(m)
            rebuilt = (eig.frame * eig.values) @ eig.frame.conj().T
            assert np.linalg.norm(m - rebuilt) <= 1e-10
            assert np.all(np.diff(eig.values) <= 1e-12)


class TestCluster:
    def test_exact_tie(self):
        assert linalg.cluster([0.5, 0.25, 0.25], 1e-8) == [(0, 1), (1, 3)]

    def test_sub_tolerance_tie(self):
        assert linalg.cluster([0.5, 0.5 - 1e-12, 1e-3], 1e-9) == [(0, 2), (2, 3)]

    def test_multiplicities(self):
        blocks = linalg.cluster([0.4, 0.3, 0.3], 1e-8)
        assert [hi - lo for lo, hi in blocks] == [1, 2]

    def test_empty(self):
        assert linalg.cluster([], 1e-9) == []


class TestPolarUnitary:
    def test_unitary_fixed_point(self, rng):
        v = rand_unitary(rng, 4)
        assert np.allclose(linalg.polar_unitary(v), v, atol=1e-13)

    def test_positive_diagonal(self):
        d = np.diag([2.0, 0.5, 1.0]).astype(complex)
        assert np.allclose(linalg.polar_unitary(d), np.eye(3), atol=1e-14)

    def test_recovers_constructed_factor(self, rng):
        # build M = U P from known factors; the construction is the oracle
        for n in (2, 3, 5):
            u = rand_unitary(rng, n)
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = z @ z.conj().T + 0.5 * np.eye(n)
            m = u @ p
            assert np.linalg.norm(linalg.polar_unitary(m) - u) <= 1e-12

    def test_positive_part(self, rng):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = z + 3.0 * np.eye(3)
        u = linalg.polar_unitary(m)
        pos = u.conj().T @ m
        assert np.linalg.norm(pos - pos.conj().T) <= 1e-12
        assert np.all(np.linalg.eigvalsh(0.5 * (pos + pos.conj().T)) > 0)

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            linalg.polar_unitary(np.diag([1.0, 0.0]).astype(complex))


class TestPinv:
    def test_orthonormal_columns(self, rng):
        w = rand_unitary(rng, 4)[:, :2]
        assert np.allclose(linalg.pinv(w), w.conj().T, atol=1e-13)

    def test_scaled_columns(self, rng):
        p = 0.3
        w = np.sqrt(p) * rand_unitary(rng, 3)[:, :2]
        assert np.allclose(linalg.pinv(w), w.conj().T / p, atol=1e-13)

    def test_square_invertible(self, rng):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
        assert np.allclose(linalg.pinv(z), np.linalg.inv(z), atol=1e-10)

    def test_moore_penrose_identities(self, rng):
        for _ in range(10):
            rows = int(rng.integers(2, 7))
            cols = int(rng.integers(1, rows + 1))
            w = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            g = linalg.pinv(w)
            assert np.linalg.norm(w @ g @ w - w) <= 1e-10
            assert np.linalg.norm(g @ w @ g - g) <= 1e-10
            assert np.linalg.norm((w @ g) - (w @ g).conj().T) <= 1e-10
            assert np.linalg.norm((g @ w) - (g @ w).conj().T) <= 1e-10
            assert np.linalg.norm(g @ w - np.eye(cols)) <= 1e-10

    def test_rank_deficient_rejected(self):
        w = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(RankDeficient):
            linalg.pinv(w)


class TestPropagatorStep:
    def test_zero_hamiltonian(self):
        assert np.allclose(linalg.propagator_step(np.zeros((3, 3)), 0.7), np.eye(3), atol=1e-15)

    def test_diagonal_phases(self):
        u = linalg.propagator_step(SIGMA3, np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_qubit_closed_form(self, rng):
        # exp(-i t (omega/2) n.sigma) = cos(wt/2) 1 - i sin(wt/2) n.sigma
        from holonomy_lab.dynamics import SIGMA1, SIGMA2

        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        omega, t = 2.0 * np.pi, 0.37
        h = 0.5 * omega * (n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3)
        expected = np.cos(0.5 * omega * t) * np.eye(2) - 1j * np.sin(0.5 * omega * t) * (
            n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3
        )
        assert np.linalg.norm(linalg.propagator_step(h, t) - expected) <= 1e-12

    def test_unitarity_and_determinant(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (z + z.conj().T)
            dt = float(rng.uniform(0.01, 0.5))
            u = linalg.propagator_step(h, dt)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12
            expected_det = np.exp(-1j * np.trace(h) * dt)
            assert abs(np.linalg.det(u) - expected_det) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            linalg.propagator_step(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


def unitary_steps(rng, nstep: int, n: int) -> np.ndarray:
    z = rng.standard_normal((nstep, n, n)) + 1j * rng.standard_normal((nstep, n, n))
    return np.linalg.qr(z)[0]


class TestOrderedProducts:
    @pytest.mark.parametrize("nstep", [0, 1, 2, 16, 17, 4000])
    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("rect", [False, True], ids=["identity", "rectangular"])
    def test_matches_sequential_loop(self, rng, nstep, n, rect):
        steps = unitary_steps(rng, nstep, n)
        init = rand_unitary(rng, n)[:, : n // 2] if rect else None
        got = linalg.ordered_products(steps, init)
        want = sequential_products(steps, init)
        assert got.shape == want.shape == (nstep + 1, n, n // 2 if rect else n)
        assert np.max(np.abs(got - want)) <= 1e-13
