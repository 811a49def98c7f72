import numpy as np
import pytest

from holonomy_lab import spectra
from holonomy_lab.errors import (
    LengthMismatch,
    NotAState,
    NotDescending,
    NotNormalized,
)
from qutil import projector, rand_unitary


class TestValidate:
    def test_pure(self):
        spectra.validate([1.0], [1])

    def test_mixed(self):
        spectra.validate([0.5, 0.25], [1, 2])

    def test_not_descending(self):
        with pytest.raises(NotDescending):
            spectra.validate([0.25, 0.5], [2, 1])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            spectra.validate([0.5, 0.3], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spectra.validate([0.5, 0.5], [1])

    @pytest.mark.parametrize("check", [spectra.validate, lambda p, m: spectra.assemble(p, m, [np.eye(2)[:, :1]] * 2)],
                             ids=["validate", "assemble"])
    def test_non_integral_m_rejected(self, check):
        # m = (1.2, 1.7) must not truncate to (1, 1), which sums to 1 against p
        with pytest.raises(LengthMismatch, match="positive integers"):
            check([0.6, 0.4], [1.2, 1.7])

    def test_nonpositive(self):
        with pytest.raises(NotDescending):
            spectra.validate([1.2, -0.2], [1, 1], norm_tol=1e-6)

    @pytest.mark.parametrize("p, m, j", [([np.nan], [1], 0), ([0.5, np.nan], [1, 1], 1),
                                         ([np.inf, 0.5], [1, 1], 0)])
    def test_non_finite_rejected(self, p, m, j):
        with pytest.raises(NotNormalized, match=f"eigenvalue {j} is not finite"):
            spectra.validate(p, m)


class TestSpectralDecompose:
    def test_diagonal(self):
        rho = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        assert rho.p == (0.7, 0.3)
        assert rho.m == (1, 1)
        assert rho.rank == 2
        assert rho.kernel.shape == (2, 0)

    def test_zero_eigenvalue_excluded(self):
        rho = spectra.spectral_decompose(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
        assert np.allclose(rho.p, (0.5, 0.25))
        assert rho.m == (1, 2)
        assert rho.rank == 3
        assert rho.dim == 4
        assert rho.kernel.shape == (4, 1)

    def test_unitary_orbit(self, rng):
        base = np.diag([0.7, 0.3]).astype(complex)
        ref = spectra.spectral_decompose(base)
        for _ in range(5):
            u = rand_unitary(rng, 2)
            rotated = spectra.spectral_decompose(u @ base @ u.conj().T)
            assert np.allclose(rotated.p, ref.p, atol=1e-12)
            assert rotated.m == ref.m
            for j in range(len(ref.m)):
                expected = u @ projector(ref, j) @ u.conj().T
                assert np.linalg.norm(projector(rotated, j) - expected) <= 1e-10

    def test_rejects_non_states(self):
        with pytest.raises(NotAState):
            spectra.spectral_decompose(np.diag([0.7, 0.4]).astype(complex))
        with pytest.raises(NotAState):
            spectra.spectral_decompose(np.diag([1.3, -0.3]).astype(complex))
        with pytest.raises(NotAState):
            spectra.spectral_decompose(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_round_trip(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            vals = np.sort(rng.uniform(0.05, 1.0, size=dim))[::-1]
            vals /= vals.sum()
            u = rand_unitary(rng, dim)
            mat = u @ np.diag(vals).astype(complex) @ u.conj().T
            rho = spectra.spectral_decompose(mat)
            rebuilt = spectra.assemble(rho.p, rho.m, rho.frames)
            assert np.linalg.norm(rebuilt - mat) <= 1e-9

    def test_degeneracy_conjugation_invariant(self, rng):
        base = np.diag([0.4, 0.2, 0.2, 0.1, 0.1]).astype(complex)
        m_ref = spectra.spectral_decompose(base).m
        for _ in range(100):
            dim = 5
            u = rand_unitary(rng, dim)
            rho = spectra.spectral_decompose(u @ base @ u.conj().T)
            assert rho.m == m_ref

    def test_frames_blockwise_orthonormal(self, rng):
        u = rand_unitary(rng, 4)
        mat = u @ np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex) @ u.conj().T
        rho = spectra.spectral_decompose(mat)
        full = rho.full_frame
        assert np.linalg.norm(full.conj().T @ full - np.eye(4)) <= 1e-12

    def test_frames_are_views_of_the_full_frame(self, rng):
        # one eigendecomposition per state: the per-block frames, the support
        # and the kernel are columns of eigh's frame, not copies of it
        u = rand_unitary(rng, 5)
        rho = spectra.spectral_decompose(u @ np.diag([0.5, 0.25, 0.25, 0.0, 0.0]).astype(complex) @ u.conj().T)
        views = (*rho.frames, rho.support_frame, rho.kernel)
        assert [v.shape for v in views] == [(5, 1), (5, 2), (5, 3), (5, 2)]
        assert all(np.shares_memory(v, rho.full_frame) for v in views)
        assert np.array_equal(np.concatenate(views[:2] + views[3:], axis=1), rho.full_frame)


class TestSimplexCoords:
    def test_constraint_surface_dimension(self):
        # tangent directions dx with m.dx = 0 span an (l-1)-dim space
        m = np.array([1, 2, 3], dtype=float)
        basis = np.eye(3) - np.outer(m, m) / (m @ m)
        assert np.linalg.matrix_rank(basis, tol=1e-12) == m.size - 1


class TestEigenprojectorBasis:
    @pytest.mark.parametrize("m", [(1.2, 1.7), (0,), (np.nan,), (np.inf,), (), ((1, 2),)])
    def test_rejects_non_integral_or_nonpositive_m(self, m):
        with pytest.raises(LengthMismatch, match="positive integers"):
            spectra.EigenprojectorBasis(m=m)

    def test_integral_values_become_ints(self):
        assert spectra.EigenprojectorBasis(m=(np.int64(1), 2.0)).m == (1, 2)

    def test_blocks_and_labels(self):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        assert basis.dim_k == 3
        assert basis.blocks == [(0, 1), (1, 3)]
        # the (j, a) label of each basis index, blocks and slots 1-based
        assert [(j + 1, a - lo + 1) for j, (lo, hi) in enumerate(basis.blocks) for a in range(lo, hi)] == [
            (1, 1), (2, 1), (2, 2)]

    def test_lambda_projectors(self):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        lam0, lam1 = basis.lambda_mat(0), basis.lambda_mat(1)
        assert np.allclose(lam0 + lam1, np.eye(3))
        assert np.allclose(lam0 @ lam1, 0)

    def test_algebra_basis_spans_blocks(self):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        elems = basis.algebra_basis()
        assert len(elems) == 1 + 4  # sum of m_j^2
        for x in elems:
            assert np.linalg.norm(x + x.conj().T) <= 1e-14
            assert basis.offblock_norm(x) <= 1e-14
