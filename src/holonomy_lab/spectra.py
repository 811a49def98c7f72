"""Spectral data of density operators.

Eigenvalue/degeneracy spectra (p, m), the block-adapted auxiliary basis,
and decomposition of density matrices into near-degenerate eigenblocks with
the zero eigenvalue excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, tolerances
from .errors import (
    LengthMismatch,
    NonHermitian,
    NotAState,
    NotDescending,
    NotNormalized,
)

Array = np.ndarray


def validate(p, m, norm_tol: float = tolerances.NORM_TOL) -> None:
    """Check that (p, m) is a valid spectral pair.

    p must be finite, positive and strictly descending, m positive integers
    of the same length, and sum_j m_j p_j = 1 within norm_tol. Raises
    NotDescending, NotNormalized, or LengthMismatch.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(EigenprojectorBasis(m).m)
    if p.ndim != 1 or p.size != m.size:
        raise LengthMismatch(f"p has length {p.size}, m has length {m.size}")
    if not np.all(np.isfinite(p)):
        j = int(np.argmin(np.isfinite(p)))
        raise NotNormalized(f"eigenvalue {j} is not finite: {p[j]!r}")
    if np.any(p <= 0.0):
        raise NotDescending("eigenvalues must be positive")
    if np.any(p[:-1] - p[1:] <= 0.0):
        raise NotDescending(f"eigenvalues not strictly descending: {p.tolist()}")
    total = float(np.dot(p, m))
    if abs(total - 1.0) > norm_tol:
        raise NotNormalized(f"sum_j m_j p_j = {total!r} != 1")


@dataclass(frozen=True)
class EigenprojectorBasis:
    """Block-adapted orthonormal basis of the auxiliary space.

    Basis index q maps to the label (j, a): block j of size m_j, slot a.
    The j-th block projector is the identity on slots of block j.
    """

    m: tuple[int, ...]

    def __post_init__(self):
        try:
            m = np.asarray(self.m, dtype=float)
            flags = np.asarray(self.m, dtype=object).ravel()
        except (TypeError, ValueError):
            raise LengthMismatch(f"degeneracies m must be numbers, got {self.m}") from None
        if any(isinstance(x, (bool, np.bool_)) for x in flags):  # True is no multiplicity of 1
            raise LengthMismatch(f"degeneracies m must be numbers, got {self.m}")
        if m.ndim != 1 or m.size == 0 or not np.all(np.isfinite(m) & (m >= 1.0) & (m == np.round(m))):
            raise LengthMismatch(f"degeneracies must be positive integers, got {self.m}")
        object.__setattr__(self, "m", tuple(int(x) for x in m))

    @property
    def dim_k(self) -> int:
        return sum(self.m)

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """Half-open index ranges of the blocks."""
        out, start = [], 0
        for mj in self.m:
            out.append((start, start + mj))
            start += mj
        return out

    def lambda_mat(self, j: int) -> Array:
        """Projector onto block j (0-based) as a dim_k x dim_k matrix."""
        lam = np.zeros((self.dim_k, self.dim_k), dtype=np.complex128)
        lo, hi = self.blocks[j]
        lam[lo:hi, lo:hi] = np.eye(hi - lo)
        return lam

    def block_diag_part(self, mat: Array) -> Array:
        """sum_j Lambda_j M Lambda_j: zero everything off the blocks."""
        out = np.zeros_like(mat)
        for lo, hi in self.blocks:
            out[lo:hi, lo:hi] = mat[lo:hi, lo:hi]
        return out

    def offblock_norm(self, mat: Array) -> float:
        """Frobenius mass of the entries off the block diagonal."""
        return float(np.linalg.norm(mat - self.block_diag_part(mat)))

    def algebra_basis(self) -> list[Array]:
        """Real basis of the skew-Hermitian block-commuting operators.

        Its span has dimension sum_j m_j^2, matching the gauge group.
        """
        out = []
        for lo, hi in self.blocks:
            for a in range(lo, hi):
                x = np.zeros((self.dim_k, self.dim_k), dtype=np.complex128)
                x[a, a] = 1j
                out.append(x)
                for b in range(a + 1, hi):
                    x = np.zeros((self.dim_k, self.dim_k), dtype=np.complex128)
                    x[a, b], x[b, a] = 1.0, -1.0
                    out.append(x / np.sqrt(2.0))
                    x = np.zeros((self.dim_k, self.dim_k), dtype=np.complex128)
                    x[a, b], x[b, a] = 1j, 1j
                    out.append(x / np.sqrt(2.0))
        return out


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix together with its cached spectral data.

    p holds the distinct positive eigenvalues (block means, descending), m
    their multiplicities, and full_frame the n x n unitary eigenframe of the
    matrix as eigh returned it: the support eigenvectors block by block, then
    an orthonormal basis of the zero eigenspace. frames, support_frame and
    kernel are column views of full_frame.
    """

    matrix: Array
    p: tuple[float, ...]
    m: tuple[int, ...]
    full_frame: Array

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return sum(self.m)

    @property
    def basis(self) -> EigenprojectorBasis:
        return EigenprojectorBasis(self.m)

    @property
    def frames(self) -> tuple[Array, ...]:
        return tuple(self.full_frame[:, lo:hi] for lo, hi in self.basis.blocks)

    @property
    def support_frame(self) -> Array:
        """All support eigenvectors, block by block, as an n x r matrix."""
        return self.full_frame[:, : self.rank]

    @property
    def kernel(self) -> Array:
        return self.full_frame[:, self.rank :]


def spectral_decompose(rho) -> DensityOperator:
    """Decompose a density matrix into near-degenerate positive eigenblocks.

    Eigenvalues within GAP_TOL of each other are merged into one block;
    eigenvalues at or below ZERO_TOL are treated as the excluded zero
    eigenvalue. The state keeps hermitian_eig's whole frame, its one eigendecomposition.
    Raises NotAState if the Hermitian/PSD/unit-trace checks fail.
    """
    rho = linalg.as_cmat(rho)
    try:
        values, frame = linalg.hermitian_eig(rho)
    except NonHermitian as exc:
        raise NotAState(f"not Hermitian within tolerance: {exc}") from exc
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tolerances.STATE_TOL:
        raise NotAState(f"trace {tr!r} != 1")
    if values[-1] < -tolerances.STATE_TOL:
        raise NotAState(f"negative eigenvalue {values[-1]:.3e}")
    positive = values > tolerances.ZERO_TOL
    r = int(np.count_nonzero(positive))
    if r == 0:
        raise NotAState("zero rank")
    blocks = linalg.cluster(values[:r])
    p = tuple(float(np.mean(values[lo:hi])) for lo, hi in blocks)
    m = tuple(hi - lo for lo, hi in blocks)
    return DensityOperator(matrix=rho, p=p, m=m, full_frame=frame)


def assemble(p, m, frames) -> Array:
    """Rebuild the density matrix sum_j p_j Psi_j Psi_j^dag from spectral data."""
    validate(p, m, tolerances.ASSEMBLE_NORM_TOL)
    n = frames[0].shape[0]
    rho = np.zeros((n, n), dtype=np.complex128)
    for pj, f in zip(p, frames):
        rho += pj * (f @ f.conj().T)
    return rho
