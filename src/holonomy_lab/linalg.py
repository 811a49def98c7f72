"""Dense complex-matrix kernels.

Hermitian eigendecomposition with descending eigenvalues and degeneracy
clustering, polar decomposition, short-time unitary propagator steps,
running products of step stacks, and the Moore-Penrose pseudoinverse. All
matrices are plain complex ndarrays.

Propagator steps exp(-i dt H) take no eigendecomposition: they scale and
square a truncated Taylor series evaluated in Paterson-Stockmeyer form,
with the degree and the number of squarings fixed by the largest 1-norm of
dt H in the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonHermitian, RankDeficient, Singular

Array = np.ndarray

HERM_TOL = 1e-10
GAP_TOL = 1e-9
SINGULAR_TOL = 1e-12
ZERO_TOL = 1e-10


def as_cmat(m) -> Array:
    """Coerce input to a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def herm_deviation(m: Array) -> float:
    """Frobenius norm of the anti-Hermitian part of a square matrix."""
    return float(np.linalg.norm(m - m.conj().T))


def frob(m: Array) -> float:
    return float(np.linalg.norm(m))


@dataclass(frozen=True, eq=False)
class EigResult:
    """Spectral decomposition: descending real eigenvalues and an
    orthonormal frame whose column j pairs with value j."""

    values: Array
    frame: Array


def _square(m) -> Array:
    m = as_cmat(m)
    if m.shape[0] != m.shape[1]:
        raise NonHermitian(f"matrix is not square: {m.shape}")
    return m


def hermitian_eig(m: Array, tol: float = HERM_TOL) -> EigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises NonHermitian if the symmetry check fails and NoConvergence if
    the underlying iteration stalls.
    """
    vals, frames = hermitian_eig_stack(_square(m)[None], tol=tol)
    return EigResult(values=vals[0], frame=frames[0])


def check_hermitian_stack(ms: Array, tol: float = HERM_TOL) -> None:
    """Raise NonHermitian, naming the worst sample, if any matrix of the
    stack (N, n, n) deviates from Hermitian by more than tol (relative)."""
    dev = np.linalg.norm(ms - np.conj(np.swapaxes(ms, -1, -2)), axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(ms, axis=(-2, -1)))
    if np.any(dev > tol * scale):
        k = int(np.argmax(dev / scale))
        where = f"sample {k}: " if len(ms) > 1 else ""
        raise NonHermitian(f"{where}Hermiticity deviation {dev[k]:.3e} exceeds {tol:.3e}")


def hermitian_eig_stack(ms: Array, tol: float = HERM_TOL) -> tuple[Array, Array]:
    """Batched descending eigendecomposition of a stack (N, n, n) of
    Hermitian matrices. Returns (values (N, n), frames (N, n, n))."""
    ms = np.asarray(ms, dtype=np.complex128)
    check_hermitian_stack(ms, tol)
    try:
        w, v = np.linalg.eigh(ms)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w[:, ::-1].copy(), v[:, :, ::-1].copy()


def cluster(values, gap_tol: float = GAP_TOL) -> list[tuple[int, int]]:
    """Partition descending values into blocks of near-degenerate entries.

    Consecutive values closer than gap_tol share a block; the returned
    blocks are half-open index ranges (start, stop).
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return []
    blocks = []
    start = 0
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] > gap_tol:
            blocks.append((start, i))
            start = i
    blocks.append((start, vals.size))
    return blocks


def polar_unitary(m: Array, tol: float = SINGULAR_TOL) -> Array:
    """Unitary factor U of the polar decomposition M = U P.

    P = U^dag M is then Hermitian positive-definite. Raises Singular if the
    smallest singular value is at or below tol.
    """
    m = as_cmat(m)
    u, s, vh = np.linalg.svd(m)
    if m.shape[0] != m.shape[1] or s[-1] <= tol:
        raise Singular(f"smallest singular value {s[-1] if s.size else 0.0:.3e} <= {tol:.3e}")
    return u @ vh


def pinv(w: Array, tol: float = SINGULAR_TOL) -> Array:
    """Moore-Penrose pseudoinverse (W^dag W)^{-1} W^dag of a full-column-rank map."""
    w = as_cmat(w)
    gram = w.conj().T @ w
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= tol:
        raise RankDeficient(f"smallest Gram eigenvalue {eigvals[0]:.3e} <= {tol:.3e}")
    return np.linalg.solve(gram, w.conj().T)


# (degree m, power width q, theta_m): the Taylor degrees that Paterson-Stockmeyer
# evaluates in q + m/q - 2 matmuls, each with the 1-norm up to which the
# degree-m truncation of exp has backward error below 2^-53 (Higham,
# "Functions of Matrices", SIAM 2008, Table A.3)
_TAYLOR = (
    (1, 1, 2.29e-16), (2, 2, 2.58e-8), (4, 2, 3.40e-4), (6, 3, 9.07e-3), (9, 3, 8.96e-2),
    (12, 4, 3.00e-1), (16, 4, 7.81e-1), (20, 5, 1.44), (25, 5, 2.43), (30, 6, 3.54),
)


def _taylor_plan(norm: float) -> tuple[int, int, int]:
    """(degree, width, squarings) with the fewest matmuls for matrices of
    1-norm at most norm, preferring fewer squarings on a tie."""
    plans = []
    for degree, width, theta in _TAYLOR:
        squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        plans.append((width + degree // width - 2 + squarings, squarings, degree, width))
    _, squarings, degree, width = min(plans)
    return degree, width, squarings


def propagator_step(h: Array, dt: float, tol: float = HERM_TOL) -> Array:
    """exp(-i H dt) for Hermitian H; the N = 1 case of propagator_step_stack."""
    return propagator_step_stack(_square(h)[None], dt, tol=tol)[0]


def propagator_step_stack(hs: Array, dt: float, tol: float = HERM_TOL) -> Array:
    """Batched exp(-i H dt) over a stack (N, n, n) of Hermitian matrices.

    Scaling and squaring of the truncated Taylor series (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005): A = -i dt H is scaled by 2^-s, the
    polynomial is evaluated as a Horner scheme in A^q over blocks of q
    powers (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973), and the
    result is squared s times. Degree and s follow from the largest
    1-norm in the stack; at 1-norm 1e-3 that is degree 6, s = 0 and 3
    batched matmuls.
    """
    hs = np.asarray(hs, dtype=np.complex128)
    check_hermitian_stack(hs, tol)
    norm = abs(dt) * float(np.max(np.sum(np.abs(hs), axis=-2), initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("Hamiltonian stack has non-finite entries")
    degree, width, squarings = _taylor_plan(norm)
    a = (-1j * dt * 0.5**squarings) * hs
    powers = [a]  # A^1 .. A^q
    for _ in range(1, width):
        powers.append(powers[-1] @ a)
    coef = [1.0 / math.factorial(k) for k in range(degree + 1)]
    diag = np.arange(hs.shape[-1])
    # Horner in A^q over the blocks sum_i coef[j q + i] A^i, top block first
    u = coef[degree] * powers[-1]
    for j in reversed(range(degree // width)):
        for i in range(1, width):
            u += coef[j * width + i] * powers[i - 1]
        u[:, diag, diag] += coef[j * width]
        if j:
            u = u @ powers[-1]
    for _ in range(squarings):
        u = u @ u
    return u


def ordered_products(steps: Array, init: Array | None = None) -> Array:
    """Running left products of a stack (N, n, n) of step matrices.

    Returns the (N + 1, n, c) stack P_0 = init (the identity by default),
    P_{k+1} = steps[k] @ P_k. Computed as a two-level blocked scan
    (Blelloch, CMU-CS-90-190): the steps are cut into chunks of floor(sqrt N),
    the running products inside every chunk advance together, the chunk
    totals are chained from init, and one batched matmul applies them. That
    is about 2 sqrt(N) Python-level matmuls instead of N.
    """
    steps = np.asarray(steps, dtype=np.complex128)
    nstep, n, _ = steps.shape
    init = np.eye(n, dtype=np.complex128) if init is None else np.asarray(init, dtype=np.complex128)
    out = np.empty((nstep + 1, n, init.shape[1]), dtype=np.complex128)
    out[0] = init
    if nstep == 0:
        return out
    width = math.isqrt(nstep)
    nchunk = -(-nstep // width)
    # the last chunk is padded with identities; row j of a chunk ends up
    # holding steps[j] @ ... @ steps[0] of that chunk
    run = np.broadcast_to(np.eye(n, dtype=np.complex128), (nchunk * width, n, n)).copy()
    run[:nstep] = steps
    run = run.reshape(nchunk, width, n, n)
    for j in range(1, width):
        run[:, j] = run[:, j] @ run[:, j - 1]
    heads = np.empty((nchunk, n, init.shape[1]), dtype=np.complex128)
    heads[0] = init
    for i in range(nchunk - 1):
        heads[i + 1] = run[i, -1] @ heads[i]
    out[1:] = (run @ heads[:, None]).reshape(nchunk * width, n, init.shape[1])[:nstep]
    return out
