"""Dense complex-matrix kernels.

Products of matrix stacks, Hermitian eigendecomposition with descending
eigenvalues and degeneracy clustering, unitary eigenphases, polar
decomposition, short-time unitary propagator steps, running and total
products of step stacks, and the Moore-Penrose pseudoinverse. All matrices
are plain complex ndarrays.

Every product of two stacks, or of a stack and one matrix, goes through
matmul_stack. numpy's batched matmul makes one BLAS call per matrix, so a
stack times one fixed matrix on its right is one GEMM over the stack's
rows, and two stacks whose product block has at most 9 entries are
multiplied entry by entry, each entry a j-ordered sum of products of
(N,)-vectors (batched matmul spends about 0.3 us per matrix on such blocks
whatever their size); larger pairs of stacks go to matmul. Per-sample
squared Frobenius norms of a stack go through stack_sq_norms.

Per-sample kernels on long stacks (propagator steps, the Hermiticity check,
eigenframe rotations, synthesis) loop over sample_blocks of about
_BLOCK_BYTES into one output, so their temporaries are reused instead of
faulted in afresh; a stack that fits one block is copied into its output too.

Hermiticity is checked where a matrix enters: by as_hermitian for one matrix,
by check_hermitian_stack for a stack. The stack kernels trust their callers.
A stack whose sample axis has stride 0 (np.broadcast_to) holds one matrix: the
checks and comparisons of a stack read its stored_samples, there sample 0, and
the scan of a broadcast step stack forms one chunk's products.

Propagator steps exp(-i dt H) take no eigendecomposition: they scale and
square a truncated Taylor series evaluated in Paterson-Stockmeyer form,
with the degree and the number of squarings fixed by the largest 1-norm of
dt H in the stack. Running products of a step stack take a recursive
blocked scan: chunks of 16 steps advance together, the chunk totals are
scanned the same way, and each level costs about 16 Python-level products,
so N steps take about 16 log_16 N of them. One step broadcast (a constant
schedule's) gives every chunk the same powers of it: they are formed once,
15 single-matrix products, and broadcast over the chunks. Polar factors
take Newton-Schulz matmuls where a Frobenius certificate bounds the singular
values near 1, and an SVD elsewhere. Stacks of 1x1 matrices are scalars:
their polar factor is the phase z/|z|, their eigenphase the angle of z, and
their product a product of numbers.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances
from .errors import NoConvergence, NonHermitian, RankDeficient, Singular

Array = np.ndarray


def as_cmat(m) -> Array:
    """Coerce input to a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def frob(m: Array) -> float:
    return float(np.linalg.norm(m))


# matmul_stack sums a product of two stacks entry by entry when its block has
# at most _SMALL_BLOCK**2 entries: n m k vector products then beat batched
# matmul's fixed cost per matrix, (4001, 2, 2) and (4000, 2, 6) @ (4000, 6, 2)
# included; a 4 x 4 block or larger goes to matmul
_SMALL_BLOCK = 3


def matmul_stack(a: Array, b: Array) -> Array:
    """a @ b for stacks of matrices (ndim >= 2, batch axes broadcast), with
    matmul's shape and dtype. A stack times one matrix on its right is one
    GEMM, the stack's rows times it, a.reshape(-1, k) @ b. Two stacks whose
    (n, m) product has n m <= _SMALL_BLOCK**2 entries take each entry as a
    sum over the batch,
    out[..., i, l] = sum_j a[..., i, j] b[..., j, l] in j order: n m k
    products of (N,)-vectors, where batched matmul pays a fixed cost per
    matrix. A matrix on the left, or one broadcast over a batch, is taken
    as a stack."""
    a, b = np.asarray(a), np.asarray(b)
    n, k = a.shape[-2:]
    m = b.shape[-1]
    if k == b.shape[-2] and b.ndim == 2:
        return (a.reshape(math.prod(a.shape[:-1]), k) @ b).reshape(a.shape[:-1] + (m,))
    if not 0 < k == b.shape[-2] or n * m > _SMALL_BLOCK**2:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (n, m), np.result_type(a, b))
    for i in range(n):
        for l in range(m):
            entry = a[..., i, 0] * b[..., 0, l]
            for j in range(1, k):
                entry += a[..., i, j] * b[..., j, l]
            out[..., i, l] = entry
    return out


def stack_sq_norms(x: Array) -> Array:
    """Squared Frobenius norms sum |x[k, ...]|^2 of the samples of a stack
    (N, ...), real or complex, as one contraction of its float view."""
    flat = np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:]))
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    return np.einsum("ki,ki->k", flat, flat)


def as_hermitian(m) -> Array:
    """Coerce input to a finite complex128 matrix, square and Hermitian at HERM_TOL."""
    m = as_cmat(m)
    if m.shape[0] != m.shape[1]:
        raise NonHermitian(f"matrix is not square: {m.shape}")
    check_hermitian_stack(m[None])
    return m


def hermitian_eig(m: Array) -> tuple[Array, Array]:
    """Eigendecomposition (values, frame) of a Hermitian matrix: values
    descending, column j of the orthonormal frame paired with values[j].

    Raises NonHermitian if the symmetry check fails and NoConvergence if
    the underlying iteration stalls.
    """
    vals, frames = hermitian_eig_stack(as_hermitian(m)[None])
    return vals[0], frames[0]


def unitary_eig(u: Array) -> tuple[Array, Array]:
    """Eigenphases in [0, 2pi) and an orthonormal eigenbasis q (column j for
    phases[j]) of a unitary u, not checked. q is eigh's frame of the Hermitian
    Cayley transform i (I + V)^{-1} (I - V), V = e^{-i phi} u with -1 mid-way
    across the widest phase gap, so it stays orthonormal inside degenerate
    clusters; the phases are read back from diag(q^dag u q). A 1x1 u is a
    scalar: its phase, with q = [[1]]."""
    u = as_cmat(u)
    if len(u) == 1:
        q, diag = np.ones((1, 1), dtype=np.complex128), u[0]
    else:
        eye = np.eye(len(u))
        ph = np.sort(np.mod(np.angle(np.linalg.eigvals(u)), math.tau))
        gaps = np.diff(ph, append=ph[0] + math.tau)
        k = int(np.argmax(gaps))
        v = np.exp(-1j * (ph[k] + 0.5 * gaps[k] - math.pi)) * u
        c = 1j * np.linalg.solve(eye + v, eye - v)
        q = hermitian_eig_stack(0.5 * (c + c.conj().T)[None])[1][0]  # Hermitian by construction
        diag = np.diag(q.conj().T @ u @ q)
    phases = np.mod(np.angle(diag), math.tau)
    return np.where(phases < math.tau, phases, 0.0), q  # mod rounds a tiny negative angle up to 2pi


def stored_samples(ms: Array) -> Array:
    """The samples a stack (N, ...) stores: ms[:1] when its sample axis has stride 0, else ms."""
    return ms[:1] if ms.strides[0] == 0 else ms


def check_hermitian_stack(ms: Array, tol: float = tolerances.HERM_TOL) -> None:
    """Raise NonHermitian, naming the worst sample, if any matrix of the
    stack (N, n, n) deviates from Hermitian by more than tol (relative)."""
    n_samples, ms = len(ms), stored_samples(ms)
    dev, scale = np.empty(len(ms)), np.empty(len(ms))
    with np.errstate(over="ignore", invalid="ignore"):  # entries near 1e308 give norms of inf
        for block in sample_blocks(len(ms), ms.shape[-1]):
            dev[block] = np.sqrt(stack_sq_norms(ms[block] - np.conj(np.swapaxes(ms[block], -1, -2))))
            scale[block] = np.maximum(1.0, np.sqrt(stack_sq_norms(ms[block])))
        for k in np.flatnonzero(np.isposinf(scale)):  # the same relative test on m / max|m_ij|, in range
            m = ms[k] / np.max(np.abs(ms[k]))
            dev[k], scale[k] = np.linalg.norm(m - m.conj().T), np.linalg.norm(m)
    if np.any(dev > tol * scale):
        k = int(np.argmax(dev / scale))
        where = f"sample {k}: " if n_samples > 1 else ""
        raise NonHermitian(f"{where}Hermiticity deviation {dev[k]:.3e} exceeds {tol:.3e}")


def hermitian_eig_stack(ms: Array) -> tuple[Array, Array]:
    """Batched descending eigendecomposition of a checked stack (N, n, n) of
    Hermitian matrices. Returns (values (N, n), frames (N, n, n))."""
    ms = np.asarray(ms, dtype=np.complex128)
    try:
        w, v = np.linalg.eigh(ms)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w[:, ::-1].copy(), v[:, :, ::-1].copy()


def cluster(values) -> list[tuple[int, int]]:
    """Partition descending values into blocks of near-degenerate entries.

    Consecutive values closer than GAP_TOL share a block; the returned
    blocks are half-open index ranges (start, stop).
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return []
    blocks = []
    start = 0
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] > tolerances.GAP_TOL:
            blocks.append((start, i))
            start = i
    blocks.append((start, vals.size))
    return blocks


def polar_unitary(m: Array) -> Array:
    """Unitary factor U of the polar decomposition M = U P; the N = 1 case
    of polar_unitary_stack at SINGULAR_TOL.

    P = U^dag M is then Hermitian positive-definite. Raises Singular if M
    is not square or its smallest singular value is at or below SINGULAR_TOL.
    """
    m = as_cmat(m)
    if m.shape[0] != m.shape[1]:
        raise Singular(f"matrix is not square: {m.shape}")
    return polar_unitary_stack(m[None], tolerances.SINGULAR_TOL)[0]


_NS_STEPS = 10  # cap on Newton-Schulz steps; certified samples need at most 6


def polar_unitary_stack(ms: Array, tol: float) -> Array:
    """Unitary polar factors of a stack (N, n, n) by Newton-Schulz steps
    X <- X (3I - X^dag X) / 2 (Higham, "Functions of Matrices", SIAM 2008, 8.3).

    |I - M^dag M|_F <= 1/2 puts every singular value in [0.70, 1.23], inside
    the basin (0, sqrt 3) and above tol < 1/2 by more than Gram rounding.
    The samples it leaves out take an SVD (a stack it certifies whole takes
    none): Singular names the first with sigma_min <= tol, the rest get
    U V^dag. Steps run until max|X^dag X - I| <= 8 n eps: 2 on near-unitary
    overlaps, at most 6 from the certificate's bound, NoConvergence after
    _NS_STEPS. A 1x1 matrix z has the singular value |z| and the factor
    z/|z|, and takes neither."""
    if not tol < 0.5:
        raise ValueError(f"tol {tol} must lie below 1/2")
    x = np.array(ms, dtype=np.complex128)
    if x.shape[-1] == 1:
        far, low = np.ones(len(x), dtype=bool), np.abs(x[:, 0, 0])
    else:
        eye = np.eye(x.shape[-1])
        gram = matmul_stack(np.conj(np.swapaxes(x, -1, -2)), x)
        far = ~(stack_sq_norms(gram - eye) <= 0.25)
        svd = np.linalg.svd(x[far]) if np.any(far) else None
        low = np.empty(0) if svd is None else svd.S[:, -1]
    if np.any(low <= tol):
        i = int(np.argmax(low <= tol))
        k, value = int(np.flatnonzero(far)[i]), float(low[i])
        where = f"sample {k}: " if len(x) > 1 else ""
        raise Singular(f"{where}smallest singular value {value:.3e} <= {tol:.3e}", k, value)
    if x.shape[-1] == 1:
        return x / low[:, None, None]
    if svd is not None:
        x[far], gram[far] = matmul_stack(svd.U, svd.Vh), eye
    for _ in range(_NS_STEPS):
        if np.max(np.abs(gram - eye), initial=0.0) <= 8 * len(eye) * np.finfo(float).eps:
            return x
        x = matmul_stack(x, 1.5 * eye - 0.5 * gram)
        gram = matmul_stack(np.conj(np.swapaxes(x, -1, -2)), x)
    raise NoConvergence(f"Newton-Schulz polar iteration exceeded {_NS_STEPS} steps")


def pinv(w: Array) -> Array:
    """Moore-Penrose pseudoinverse (W^dag W)^{-1} W^dag of a full-column-rank map."""
    w = as_cmat(w)
    gram = w.conj().T @ w
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= tolerances.SINGULAR_TOL:
        raise RankDeficient(f"smallest Gram eigenvalue {eigvals[0]:.3e} <= {tolerances.SINGULAR_TOL:.3e}")
    return np.linalg.solve(gram, w.conj().T)


# (degree m, power width q, theta_m): the Taylor degrees that Paterson-Stockmeyer
# evaluates in q + m/q - 2 matmuls, each with the 1-norm up to which the
# degree-m truncation of exp has backward error below 2^-53 (Higham,
# "Functions of Matrices", SIAM 2008, Table A.3)
_TAYLOR = (
    (1, 1, 2.29e-16), (2, 2, 2.58e-8), (4, 2, 3.40e-4), (6, 3, 9.07e-3), (9, 3, 8.96e-2),
    (12, 4, 3.00e-1), (16, 4, 7.81e-1), (20, 5, 1.44), (25, 5, 2.43), (30, 6, 3.54),
)


# s squarings leave a step up to about 40 2^s u from unitary in max|U^dag U - I|
# (u = 2^-53; measured on Hermitian matrices up to n = 6), so s stops where
# 64 2^s u reaches STEP_UNITARITY_TOL, and dt |H|_1 at theta_max 2^s
_MAX_SQUARINGS = math.floor(math.log2(tolerances.STEP_UNITARITY_TOL / 2.0**-47))
_MAX_STEP_NORM = _TAYLOR[-1][2] * 2.0**_MAX_SQUARINGS


def _taylor_plan(norm: float) -> tuple[int, int, int]:
    """(degree, width, squarings) with the fewest matmuls for matrices of
    1-norm at most norm (<= _MAX_STEP_NORM) and at most _MAX_SQUARINGS
    squarings, preferring fewer squarings on a tie."""
    plans = []
    for degree, width, theta in _TAYLOR:
        squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        if squarings <= _MAX_SQUARINGS:
            plans.append((width + degree // width - 2 + squarings, squarings, degree, width))
    _, squarings, degree, width = min(plans)
    return degree, width, squarings


def propagator_step_stack(hs: Array, dt: float) -> Array:
    """Batched exp(-i H dt) over a checked stack (N, n, n) of Hermitian matrices.

    Scaling and squaring of the truncated Taylor series (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005): A = -i dt H is scaled by 2^-s, the
    polynomial is evaluated as a Horner scheme in A^q over blocks of q
    powers (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973), and the
    result is squared s times. Degree and s follow from the largest
    1-norm in the stack; at 1-norm 1e-3 that is degree 6, s = 0 and 3
    batched matmuls. s is capped by STEP_UNITARITY_TOL, so above a 1-norm
    of _MAX_STEP_NORM (about 4.6e5), or non-finite, the stack raises ValueError.
    The plan is the whole stack's; powers, Horner sum and squarings run per
    sample block.
    """
    hs = np.asarray(hs, dtype=np.complex128)
    with np.errstate(over="ignore"):  # a column sum past 1e308 is inf, rejected below
        norm = abs(dt) * float(np.max(np.sum(np.abs(hs), axis=-2), initial=0.0))
    if not norm <= _MAX_STEP_NORM:
        raise ValueError(f"dt*|H|_1 = {norm:.3e} is non-finite or too large for a finite Taylor plan: the largest "
                         f"admissible value is {_MAX_STEP_NORM:.3e}, where the steps stay unitary to "
                         f"{tolerances.STEP_UNITARITY_TOL:.0e}")
    degree, width, squarings = _taylor_plan(norm)
    coef = [1.0 / math.factorial(k) for k in range(degree + 1)]
    diag = np.arange(hs.shape[-1])
    out = np.empty(hs.shape, np.complex128)
    for block in sample_blocks(len(hs), hs.shape[-1]):
        a = (-1j * dt * 0.5**squarings) * hs[block]
        powers = [a]  # A^1 .. A^q
        for _ in range(1, width):
            powers.append(matmul_stack(powers[-1], a))
        # Horner in A^q over the blocks sum_i coef[j q + i] A^i, top block first
        u = coef[degree] * powers[-1]
        for j in reversed(range(degree // width)):
            for i in range(1, width):
                u += coef[j * width + i] * powers[i - 1]
            u[:, diag, diag] += coef[j * width]
            if j:
                u = matmul_stack(u, powers[-1])
        for _ in range(squarings):
            u = matmul_stack(u, u)
        out[block] = u
    return out


# sample_blocks' block size: (4001, 6, 6) makes 5 blocks; (4001, 2, 2) and (2001, 4, 4) fit one
_BLOCK_BYTES = 2**19


def sample_blocks(n_samples: int, n: int) -> list[slice]:
    """Slices cutting a stack of n_samples complex (n, n) matrices into blocks of
    at most _BLOCK_BYTES (a sample at least), the last ragged; an empty stack gets one."""
    size = max(1, _BLOCK_BYTES // max(16 * n * n, 1))
    return [slice(lo, min(lo + size, n_samples)) for lo in range(0, max(n_samples, 1), size)]


# ordered_products cuts the steps into chunks of this many at every level of its scan
_SCAN_WIDTH = 16


def ordered_products(steps: Array, init: Array | None = None) -> Array:
    """Running left products of a stack (N, n, n) of step matrices.

    Returns the (N + 1, n, c) stack P_0 = init (the identity by default),
    P_{k+1} = steps[k] @ P_k. Computed as a recursive blocked scan
    (Blelloch, CMU-CS-90-190): the steps are cut into chunks of W =
    _SCAN_WIDTH, the running products inside every chunk advance together,
    the chunk totals are scanned the same way from init, and one product
    applies each chunk's head to its rows. That is W Python-level products
    per level over about log_W N levels (47 at N = 4000) instead of N.
    A stack that stores one step (stored_samples; a broadcast) forms the
    powers of that step inside one chunk, W - 1 single-matrix products, and
    broadcasts them over the chunks; its chunk totals are a broadcast too,
    so every level does the same. The steps are never written to.
    """
    steps = np.asarray(steps, dtype=np.complex128)
    init = np.eye(steps.shape[-1], dtype=np.complex128) if init is None else np.asarray(init, dtype=np.complex128)
    return _scan(steps, init)


def _scan(steps: Array, init: Array) -> Array:
    """ordered_products on coerced arguments; recurses on the chunk totals."""
    nstep, n, _ = steps.shape
    out = np.empty((nstep + 1, n, init.shape[1]), dtype=np.complex128)
    out[0] = init
    if nstep == 0:
        return out
    width = min(nstep, _SCAN_WIDTH)
    nchunk = -(-nstep // width)
    # row j of a chunk ends up holding steps[j] @ ... @ steps[0] of that chunk
    if len(stored_samples(steps)) == 1:
        # one step broadcast: every chunk holds its powers, formed once and broadcast
        # (the last chunk's rows past nstep are powers, cut below, not identity pads)
        one = np.empty((width, n, n), dtype=np.complex128)
        one[0] = steps[0]
        for j in range(1, width):
            one[j] = matmul_stack(steps[0], one[j - 1])
        run = np.broadcast_to(one, (nchunk, width, n, n))
    else:
        # the last chunk is padded with identities
        run = np.empty((nchunk * width, n, n), dtype=np.complex128)
        run[:nstep], run[nstep:] = steps, np.eye(n)
        run = run.reshape(nchunk, width, n, n)
        for j in range(1, width):
            run[:, j] = matmul_stack(run[:, j], run[:, j - 1])
    # chunk i's head is the product of the totals of chunks 0 .. i - 1 with init
    heads = _scan(run[:-1, -1], init)
    # chunk i's rows times its head: one (width n, n) @ (n, c) product per chunk
    out[1:] = matmul_stack(run.reshape(nchunk, width * n, n), heads).reshape(nchunk * width, n, init.shape[1])[:nstep]
    return out


def total_product(steps: Array, init: Array) -> Array:
    """steps[N-1] @ ... @ steps[0] @ init, the last of ordered_products, as a
    pairwise tree: one batched matmul per level, about log2 N in all; 1x1
    steps multiply as scalars."""
    steps = np.asarray(steps, dtype=np.complex128)
    if steps.shape[-1] == 1:
        return np.prod(steps[:, 0, 0]) * np.asarray(init, dtype=np.complex128)
    while len(steps) > 1:
        even = len(steps) & ~1
        steps = np.concatenate([matmul_stack(steps[1:even:2], steps[0:even:2]), steps[even:]])
    return steps[0] @ init if len(steps) else np.array(init, dtype=np.complex128)
