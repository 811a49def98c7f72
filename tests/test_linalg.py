import re

import numpy as np
import pytest

from holonomy_lab import linalg, tolerances
from holonomy_lab.errors import NoConvergence, NonHermitian, RankDeficient, Singular
from qutil import eigh_propagators, rand_unitary, sequential_products, stack_sizes, traced_peak

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps


def hermitian_stack(rng, nstep: int, n: int) -> np.ndarray:
    z = rng.standard_normal((nstep, n, n)) + 1j * rng.standard_normal((nstep, n, n))
    return 0.5 * (z + np.conj(np.swapaxes(z, -1, -2)))


def random_stack(rng, shape, real: bool = False) -> np.ndarray:
    z = rng.standard_normal(shape)
    return z if real else z + 1j * rng.standard_normal(shape)


def check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    """matmul_stack against np.matmul: same shape and dtype, and every entry
    within 1e-14 of the sum of |a_ij| |b_jk| it is formed from."""
    got, want = linalg.matmul_stack(a, b), np.matmul(a, b)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= 1e-14 * np.matmul(np.abs(a), np.abs(b)))


def matmul_ndims(monkeypatch) -> list:
    """Operand ndims of every matmul linalg makes from now on: the arrays it
    coerces become views that report each matmul they enter."""
    calls = []

    class Seen(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [x.view(np.ndarray) if isinstance(x, Seen) else x for x in inputs]
            if ufunc is np.matmul:
                calls.append(tuple(x.ndim for x in inputs))
            return getattr(ufunc, method)(*inputs, **kwargs)

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, x, *args, **kwargs):
            return np.asarray(x, *args, **kwargs).view(Seen)

    monkeypatch.setattr(linalg, "np", Numpy())
    return calls


class TestMatmulStack:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_matmul_on_every_shape(self, rng, n):
        # k and m from 1 to 6 put every product on both sides of the threshold
        for k in range(1, 7):
            for m in range(1, 7):
                check_matmul(random_stack(rng, (40, n, k)), random_stack(rng, (40, k, m)))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_broadcast_forms(self, rng, n):
        # the forms the call sites pass: one matrix on either side, two stacks,
        # and the chunked scan's rows (C, W n, n) against one matrix per chunk;
        # then batch axes on both kinds of product
        check_matmul(random_stack(rng, (30, n, n)), random_stack(rng, (n, n)))
        check_matmul(random_stack(rng, (30, n, n - 1)), random_stack(rng, (30, n - 1, n)))
        check_matmul(random_stack(rng, (n, n)), random_stack(rng, (30, n, n)))
        check_matmul(random_stack(rng, (5, 7 * n, n)), random_stack(rng, (5, n, max(n // 2, 1))))
        check_matmul(random_stack(rng, (5, 7, n, n)), random_stack(rng, (5, 1, n, max(n // 2, 1))))
        check_matmul(random_stack(rng, (5, 7, n, 3)), random_stack(rng, (3, n + 1)))
        check_matmul(random_stack(rng, (n + 1, 3)), random_stack(rng, (5, 7, 3, n)))
        check_matmul(random_stack(rng, (n, n + 2)), random_stack(rng, (30, n + 2, 1)))
        # one matrix broadcast over a batch, as large as the other side's or smaller
        fixed = random_stack(rng, (n, n))
        check_matmul(random_stack(rng, (30, n, n)), np.broadcast_to(fixed, (30, n, n)))
        check_matmul(random_stack(rng, (5, 7, 2, n)), np.broadcast_to(fixed, (7, n, n)))
        check_matmul(random_stack(rng, (5, 1, 2, n)), np.broadcast_to(fixed, (7, n, n)))
        check_matmul(fixed, np.broadcast_to(fixed, (30, n, n)))
        check_matmul(np.broadcast_to(fixed, (30, n, n)), np.broadcast_to(fixed, (30, n, n)))
        # empty, single and wider batches, and batch axes that broadcast
        # against each other between two stacks
        for batch in (0, 1, 64):
            check_matmul(random_stack(rng, (batch, n, n)), random_stack(rng, (batch, n, n)))
            check_matmul(random_stack(rng, (batch, 2, n)), random_stack(rng, (batch, n, 2)))
        check_matmul(random_stack(rng, (1, n, n)), random_stack(rng, (30, n, n)))
        check_matmul(random_stack(rng, (30, 2, n)), random_stack(rng, (1, n, 2)))
        check_matmul(random_stack(rng, (4, 1, 2, n)), random_stack(rng, (1, 6, n, 1)))
        check_matmul(random_stack(rng, (6, n, 1)), random_stack(rng, (5, 1, 1, n)))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_mixed_dtypes_and_views(self, rng, n):
        real, cplx = random_stack(rng, (30, n, n), real=True), random_stack(rng, (30, n, n))
        check_matmul(real, cplx)
        check_matmul(cplx, real)
        check_matmul(real, real)
        frozen = cplx.copy()
        frozen.flags.writeable = False
        check_matmul(frozen, frozen)
        check_matmul(np.swapaxes(cplx, -1, -2), np.conj(np.swapaxes(cplx, -1, -2)))
        check_matmul(cplx[::-2, :, ::-1], cplx[1::2])
        # one matrix on either side of a view or of the other dtype
        fixed = random_stack(rng, (n, n))
        for stack in (real, np.swapaxes(cplx, -1, -2), cplx[::-2, ::-1], np.conj(np.swapaxes(cplx, -1, -2))[:, :, ::-1]):
            check_matmul(stack, fixed)
            check_matmul(fixed, stack)
        check_matmul(cplx, fixed.real)
        check_matmul(fixed.real.T, cplx)

    def test_path_follows_the_matrix_shape(self, rng, monkeypatch):
        # two stacks whose (n, m) product has at most 9 entries take the
        # entry-wise sum in j order, bit for bit, whatever k; above 9, matmul
        for n in range(1, 10):
            for m in range(1, 9 // n + 1):
                for k in (1, 2, 3, 6):
                    a, b = random_stack(rng, (20, n, k)), random_stack(rng, (20, k, m))
                    want = sum(a[:, :, j, None] * b[:, None, j, :] for j in range(k))
                    assert np.array_equal(linalg.matmul_stack(a, b), want)
        for n, k, m in ((4, 2, 3), (2, 6, 5), (10, 1, 1), (4, 4, 4)):
            a, b = random_stack(rng, (20, n, k)), random_stack(rng, (20, k, m))
            assert np.array_equal(linalg.matmul_stack(a, b), a @ b)
        # a stack times one matrix on the right is the single GEMM over the
        # stack's rows, whatever the block size; one matrix on the left meets
        # the stack as a stack would: entry by entry up to 9 entries, else matmul
        for n in (2, 6):
            a, b = random_stack(rng, (20, 3, n)), random_stack(rng, (n, n))
            assert np.array_equal(linalg.matmul_stack(a, b), (a.reshape(60, n) @ b).reshape(20, 3, n))
            a, b = random_stack(rng, (n, n)), random_stack(rng, (20, n, 3))
            want = a @ b if 3 * n > 9 else sum(a[:, j, None] * b[:, None, j, :] for j in range(n))
            assert np.array_equal(linalg.matmul_stack(a, b), want)
        # a right factor broadcast over the batch with stride 0 is multiplied
        # as a stack: one batched matmul above 9 entries, bit for bit a @ b,
        # and up to 9 entries the entry-wise sum
        for n in (2, 4, 6):
            a, b = random_stack(rng, (20, 3, n)), np.broadcast_to(random_stack(rng, (n, n)), (20, n, n))
            calls = matmul_ndims(monkeypatch)
            got = linalg.matmul_stack(a, b)
            monkeypatch.undo()
            if 3 * n > 9:
                assert calls == [(3, 3)] and np.array_equal(got, a @ b)
            else:
                assert calls == [] and np.array_equal(got, sum(a[:, :, j, None] * b[:, None, j, :] for j in range(n)))

    @pytest.mark.parametrize("n", [2, 6])
    def test_out_receives_the_same_bits(self, rng, n):
        # each route (one matrix on the right, entry by entry, matmul) writes its product into
        # out, bit for bit; rows that would reshape only through a copy raise, not drop it
        for a, b in ((random_stack(rng, (20, 3, n)), random_stack(rng, (n, n))),
                     (random_stack(rng, (20, 3, n)), random_stack(rng, (20, n, 3))),
                     (random_stack(rng, (20, 4, n)), random_stack(rng, (20, n, 4)))):
            want = linalg.matmul_stack(a, b)
            out = np.empty_like(want)
            assert np.shares_memory(linalg.matmul_stack(a, b, out=out), out) and np.array_equal(out, want)
        a, b = random_stack(rng, (20, 3, n)), random_stack(rng, (n, n))
        with pytest.raises(ValueError):
            linalg.matmul_stack(a, b, out=np.empty((20, 4, n), complex)[:, :3])

    def test_inner_dimension_mismatch_raises(self, rng):
        for a_shape, b_shape in (((5, 2, 2), (5, 3, 2)), ((5, 2, 2), (3, 2)), ((2, 3), (5, 2, 2))):
            with pytest.raises(ValueError):
                linalg.matmul_stack(random_stack(rng, a_shape), random_stack(rng, b_shape))

    def test_empty_inner_dimension_gives_zeros(self):
        for a_shape, b_shape, want in (((4, 2, 0), (4, 0, 3), (4, 2, 3)), ((5, 4, 2, 0), (0, 3), (5, 4, 2, 3)),
                                       ((2, 0), (4, 0, 3), (4, 2, 3))):
            got = linalg.matmul_stack(np.empty(a_shape), np.empty(b_shape))
            assert got.shape == want and not np.any(got)


class TestHermitianEig:
    def test_identity(self):
        values, frame = linalg.hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(frame.conj().T @ frame, np.eye(2), atol=1e-14)

    def test_already_diagonal(self):
        values, frame = linalg.hermitian_eig(SIGMA3)
        assert np.allclose(values, [1.0, -1.0])
        assert np.allclose(np.abs(frame), np.eye(2), atol=1e-14)

    def test_qubit_closed_form(self):
        # eigenvalues of (omega/2) n.sigma are +-(omega/2)|n|
        omega = 2.0
        values, _ = linalg.hermitian_eig(0.5 * omega * SIGMA3)
        assert np.allclose(values, [1.0, -1.0])

    def test_rejects_non_hermitian(self):
        # one matrix: no sample index, and the tolerance is stated
        with pytest.raises(NonHermitian, match=r"^Hermiticity deviation 1\.414e\+00 exceeds 1\.000e-10$"):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_reconstruction(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = 0.5 * (z + z.conj().T)
            values, frame = linalg.hermitian_eig(m)
            rebuilt = (frame * values) @ frame.conj().T
            assert np.linalg.norm(m - rebuilt) <= 1e-10
            assert np.all(np.diff(values) <= 1e-12)


class TestCluster:
    def test_exact_tie(self):
        assert linalg.cluster([0.5, 0.25, 0.25]) == [(0, 1), (1, 3)]

    def test_sub_tolerance_tie(self):
        assert linalg.cluster([0.5, 0.5 - 1e-12, 1e-3]) == [(0, 2), (2, 3)]

    def test_multiplicities(self):
        blocks = linalg.cluster([0.4, 0.3, 0.3])
        assert [hi - lo for lo, hi in blocks] == [1, 2]

    def test_empty(self):
        assert linalg.cluster([]) == []


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


def step(h, dt: float) -> np.ndarray:
    """exp(-i H dt) of one Hermitian matrix: the N = 1 stack of the step kernel."""
    return linalg.propagator_step_stack(np.asarray(h, dtype=complex)[None], dt)[0]


class TestPropagatorStep:
    def test_zero_hamiltonian(self):
        assert np.allclose(step(np.zeros((3, 3)), 0.7), np.eye(3), atol=1e-15)

    def test_diagonal_phases(self):
        u = step(SIGMA3, np.pi)
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
        assert np.linalg.norm(step(h, t) - expected) <= 1e-12

    def test_unitarity_and_determinant(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (z + z.conj().T)
            dt = float(rng.uniform(0.01, 0.5))
            u = step(h, dt)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12
            expected_det = np.exp(-1j * np.trace(h) * dt)
            assert abs(np.linalg.det(u) - expected_det) <= 1e-10

    def test_rejects_non_hermitian(self):
        # the step kernel trusts its caller; a single matrix is checked where it enters
        with pytest.raises(NonHermitian):
            linalg.as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("norm", np.geomspace(1e-4, 50.0, 12).tolist(), ids="{:.1e}".format)
    @pytest.mark.parametrize("nstep", [1, 4000])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_stack_matches_eigh_oracle(self, rng, n, nstep, norm):
        # norm is the largest 1-norm of dt H, swept across the Taylor degrees:
        # 1e-4 takes no squaring, 50 several
        hs = hermitian_stack(rng, nstep, n)
        dt = norm / np.max(np.sum(np.abs(hs), axis=-2))
        u = linalg.propagator_step_stack(hs, dt)
        assert np.max(np.abs(u - eigh_propagators(hs, dt))) <= 1e-13
        assert np.max(np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(n))) <= 1e-12

    def test_zero_step_is_identity(self, rng):
        hs = hermitian_stack(rng, 5, 3)
        assert np.array_equal(linalg.propagator_step_stack(hs, 0.0), np.broadcast_to(np.eye(3), (5, 3, 3)))

    def test_rejects_non_finite_stack(self, rng):
        hs = hermitian_stack(rng, 3, 2)
        hs[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.propagator_step_stack(hs, 0.1)

    @pytest.mark.parametrize("h, dt, norm", [
        (np.diag([1e308, -1e308]), 1.0 / 40, "2.500e+306"),
        (SIGMA3, 1e300, "1.000e+300"),
        (np.full((2, 2), 1e308), 0.1, "inf"),
    ], ids=["entries_1e308", "dt_1e300", "column_sum_overflows"])
    def test_no_finite_taylor_plan_raises(self, h, dt, norm):
        # above dt |H|_1 of about 4e292 the degree-1 plan needs infinitely many squarings
        with pytest.raises(ValueError, match=rf"^dt\*\|H\|_1 = {re.escape(norm)} is non-finite or too large"):
            step(h, dt)

    def test_squarings_are_capped(self, rng):
        # each squaring doubles the rounding of the scaled step: up to the cap on
        # dt |H|_1 a step stays unitary to STEP_UNITARITY_TOL, above it the kernel raises
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for h in (np.diag([0.5, -0.5]).astype(complex), 0.5 * (z + z.conj().T)):
            col = np.max(np.sum(np.abs(h), axis=0))
            for norm in np.geomspace(1.0, 4.63e5, 40):
                u = step(h, norm / col)
                assert np.max(np.abs(u.conj().T @ u - np.eye(len(h)))) <= tolerances.STEP_UNITARITY_TOL
            for norm in (4.65e5, 1e10, 1e20, 1e50):
                with pytest.raises(ValueError, match=r"largest admissible value is 4\.640e\+05"):
                    step(h, norm / col)

    def test_stack_names_non_hermitian_sample(self, rng):
        # the stack kernel trusts its caller; the one stack check names the sample
        hs = hermitian_stack(rng, 6, 2)
        hs[4, 0, 1] += 0.5
        with pytest.raises(NonHermitian, match=r"^sample 4: Hermiticity deviation"):
            linalg.check_hermitian_stack(hs)

    def test_broadcast_stack_names_sample_0(self):
        # a stack broadcast over its samples (stride 0) holds one matrix, checked once; its error
        # still names the sample, as a stack's does
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitian, match=r"^sample 0: Hermiticity deviation 1\.414e\+00 exceeds"):
            linalg.check_hermitian_stack(np.broadcast_to(m, (4001, 2, 2)))
        linalg.check_hermitian_stack(np.broadcast_to(SIGMA3, (4001, 2, 2)))

    @pytest.mark.parametrize("degree, width, theta", linalg._TAYLOR, ids=[f"m{row[0]}" for row in linalg._TAYLOR])
    def test_each_degree_meets_exp_at_its_theta_edge(self, degree, width, theta):
        # at 1-norm theta_m the plan is degree m with no squaring, whose truncation has backward
        # error below u = 2^-53 (Higham's table); so the step meets exp, taken in extended precision,
        # to the rounding u e^theta of the sum of its terms' sizes. A diagonal H keeps the matrix
        # products exact off the diagonal. Degree m - 1 misses by the dropped term theta^m / m!,
        # more than that rounding at every degree up to 20
        assert linalg._taylor_plan(theta) == (degree, width, 0)
        d = np.array([1.0, -0.25])
        u = linalg.propagator_step_stack(np.diag(d).astype(complex)[None], theta)[0]
        assert u[0, 1] == u[1, 0] == 0.0
        err = np.abs(np.diag(u).astype(np.clongdouble) - np.exp(-1j * theta * d.astype(np.longdouble)))
        assert np.max(err) <= 2.0**-53 * np.exp(theta)

    def test_non_hermitian_with_an_overflowing_norm(self):
        # |m - m^dag| and |m| are both inf; the sample is tested again scaled by its largest entry
        m = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(NonHermitian, match=r"^sample 1: Hermiticity deviation"):
            linalg.check_hermitian_stack(np.stack([np.eye(2), m, np.diag([1e308, -1e308])]))
        with pytest.raises(NonHermitian, match=r"^Hermiticity deviation"):
            linalg.as_hermitian(m)


def small_blocks(monkeypatch, n: int, size: int) -> None:
    """From now on, cut stacks of (n, n) matrices into blocks of size samples."""
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * n * n * size)


class TestStoredSamples:
    def test_a_broadcast_stores_one_sample(self, rng):
        m = rand_unitary(rng, 3)
        stored = linalg.stored_samples(np.broadcast_to(m, (4001, 3, 3)))
        assert stored.shape == (1, 3, 3) and np.shares_memory(stored, m)
        full = np.stack([m] * 5)
        assert linalg.stored_samples(full) is full


class TestSampleBlocks:
    """Stack kernels work through a long stack in blocks of about
    _BLOCK_BYTES, and every sample comes out bit for bit as from one block."""

    def test_slices(self):
        for nsamp, n in ((4001, 2), (2001, 4), (2048, 4), (1, 6), (0, 6)):
            assert linalg.sample_blocks(nsamp, n) == [slice(0, nsamp)]
        assert linalg.sample_blocks(2049, 4) == [slice(0, 2048), slice(2048, 2049)]
        # 910 samples of 576 bytes per block, the last ragged
        assert linalg.sample_blocks(4001, 6) == [slice(lo, min(lo + 910, 4001)) for lo in range(0, 4001, 910)]
        assert linalg.sample_blocks(3, 1000) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_propagator_steps(self, rng, monkeypatch, n):
        for nstep in (0, 1, 7, 8, 50):
            hs = hermitian_stack(rng, nstep, n)
            hs[-1:] *= 40.0  # the largest 1-norm, which fixes the plan, sits in the last block
            want = linalg.propagator_step_stack(hs, 0.05)
            small_blocks(monkeypatch, n, 7)
            got = linalg.propagator_step_stack(hs, 0.05)
            monkeypatch.undo()
            assert np.array_equal(got, want)

    def test_oversized_step_in_the_last_block_raises_before_any_block(self, rng, monkeypatch):
        hs = hermitian_stack(rng, 30, 4)
        hs[-1] *= 1e7
        small_blocks(monkeypatch, 4, 8)
        sizes = stack_sizes(monkeypatch, "matmul_stack")
        with pytest.raises(ValueError, match="too large for a finite Taylor plan"):
            linalg.propagator_step_stack(hs, 0.1)
        assert sizes == []

    def test_hermiticity_check(self, rng, monkeypatch):
        hs = hermitian_stack(rng, 50, 3)
        for k, size in ((17, 1e-3), (33, 3e-3), (49, 2e-3)):
            hs[k, 0, 2] += size
        messages = []
        for block in (None, 7, 1):
            if block:
                small_blocks(monkeypatch, 3, block)
            with pytest.raises(NonHermitian) as err:
                linalg.check_hermitian_stack(hs)
            messages.append(str(err.value))
            linalg.check_hermitian_stack(hermitian_stack(rng, 50, 3))
            linalg.check_hermitian_stack(np.empty((0, 3, 3)))
        assert messages[0].startswith("sample 33: ") and messages == messages[:1] * 3

    def test_non_hermitian_sample_named_in_the_third_block(self, rng, monkeypatch):
        small_blocks(monkeypatch, 2, 4)
        hs = hermitian_stack(rng, 14, 2)
        bad = hs.copy()
        bad[9, 0, 1] += 0.5
        with pytest.raises(NonHermitian, match=r"^sample 9: Hermiticity deviation"):
            linalg.check_hermitian_stack(bad)
        # entries near 1e308 overflow the norms; the rescue names the global sample
        huge = hs.copy()
        huge[1], huge[8] = np.diag([1e308, -1e308]), np.array([[1e308, 1e307], [1e307, -1e308]])
        linalg.check_hermitian_stack(huge)
        huge[10] = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(NonHermitian, match=r"^sample 10: Hermiticity deviation"):
            linalg.check_hermitian_stack(huge)

    def test_propagator_steps_traced_peak(self, rng):
        # the input, the steps and about one block of temporaries; with the
        # powers and Horner sums of the whole stack the peak was 6.0 stacks
        hs = hermitian_stack(rng, 4000, 6)
        assert traced_peak(lambda: linalg.propagator_step_stack(hs.copy(), 1e-3)) < 3.5 * hs.nbytes


def unitary_steps(rng, nstep: int, n: int) -> np.ndarray:
    z = rng.standard_normal((nstep, n, n)) + 1j * rng.standard_normal((nstep, n, n))
    return np.linalg.qr(z)[0]


W = linalg._SCAN_WIDTH


# W - 1, W, W + 1, W^2, W^2 + 1 and W^3 + 1 steps sit at the scan's recursion boundaries
SCAN_LENGTHS = [0, 1, 2, W - 1, W, W + 1, W**2, W**2 + 1, 4000, W**3 + 1]


def product_shapes(monkeypatch) -> list:
    """Shapes of the left factor of every matmul_stack call linalg makes from now on."""
    calls = []
    product = linalg.matmul_stack

    def spy(a, b, **kwargs):
        calls.append(np.shape(a))
        return product(a, b, **kwargs)

    monkeypatch.setattr(linalg, "matmul_stack", spy)
    return calls


def scan_init(rng, n: int, rect: bool):
    """(init, columns): None and n, or n // 2 (at least 1) orthonormal columns."""
    cols = max(n // 2, 1) if rect else n
    return (rand_unitary(rng, n)[:, :cols] if rect else None), cols


class TestOrderedProducts:
    @pytest.mark.parametrize("nstep", SCAN_LENGTHS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("rect", [False, True], ids=["identity", "rectangular"])
    def test_matches_sequential_loop(self, rng, nstep, n, rect):
        steps = unitary_steps(rng, nstep, n)
        init, cols = scan_init(rng, n, rect)
        got = linalg.ordered_products(steps, init)
        want = sequential_products(steps, init)
        assert got.shape == want.shape == (nstep + 1, n, cols)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("nstep", SCAN_LENGTHS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("rect", [False, True], ids=["identity", "rectangular"])
    def test_broadcast_steps_match_sequential_loop(self, rng, nstep, n, rect):
        # one step broadcast (a constant schedule) is scanned as one chunk's powers: the same
        # products as the loop and as the scan of a full copy, its last chunk cut short included.
        # Powers of one unitary round the same way at every step, so their error grows as
        # nstep eps (at most 0.2 nstep eps over 60 draws, the scan of a full copy's included)
        step = unitary_steps(rng, 1, n)
        kept, steps = step.copy(), np.broadcast_to(step, (nstep, n, n))
        init, cols = scan_init(rng, n, rect)
        got = linalg.ordered_products(steps, init)
        tol = max(1e-13, 0.5 * nstep * EPS)
        assert got.shape == (nstep + 1, n, cols)
        assert np.max(np.abs(got - sequential_products(steps, init))) <= tol
        assert np.max(np.abs(got - linalg.ordered_products(np.array(steps), init))) <= tol
        assert not steps.flags.writeable and np.array_equal(step, kept)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_read_only_broadcast_steps(self, rng, n):
        # a constant schedule's steps: one step broadcast along the stack, read-only
        steps = np.broadcast_to(unitary_steps(rng, 1, n), (W**2 + 3, n, n))
        init = rand_unitary(rng, n)
        got = linalg.ordered_products(steps, init)
        assert np.max(np.abs(got - sequential_products(steps, init))) <= 1e-13
        assert not steps.flags.writeable

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_traced_peak(self, rng, n):
        # the output and one stack of in-chunk products (2.06 outputs); a padded copy of the
        # steps and the head products formed apart from the output made it 3.06
        steps = unitary_steps(rng, 4000, n)
        assert traced_peak(lambda: linalg.ordered_products(steps)) < 2.25 * 16 * n * n * 4001

    @pytest.mark.parametrize("nstep", [W + 1, 4001])
    @pytest.mark.parametrize("n", [2, 6])
    def test_reads_only_what_it_wrote(self, rng, monkeypatch, nstep, n):
        # the last chunk's rows past nstep are cut from the output, but they go through the
        # head product: they must repeat the chunk's last product, not hold what np.empty left
        steps, empty, finite = unitary_steps(rng, nstep, n), np.empty, []

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind in "fc":
                out.fill(np.nan)
            return out

        product = linalg.matmul_stack
        monkeypatch.setattr(np, "empty", poisoned)
        monkeypatch.setattr(linalg, "matmul_stack",
                            lambda a, b, **kw: finite.append(np.isfinite(a).all() and np.isfinite(b).all())
                            or product(a, b, **kw))
        got = linalg.ordered_products(steps)
        monkeypatch.undo()
        assert finite and all(finite)
        assert np.max(np.abs(got - sequential_products(steps))) <= 1e-13

    def test_products_grow_by_one_level(self, rng, monkeypatch):
        # N = 4000 and N = 64000 are three and four levels of W-wide chunks:
        # W products more (47 and 63), where a two-level scan of sqrt(N)-wide chunks takes 63 and 252
        calls, counts = product_shapes(monkeypatch), []
        for nstep in (4000, 64000):
            calls.clear()
            linalg.ordered_products(unitary_steps(rng, nstep, 2))
            counts.append(len(calls))
        assert counts[1] - counts[0] <= W + 1

    def test_broadcast_chunk_is_formed_once(self, rng, monkeypatch):
        # a broadcast stack's in-chunk products are W - 1 single-matrix products per level: the only
        # stacked ones are the head products, (chunks, W n, n) rows times heads, one per level
        calls, counts = product_shapes(monkeypatch), []
        step = unitary_steps(rng, 1, 2)
        for nstep in (4000, 64000):
            calls.clear()
            linalg.ordered_products(np.broadcast_to(step, (nstep, 2, 2)))
            counts.append(len(calls))
            stacked = [shape for shape in calls if np.prod(shape[:-2]) > 1]
            assert stacked and all(shape[-2:] == (W * 2, 2) for shape in stacked)
        assert counts[1] - counts[0] <= W + 1


def svd_polar(ms: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(ms)
    return u @ vh


def near_unitary(rng, nstep: int, n: int, size: float = 1e-2) -> np.ndarray:
    """Unitaries with a random perturbation of the given entry size: the
    consecutive-overlap regime, every sample inside the certificate."""
    z = rng.standard_normal((nstep, n, n)) + 1j * rng.standard_normal((nstep, n, n))
    return unitary_steps(rng, nstep, n) + size * z


def conditioned(rng, nstep: int, n: int, max_log_kappa: float = 6.0) -> tuple[np.ndarray, np.ndarray]:
    """General matrices U diag(s) V with condition numbers up to
    10**max_log_kappa and overall scales from 1e-2 to 1e2; returns
    (matrices, condition numbers)."""
    log_kappa = rng.uniform(0.0, max_log_kappa, nstep) if n > 1 else np.zeros(nstep)
    s = 10.0 ** (-rng.uniform(0.0, 1.0, (nstep, n)) * log_kappa[:, None])
    s[:, 0], s[:, -1] = 1.0, 10.0 ** -log_kappa
    s *= 10.0 ** rng.uniform(-2.0, 2.0, (nstep, 1))
    ms = (unitary_steps(rng, nstep, n) * s[:, None, :]) @ unitary_steps(rng, nstep, n)
    return ms, 10.0**log_kappa


def monomial(rng, n: int) -> np.ndarray:
    """A random permutation with unit phases: unitary, and exact in floating point."""
    return np.eye(n)[rng.permutation(n)] * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


class TestPolarUnitaryStack:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_near_unitary_matches_svd(self, rng, n):
        ms = near_unitary(rng, 500, n)
        got = linalg.polar_unitary_stack(ms, tolerances.OVERLAP_TOL)
        assert np.max(np.abs(got - svd_polar(ms))) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conditioned_matches_svd(self, rng, n):
        # the unitary polar factor of a complex matrix has condition number
        # 1/sigma_min (Higham, "Functions of Matrices", Thm 8.9), so both
        # routes may move by eps * kappa; well-conditioned samples meet 1e-12
        ms, kappa = conditioned(rng, 500, n)
        err = np.max(np.abs(linalg.polar_unitary_stack(ms, tolerances.SINGULAR_TOL) - svd_polar(ms)), axis=(1, 2))
        assert np.all(err <= 1e-12 + 16 * n * EPS * kappa)
        assert np.max(err[kappa <= 1e3]) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixed_stack(self, rng, n):
        near = near_unitary(rng, 300, n)
        general, kappa = conditioned(rng, 300, n)
        order = rng.permutation(600)
        ms = np.concatenate([near, general])[order]
        slack = 1e-12 + 16 * n * EPS * np.concatenate([np.ones(300), kappa])[order]
        got = linalg.polar_unitary_stack(ms, tolerances.OVERLAP_TOL)
        assert np.all(np.max(np.abs(got - svd_polar(ms)), axis=(1, 2)) <= slack)
        assert np.max(np.abs(np.conj(np.swapaxes(got, -1, -2)) @ got - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("tol", [tolerances.OVERLAP_TOL, tolerances.SINGULAR_TOL])
    def test_singular_threshold_is_exact(self, rng, tol):
        n, bad = 3, 1234
        ms = near_unitary(rng, 4000, n)
        ms[bad] = monomial(rng, n) @ np.diag([1.0, 0.5, tol * (1 - 1e-6)]) @ monomial(rng, n)
        with pytest.raises(Singular, match=rf"^sample {bad}: smallest singular value") as caught:
            linalg.polar_unitary_stack(ms, tol)
        assert caught.value.index == bad
        assert caught.value.value == pytest.approx(tol * (1 - 1e-6), rel=1e-12)
        ms[bad] = monomial(rng, n) @ np.diag([1.0, 0.5, tol * (1 + 1e-6)]) @ monomial(rng, n)
        got = linalg.polar_unitary_stack(ms, tol)
        assert np.max(np.abs(got - svd_polar(ms))) <= 1e-12

    def test_names_the_first_singular_sample(self, rng):
        ms = near_unitary(rng, 50, 2)
        ms[[7, 30]] = np.diag([1.0, 0.0])
        with pytest.raises(Singular, match=r"^sample 7: "):
            linalg.polar_unitary_stack(ms, tolerances.OVERLAP_TOL)

    @pytest.mark.parametrize("tol", [tolerances.OVERLAP_TOL, tolerances.SINGULAR_TOL])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rank_deficient_near_certificate_bound(self, rng, n, tol):
        # every other singular value is 1, so |I - M^dag M|_F lies within Gram
        # rounding of 1: a certificate admitting norms up to 1 - tol^2 would let
        # rounding pass some of these to Newton-Schulz
        for low in (0.0, tol / 2):
            s = np.ones(n)
            s[-1] = low
            ms = (unitary_steps(rng, 300, n) * s) @ unitary_steps(rng, 300, n)
            for m in ms:
                with pytest.raises(Singular):
                    linalg.polar_unitary_stack(m[None], tol)

    @pytest.mark.parametrize("tol", [tolerances.OVERLAP_TOL, tolerances.SINGULAR_TOL])
    def test_scalar_stack_is_the_phase(self, rng, tol):
        ms, _ = conditioned(rng, 4000, 1)
        ms[::7] = near_unitary(rng, len(ms[::7]), 1)
        assert np.array_equal(linalg.polar_unitary_stack(ms, tol), ms / np.abs(ms))
        ms[[1234, 3000]] = 0.0
        with pytest.raises(Singular, match=r"^sample 1234: smallest singular value 0\.000e\+00 <= ") as caught:
            linalg.polar_unitary_stack(ms, tol)
        assert caught.value.index == 1234 and caught.value.value == 0.0

    def test_certified_boundary_matches_svd(self, rng):
        # |I - M^dag M|_F just inside 1/2: the slowest samples Newton-Schulz takes
        n = 4
        e = rng.uniform(-1.0, 1.0, (500, n))
        e *= 0.5 * (1 - 1e-9) / np.linalg.norm(e, axis=1, keepdims=True)
        ms = (unitary_steps(rng, 500, n) * np.sqrt(1 - e)[:, None, :]) @ unitary_steps(rng, 500, n)
        assert np.max(np.abs(linalg.polar_unitary_stack(ms, tolerances.OVERLAP_TOL) - svd_polar(ms))) <= 1e-13

    def test_iteration_cap(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_NS_STEPS", 1)
        with pytest.raises(NoConvergence, match="exceeded 1 steps"):
            linalg.polar_unitary_stack(near_unitary(rng, 10, 3), tolerances.OVERLAP_TOL)

    def test_certified_stack_takes_no_svd(self, rng, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        ms = near_unitary(rng, 500, 3)
        assert np.max(np.abs(linalg.polar_unitary_stack(ms, tolerances.OVERLAP_TOL) - svd_polar(ms))) <= 1e-12
        assert calls == [(500, 3, 3)]  # svd_polar's own call
        ms[17] *= 3.0
        linalg.polar_unitary_stack(ms, tolerances.OVERLAP_TOL)
        assert calls[1:] == [(1, 3, 3)]

    def test_certificate_edge_pins_the_route(self, rng, monkeypatch):
        # |I - M^dag M|_F just inside 1/2, all of it on one singular value (0.707, the slowest):
        # Newton-Schulz in at most 6 steps and no SVD; just outside: the SVD and no step. One
        # product forms the Gram matrix, each step takes two, the SVD route one more
        products, svds = [], []
        matmul_stack, svd = linalg.matmul_stack, np.linalg.svd
        monkeypatch.setattr(linalg, "matmul_stack", lambda a, b, **kw: products.append(1) or matmul_stack(a, b, **kw))
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: svds.append(np.shape(a)) or svd(a, *args, **kw))
        n = 3
        for edge, svd_calls in ((0.5 * (1 - 1e-9), []), (0.5 * (1 + 1e-9), [(1, n, n)])):
            del products[:], svds[:]
            m = (unitary_steps(rng, 1, n) * np.sqrt(1.0 - np.array([edge, 0.0, 0.0]))) @ unitary_steps(rng, 1, n)
            got = linalg.polar_unitary_stack(m, tolerances.OVERLAP_TOL)
            assert svds == svd_calls
            steps = (len(products) - 1 - len(svd_calls)) // 2
            assert (steps == 0) if svd_calls else (3 <= steps <= 6)
            assert np.max(np.abs(got - svd_polar(m))) <= 1e-13

    @pytest.mark.parametrize("tol", [0.3, 0.49])
    def test_singular_threshold_holds_up_to_one_half(self, rng, tol):
        # the certificate keeps every sample it passes above sigma 0.70, so any tol below 1/2
        # is decided by the SVD: sigma_min just under tol is named, just over it is factored
        n, bad = 3, 20
        ms = near_unitary(rng, 50, n)
        for scale, raises in ((1 - 1e-6, True), (1 + 1e-6, False)):
            ms[bad] = monomial(rng, n) @ np.diag([1.0, 1.0, tol * scale]) @ monomial(rng, n)
            if raises:
                with pytest.raises(Singular, match=rf"^sample {bad}: smallest singular value"):
                    linalg.polar_unitary_stack(ms, tol)
            else:
                assert np.max(np.abs(linalg.polar_unitary_stack(ms, tol) - svd_polar(ms))) <= 1e-12

    def test_tol_must_sit_below_the_certificate(self):
        with pytest.raises(ValueError):
            linalg.polar_unitary_stack(np.eye(2)[None], 0.5)


# (nstep, n) for total_product: n = 4 takes matmul, n = 2 and 3 the broadcast
# sum, n = 1 a scalar product; an n = 4 case is named by nstep alone
TOTAL_CASES = [(nstep, n) for n in (4, 2, 3, 1) for nstep in (1, 2, 3, 7, 4000)]


class TestTotalProduct:
    @pytest.mark.parametrize("nstep,n", TOTAL_CASES,
                             ids=[f"{nstep}" if n == 4 else f"n{n}-{nstep}" for nstep, n in TOTAL_CASES])
    @pytest.mark.parametrize("rect", [False, True], ids=["square", "rectangular"])
    def test_matches_scan(self, rng, nstep, n, rect):
        steps = unitary_steps(rng, nstep, n)
        init = rand_unitary(rng, n)[:, : max(n // 2, 1) if rect else n]
        got = linalg.total_product(steps, init)
        assert got.shape == init.shape
        assert np.max(np.abs(got - linalg.ordered_products(steps, init)[-1])) <= 1e-13
        assert np.max(np.abs(got - sequential_products(steps, init)[-1])) <= 1e-13

    def test_no_steps_returns_init(self, rng):
        init = rand_unitary(rng, 3)
        assert np.array_equal(linalg.total_product(np.empty((0, 3, 3)), init), init)


def check_unitary_eig(u: np.ndarray, want: np.ndarray, tol: float = 1e-13) -> None:
    """unitary_eig against the definition: q unitary, q^dag u q diagonal with
    entries e^{i phases}, and the phases those u was built from."""
    phases, q = linalg.unitary_eig(u)
    n = len(u)
    assert np.all((phases >= 0.0) & (phases < TWO_PI))
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= tol
    d = q.conj().T @ u @ q
    assert np.max(np.abs(d - np.diag(np.diag(d)))) <= tol
    assert np.max(np.abs(np.diag(d) - np.exp(1j * phases))) <= tol
    # the monic polynomials with roots e^{i phases} and e^{i want}: equal
    # coefficients mean equal phase multisets on the circle, in any order
    assert np.max(np.abs(np.poly(np.exp(1j * phases)) - np.poly(np.exp(1j * want)))) <= tol


class TestUnitaryEig:
    @pytest.mark.parametrize("want", [
        [1.3],
        [5.9, 4.0, 2.2, 0.3],
        [2.5, 2.5],
        [4.1, 4.1, 4.1, 1.0],
        [3.0, 3.0, 3.0, 3.0],
        [0.7, 0.7, 5.0, 5.0],
        [TWO_PI - 1e-9, 3.0],
        [TWO_PI - 1e-9, TWO_PI - 1e-9, TWO_PI - 1e-9],
        [TWO_PI - 1e-9, 0.0, 1e-9, np.pi],
        [1.0, 1.0 + 1e-9, 4.0],
    ], ids=["m1", "distinct", "pair", "cluster_of_three", "full_cluster", "two_pairs", "near_two_pi",
            "near_two_pi_cluster", "straddles_zero", "split_by_1e-9"])
    def test_cases(self, rng, want):
        want = np.array(want)
        v = rand_unitary(rng, want.size)
        check_unitary_eig(v @ np.diag(np.exp(1j * want)) @ v.conj().T, want)

    def test_scalar_is_its_phase(self, rng):
        # a 1x1 unitary takes no decomposition: its phase mod 2pi, wrapped
        # to 0 where mod rounds up to 2pi, and the basis [[1]]
        angles = np.concatenate([rng.uniform(-10.0, 10.0, 200), [-1e-17, 1e-17, 0.0, -np.pi, np.pi, -1e-9]])
        for angle in angles:
            u = np.array([[np.exp(1j * angle)]])
            phases, q = linalg.unitary_eig(u)
            want = np.mod(np.angle(u[0]), TWO_PI)
            assert np.array_equal(phases, np.where(want < TWO_PI, want, 0.0))
            assert q.dtype == np.complex128 and np.array_equal(q, [[1.0]])
        assert linalg.unitary_eig(np.array([[np.exp(-1e-17j)]]))[0][0] == 0.0

    def test_random_blocks_with_forced_degeneracies(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 5))
            want = rng.uniform(0.0, TWO_PI, n)
            if n > 1 and rng.random() < 0.5:
                want[1] = want[0]
            if rng.random() < 0.3:
                want[0] = TWO_PI - 1e-9
            if rng.random() < 0.3:
                want[-1] = 0.0  # its computed angle is often -1e-17, which mod sends to 2pi
            v = rand_unitary(rng, n)
            check_unitary_eig(v @ np.diag(np.exp(1j * want)) @ v.conj().T, want)
