"""Eigenframe-coordinate kernels against state-space oracles.

The variance split, the incoherent part and the state speeds are computed
from B = F^dag H F; each is checked here against a formula that never
forms B, on random stacks with a degenerate block and a nonzero kernel.
The closed-form tangent lift is checked against the lift-and-reproject
reference.
"""

import re

import numpy as np
import pytest

from holonomy_lab import bundle, dynamics, spectra, tolerances
from holonomy_lab.curves import OperatorCurve, TimeGrid
from holonomy_lab.errors import NotTangent
from qutil import rand_hermitian, rand_unitary, reference_lift, variance_path

# (support block sizes, kernel dimension) per ambient dimension; dim 2 has
# room for a kernel but not for a degenerate block beside it
LAYOUTS = {2: ((1,), 1), 3: ((2,), 1), 4: ((1, 2), 1), 5: ((2, 1), 2), 6: ((1, 2, 1), 2)}
NSAMP = 7
REL = 1e-12


def random_path(rng, m, kernel):
    """Random states with block sizes m and a kernel, their block projectors
    (kernel last) built from the generating unitaries, and random
    Hamiltonians."""
    dim = sum(m) + kernel
    # well-separated block values keep the eigenframes well conditioned
    p = np.arange(len(m), 0, -1) + rng.uniform(0.0, 0.5, size=len(m))
    p /= p @ np.array(m)
    diag = np.concatenate([np.repeat(p, m), np.zeros(kernel)])
    bounds = np.cumsum((0,) + m + (kernel,))
    states = np.empty((NSAMP, dim, dim), dtype=complex)
    projectors = np.empty((NSAMP, len(m) + 1, dim, dim), dtype=complex)
    for k in range(NSAMP):
        v = rand_unitary(rng, dim)
        states[k] = (v * diag) @ v.conj().T
        for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            projectors[k, j] = v[:, lo:hi] @ v[:, lo:hi].conj().T
    hs = np.stack([rand_hermitian(rng, dim) for _ in range(NSAMP)])
    spath = bundle.decompose_path(OperatorCurve(grid=TimeGrid(tau=1.0, n=NSAMP), samples=states))
    assert spath.m == m
    return states, projectors, hs, spath


def projector_incoherent(projectors, hs):
    """sum_j P_j H P_j over the support blocks and the kernel."""
    return np.einsum("kjab,kbc,kjcd->kad", projectors, hs, projectors)


def assert_close(actual, expected):
    rel = np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
    assert np.max(rel) <= REL


@pytest.mark.parametrize("dim", sorted(LAYOUTS))
class TestAgainstStateSpace:
    def test_block_mask(self, dim, rng):
        _, _, _, spath = random_path(rng, *LAYOUTS[dim])
        m, kernel = LAYOUTS[dim]
        sizes = m + (kernel,)
        ids = np.repeat(np.arange(len(sizes)), sizes)
        assert np.array_equal(spath.block_mask, ids[:, None] == ids[None, :])

    def test_incoherent_part(self, dim, rng):
        _, projectors, hs, spath = random_path(rng, *LAYOUTS[dim])
        assert_close(dynamics.incoherent_part_path(hs, spath), projector_incoherent(projectors, hs))

    def test_variance_split(self, dim, rng):
        states, projectors, hs, spath = random_path(rng, *LAYOUTS[dim])
        h_in = projector_incoherent(projectors, hs)
        dh2, dco2, din2 = dynamics.variance_split(spath.in_eigenframe(hs), spath)
        assert_close(dh2, variance_path(states, hs))
        assert_close(dco2, variance_path(states, hs - h_in))
        assert_close(din2, variance_path(states, h_in))

    def test_variance_split_adds_up(self, dim, rng):
        _, _, hs, spath = random_path(rng, *LAYOUTS[dim])
        dh2, dco2, din2 = dynamics.variance_split(spath.in_eigenframe(hs), spath)
        assert np.array_equal(dh2, din2 + dco2)

    def test_state_speeds(self, dim, rng):
        states, _, hs, spath = random_path(rng, *LAYOUTS[dim])
        rdots = -1j * (hs @ states - states @ hs)
        speeds2 = bundle.state_speeds_sq(spath.in_eigenframe(hs), spath)
        assert_close(speeds2, bundle.path_speeds_sq(spath, rdots))
        ref = reference_lift(spath, spath.in_eigenframe(rdots), tolerances.TANGENT_TOL)
        assert_close(speeds2, np.sum(np.abs(ref) ** 2, axis=(1, 2)))

    def test_uncertainty(self, dim, rng):
        states, projectors, hs, _ = random_path(rng, *LAYOUTS[dim])
        for k in range(NSAMP):
            rho = spectra.spectral_decompose(states[k])
            h_in = projector_incoherent(projectors[k : k + 1], hs[k : k + 1])[0]
            expected = [variance_path(states[k], h) for h in (hs[k], hs[k] - h_in, h_in)]
            assert_close(np.square(dynamics.uncertainty(rho, hs[k])), np.array(expected))
            assert_close(np.stack(dynamics.split_hamiltonian(hs[k], rho)), np.stack([h_in, hs[k] - h_in]))

    def test_uncertainty_ignores_an_energy_offset(self, dim, rng):
        # the variances are taken about the mean, so 1e5 I cancels before it is squared
        states, _, hs, _ = random_path(rng, *LAYOUTS[dim])
        for k in range(NSAMP):
            rho = spectra.spectral_decompose(states[k])
            plain = np.array(dynamics.uncertainty(rho, hs[k]))
            shifted = np.array(dynamics.uncertainty(rho, hs[k] + 1e5 * np.eye(dim)))
            assert np.max(np.abs(shifted - plain)) <= 1e-9 * plain[0]


def sample_named(message: str) -> int:
    return int(re.match(r"sample (\d+):", message).group(1))


@pytest.mark.parametrize("m, kernel", [((1, 1), 0), ((1,), 1), ((2, 1), 0), ((1, 2), 1), ((2, 2), 2)],
                         ids=["m11", "pure", "m21", "m12k1", "m22k2"])
@pytest.mark.parametrize("kind", ["hermitian", "offmask", "general"])
@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_lift_tangents_matches_reference(m, kernel, kind, tol, rng):
    """Exact state tangents plus noise of growing size: Hermitian noise,
    non-Hermitian noise off the block mask, or a general complex matrix.
    The closed-form lift agrees with the reference, and NotTangent fires
    for the same sizes and names the same sample."""
    _, _, _, spath = random_path(rng, m, kernel)
    n = spath.values.shape[1]
    same = spath.block_mask
    support_diag = np.repeat(rng.uniform(-1.0, 1.0, len(m)), m)
    exact = np.where(same, 0.0, np.stack([rand_hermitian(rng, n) for _ in range(NSAMP)]))
    exact[:, range(sum(m)), range(sum(m))] = support_diag
    outcomes = set()
    for size in (0.0, 1e-10, 1e-7, 1e-4, 1e-1):
        noise = rng.standard_normal((NSAMP, n, n)) + 1j * rng.standard_normal((NSAMP, n, n))
        if kind == "hermitian":
            noise = noise + np.conj(np.swapaxes(noise, 1, 2))
        elif kind == "offmask":
            noise = np.where(same, 0.0, noise)
        tangents = exact + size * rng.uniform(0.1, 1.0, NSAMP)[:, None, None] * noise
        try:
            expected = reference_lift(spath, tangents, tol)
        except NotTangent as ref_exc:
            with pytest.raises(NotTangent) as exc:
                bundle.lift_tangents(spath, tangents, tol)
            assert sample_named(str(exc.value)) == sample_named(str(ref_exc))
            outcomes.add("rejected")
            continue
        lift = bundle.lift_tangents(spath, tangents, tol)
        assert lift.shape == (NSAMP, n, sum(m))
        assert np.max(np.abs(lift - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
        outcomes.add("accepted")
    # with 1x1 blocks and no kernel every Hermitian matrix is a tangent
    every_hermitian_tangent = kind == "hermitian" and set(m) == {1} and kernel == 0
    assert outcomes == ({"accepted"} if every_hermitian_tangent else {"accepted", "rejected"})


def residual_named(message: str) -> float:
    return float(re.search(r"lift residual (\S+) exceeds", message).group(1))


@pytest.mark.parametrize("m, kernel", [((1, 1), 0), ((1,), 1), ((2, 1), 0), ((1, 2), 1), ((2, 2), 2), ((1,), 0),
                                       ((1, 1, 1), 0)],
                         ids=["m11", "pure", "m21", "m12k1", "m22k2", "dim1", "m111"])
def test_lift_residual_matches_reference(m, kernel, rng):
    """The residual that NotTangent names equals the reference's to 1e-12
    relative, on the layouts above plus one with no off-mask pair (dim 1)
    and one with no pair inside a block (m111), for every noise kind."""
    _, _, _, spath = random_path(rng, m, kernel)
    n = spath.values.shape[1]
    same = spath.block_mask
    exact = np.where(same, 0.0, np.stack([rand_hermitian(rng, n) for _ in range(NSAMP)]))
    exact[:, range(sum(m)), range(sum(m))] = np.repeat(rng.uniform(-1.0, 1.0, len(m)), m)
    compared = 0
    for kind in ("hermitian", "offmask", "general"):
        for size in (1e-7, 1e-4, 1e-1, 10.0):
            noise = rng.standard_normal((NSAMP, n, n)) + 1j * rng.standard_normal((NSAMP, n, n))
            if kind == "hermitian":
                noise = noise + np.conj(np.swapaxes(noise, 1, 2))
            elif kind == "offmask":
                noise = np.where(same, 0.0, noise)
            tangents = exact + size * rng.uniform(0.1, 1.0, NSAMP)[:, None, None] * noise
            try:
                reference_lift(spath, tangents, 1e-9)
            except NotTangent as ref_exc:
                with pytest.raises(NotTangent) as exc:
                    bundle.lift_tangents(spath, tangents, 1e-9)
                assert sample_named(str(exc.value)) == sample_named(str(ref_exc))
                want = residual_named(str(ref_exc))
                assert abs(residual_named(str(exc.value)) - want) <= 1e-12 * want
                compared += 1
    assert compared >= 4
