import numpy as np
import pytest

from holonomy_lab import bundle, curves, invariants, spectra
from holonomy_lab.curves import OperatorCurve, TimeGrid
from holonomy_lab.errors import (
    BoundViolated,
    NotClosed,
    OutOfRange,
    ShapeMismatch,
    UndefinedPhase,
)
from qutil import (
    great_circle_section,
    precessing_qubit_curve,
    pure_curve,
    rand_gauge,
    rand_state,
    rand_unitary,
    wobble_loop,
)

TWO_PI = 2.0 * np.pi


def gauge(u, m):
    return bundle.GaugeElement(u=np.asarray(u, dtype=complex), basis=spectra.EigenprojectorBasis(m=m))


class TestEigenphases:
    def test_identity(self):
        ph = invariants.eigenphases(gauge(np.eye(3), (1, 2)))
        assert all(np.allclose(block, 0.0) for block in ph.blocks)

    def test_precessing_qubit_phases(self):
        n3 = 0.6
        u = np.diag([np.exp(1j * np.pi * (1 + n3)), np.exp(1j * np.pi * (1 - n3))])
        ph = invariants.eigenphases(gauge(u, (1, 1)))
        assert abs(ph.blocks[0][0] - 1.6 * np.pi) <= 1e-12
        assert abs(ph.blocks[1][0] - 0.4 * np.pi) <= 1e-12

    def test_block_diagonal_reading(self):
        u = np.diag(np.exp(1j * np.array([np.pi / 2, np.pi, 1.5 * np.pi])))
        ph = invariants.eigenphases(gauge(u, (1, 2)))
        assert np.allclose(ph.blocks[0], [np.pi / 2])
        assert np.allclose(ph.blocks[1], [1.5 * np.pi, np.pi])

    def test_wraps_near_two_pi(self):
        u = np.array([[np.exp(1j * (TWO_PI - 1e-9))]])
        ph = invariants.eigenphases(gauge(u, (1,)))
        assert ph.blocks[0][0] == 0.0


class TestBlockwiseEigenbasis:
    def test_unitary_block_diagonal_eigenbasis(self, rng):
        # (1, 2, 1): the scalar blocks on either side of a pair
        for m in [(1, 2, 3), (1, 2, 1)]:
            basis = spectra.EigenprojectorBasis(m=m)
            g = rand_gauge(rng, basis)
            phases, s = invariants.blockwise_eigenbasis(g)
            assert bundle.gauge_membership(s, basis, tol=1e-12)
            d = s.conj().T @ g.u @ s
            assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-12
            assert np.allclose(np.mod(np.angle(np.diag(d)), TWO_PI), phases, atol=1e-12)
            for lo, hi in basis.blocks:
                assert np.all(np.diff(phases[lo:hi]) <= 0.0)
            assert np.array_equal(invariants.eigenphases(g).flat(), phases)

    def test_phase_near_two_pi_wraps_to_zero(self, rng):
        basis = spectra.EigenprojectorBasis(m=(2,))
        v = rand_unitary(rng, 2)
        u = v @ np.diag(np.exp(1j * np.array([TWO_PI - 1e-9, 1.0]))) @ v.conj().T
        phases, s = invariants.blockwise_eigenbasis(gauge(u, (2,)))
        assert phases[0] == pytest.approx(1.0, abs=1e-12) and phases[1] == 0.0
        assert bundle.gauge_membership(s, basis, tol=1e-12)


class TestPureBound:
    def test_zero(self):
        assert invariants.pure_ihb(0.0) == 0.0

    def test_half_turn(self):
        assert abs(invariants.pure_ihb(np.pi) - np.pi) <= 1e-15

    def test_quarter_turn(self):
        assert abs(invariants.pure_ihb(np.pi / 2) - 2.7206990463513265) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            invariants.pure_ihb(TWO_PI)
        with pytest.raises(OutOfRange):
            invariants.pure_ihb(-0.1)


class TestIsospectralBound:
    def test_zero_phases(self):
        ph = invariants.PhaseSpectrum(blocks=(np.zeros(1), np.zeros(2)))
        assert invariants.ihb_isospectral([0.5, 0.25], ph) == 0.0

    def test_mixed_blocks(self):
        ph = invariants.PhaseSpectrum(blocks=(np.array([np.pi / 2]), np.array([1.5 * np.pi, np.pi])))
        got = invariants.ihb_isospectral([0.5, 0.25], ph)
        assert abs(got - np.pi * np.sqrt(0.8125)) <= 1e-12

    def test_qubit_value_independent_of_p(self):
        n3 = 0.6
        ph = invariants.PhaseSpectrum(blocks=(np.array([np.pi * (1 + n3)]), np.array([np.pi * (1 - n3)])))
        for p0 in (0.6, 0.7, 0.9):
            got = invariants.ihb_isospectral([p0, 1 - p0], ph)
            assert abs(got - np.pi * np.sqrt(1 - n3**2)) <= 1e-12

    def test_shape_mismatch(self):
        ph = invariants.PhaseSpectrum(blocks=(np.zeros(1),))
        with pytest.raises(ShapeMismatch):
            invariants.ihb_isospectral([0.5, 0.5], ph)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_rejects_non_finite_or_nonpositive_p(self, bad):
        # a NaN compares false against zero and used to come back as a NaN bound
        with pytest.raises(ShapeMismatch, match="finite and positive"):
            invariants.ihb_isospectral([bad, 0.3], invariants.PhaseSpectrum(blocks=(np.array([1.0]), np.array([2.0]))))

    def test_nan_phase_rejected(self):
        # a NaN phase would make every bound built on it NaN
        with pytest.raises(OutOfRange, match="leave"):
            invariants.PhaseSpectrum(blocks=(np.array([np.pi]), np.array([np.nan])))


class TestConstrainedBound:
    def test_zero_alpha(self):
        ph = invariants.PhaseSpectrum(blocks=(np.array([np.pi]),))
        assert invariants.ihb_constrained([0.0], ph) == 0.0

    def test_alpha_equals_p(self):
        ph = invariants.PhaseSpectrum(blocks=(np.array([np.pi / 2]), np.array([1.5 * np.pi, np.pi])))
        p = [0.5, 0.25]
        assert invariants.ihb_constrained(p, ph) == invariants.ihb_isospectral(p, ph)

    def test_constrained_below_isospectral(self):
        ph = invariants.PhaseSpectrum(blocks=(np.array([np.pi]), np.array([np.pi])))
        lo = invariants.ihb_constrained([0.5, 0.1], ph)
        hi = invariants.ihb_isospectral([0.7, 0.3], ph)
        assert abs(lo - np.pi * np.sqrt(0.6)) <= 1e-12
        assert abs(hi - np.pi) <= 1e-12
        assert lo <= hi

    def test_monotone_in_alpha(self, rng):
        ph = invariants.PhaseSpectrum(blocks=(np.array([2.0]), np.array([1.2, 0.3])))
        p = np.array([0.5, 0.25])
        for _ in range(20):
            alpha = p * rng.uniform(0.0, 1.0, size=2)
            assert invariants.ihb_constrained(alpha, ph) <= invariants.ihb_isospectral(p, ph) + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_non_finite_or_negative(self, bad):
        ph = invariants.PhaseSpectrum(blocks=(np.array([2.0]), np.array([1.2, 0.3])))
        with pytest.raises(ShapeMismatch):
            invariants.ihb_constrained([bad, 0.2], ph)


class TestWilsonLoop:
    def test_identity_dimension(self):
        assert invariants.wilson_loop(gauge(np.eye(3), (1, 2))) == pytest.approx(3.0)

    def test_precessing_qubit_value(self):
        n3 = 0.6
        u = np.diag([np.exp(1j * np.pi * (1 + n3)), np.exp(1j * np.pi * (1 - n3))])
        got = invariants.wilson_loop(gauge(u, (1, 1)))
        assert abs(got - 0.6180339887498947) <= 1e-12

    def test_conjugation_invariance(self, rng):
        basis = spectra.EigenprojectorBasis(m=(1, 2))
        g = rand_gauge(rng, basis)
        v = rand_gauge(rng, basis)
        moved = bundle.GaugeElement(u=v.u.conj().T @ g.u @ v.u, basis=basis)
        assert abs(invariants.wilson_loop(moved) - invariants.wilson_loop(g)) <= 1e-12


class TestGeometricPhase:
    def test_constant_curve(self):
        rho = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        c = OperatorCurve.from_samples(1.0, np.broadcast_to(rho.matrix, (21, 2, 2)).copy())
        w0 = bundle.canonical_amplitude(rho)
        assert abs(invariants.geometric_phase(c, w0)) <= 1e-12

    def test_great_circle(self):
        c = pure_curve(great_circle_section(2001), tau=1.0)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        assert abs(invariants.geometric_phase(c, w0) - np.pi) <= 1e-5

    def test_precessing_qubit_value(self):
        # oracle: arg(p0 e^{i pi(1+n3)} + p1 e^{i pi(1-n3)}) evaluated once
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 2001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        got = invariants.geometric_phase(c, w0)
        assert abs(got - (-0.8886007118281325)) <= 1e-5

    def test_matches_blockwise_overlap_sum(self):
        # same phase from the per-slot overlaps weighted by sqrt(p_0 p_tau)
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 1001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        frames = bundle.transported_frame(c, [f.copy() for f in rho0.frames])
        p = np.array(rho0.p)
        total = sum(
            np.sqrt(p[j] * p[j]) * np.vdot(frames[0][:, j], frames[-1][:, j])
            for j in range(2)
        )
        direct = invariants.geometric_phase(c, w0)
        assert abs(np.angle(total) - direct) <= 1e-7

    def test_matches_blockwise_overlap_sum_degenerate(self, rng):
        # same equivalence on a rank-3 state with a two-fold block, and on
        # a loop with a breathing spectrum (weights sqrt(p_0 p_tau))
        for case in ("rigid", "wobble"):
            if case == "rigid":
                rho0 = rand_state(rng, (0.5, 0.25), (1, 2), 5)
                h = np.asarray(rand_unitary(rng, 5))
                h = 1j * (h - h.conj().T)
                hv, hw = np.linalg.eigh(h)
                ts = np.linspace(0.0, 1.0, 601)
                c = OperatorCurve.from_samples(1.0, np.stack([
                    (hw * np.exp(-1j * t * hv)) @ hw.conj().T @ rho0.matrix
                    @ (hw * np.exp(1j * t * hv)) @ hw.conj().T for t in ts
                ]))
            else:
                c, rho0 = wobble_loop(rng, (0.5, 0.25), (1, 2), 5, nsamp=601)
            w0 = bundle.canonical_amplitude(rho0)
            frames = bundle.transported_frame(c, [f.copy() for f in rho0.frames])
            spath = bundle.decompose_path(c)
            means = spath.block_means()
            p_slots_0 = np.repeat(means[0], rho0.m)
            p_slots_t = np.repeat(means[-1], rho0.m)
            total = sum(
                np.sqrt(p_slots_0[q] * p_slots_t[q]) * np.vdot(frames[0][:, q], frames[-1][:, q])
                for q in range(rho0.rank)
            )
            direct = invariants.geometric_phase(c, w0)
            assert abs(np.angle(total) - direct) <= 1e-7

    def test_undefined_phase(self):
        # open quarter-circle from pole to equator-orthogonal state
        c = pure_curve(great_circle_section(501, 0.0, np.pi / 2), tau=1.0)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        with pytest.raises(UndefinedPhase):
            invariants.geometric_phase(c, w0)


class TestCurveLengthEnergy:
    def test_constant_curve(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        c = OperatorCurve.from_samples(1.0, np.broadcast_to(rho, (21, 2, 2)).copy())
        length, energy = invariants.curve_length_energy(c)
        assert length <= 1e-9 and energy <= 1e-9

    def test_great_circle_length(self):
        c = pure_curve(great_circle_section(2001), tau=1.0)
        length, _ = invariants.curve_length_energy(c)
        assert abs(length - np.pi) <= 1e-6

    def test_precessing_qubit_length(self):
        for n3 in (0.2, 0.6):
            c = precessing_qubit_curve(n3, TWO_PI, 0.7, 2001)
            length, _ = invariants.curve_length_energy(c)
            assert abs(length - np.pi * np.sqrt(1 - n3**2)) <= 1e-4


class TestCheckIsoholonomic:
    def test_precessing_qubit_saturates(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 2001)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        report = invariants.check_isoholonomic(c, w0)
        assert report.spectrum_constant
        assert abs(report.slack) <= 1e-5
        assert report.slack >= -1e-6
        assert abs(report.ihb - np.pi * np.sqrt(1 - 0.36)) <= 1e-5

    def test_fixed_frame_spectrum_loop(self, rng):
        v = rand_unitary(rng, 3)
        nsamp = 401
        t = np.linspace(0.0, 1.0, nsamp)
        p1 = 0.5 + 0.08 * np.sin(TWO_PI * t)
        p2 = 0.3 - 0.04 * np.sin(TWO_PI * t)
        p3 = 1.0 - p1 - p2
        samples = np.stack([
            v @ np.diag([a, b, c]).astype(complex) @ v.conj().T
            for a, b, c in zip(p1, p2, p3)
        ])
        c = OperatorCurve.from_samples(1.0, samples)
        rho0 = spectra.spectral_decompose(samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        alpha = 0.8 * np.array([p1.min(), p2.min(), p3.min()])
        report = invariants.check_isoholonomic(c, w0, alpha=alpha)
        assert not report.spectrum_constant
        assert report.ihb <= 1e-6  # trivial holonomy
        assert report.length > 0.01
        assert report.length >= report.fr_length - 1e-9
        assert report.strong_slack is not None and report.strong_slack >= -1e-6

    def test_constant_curve_all_zero(self):
        rho = spectra.spectral_decompose(np.diag([0.7, 0.3]).astype(complex))
        c = OperatorCurve.from_samples(1.0, np.broadcast_to(rho.matrix, (21, 2, 2)).copy())
        w0 = bundle.canonical_amplitude(rho)
        report = invariants.check_isoholonomic(c, w0)
        assert report.length <= 1e-9
        assert report.ihb <= 1e-9
        assert abs(report.slack) <= 1e-9

    def test_not_closed(self):
        c = pure_curve(great_circle_section(51, 0.0, 1.0), tau=1.0)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        with pytest.raises(NotClosed):
            invariants.check_isoholonomic(c, w0)

    def test_alpha_violation_rejected(self):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 201)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        with pytest.raises(OutOfRange):
            invariants.check_isoholonomic(c, w0, alpha=[0.8, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, bad):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 201)
        w0 = bundle.canonical_amplitude(spectra.spectral_decompose(c.samples[0]))
        with pytest.raises(ShapeMismatch, match="finite"):
            invariants.check_isoholonomic(c, w0, alpha=[bad, 0.2])

    @pytest.mark.parametrize("alpha", [[0.5], [0.5, 0.1, 0.0], [[0.5, 0.1]]], ids=["short", "long", "2d"])
    def test_alpha_needs_one_bound_per_block(self, alpha):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 201)
        w0 = bundle.canonical_amplitude(spectra.spectral_decompose(c.samples[0]))
        with pytest.raises(ShapeMismatch, match="for 2 phase blocks"):
            invariants.check_isoholonomic(c, w0, alpha=alpha)

    def test_invariants_stable_across_amplitudes(self, rng):
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 801)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        base = invariants.check_isoholonomic(c, w0)
        for _ in range(5):
            u = rand_gauge(rng, w0.basis)
            moved = bundle.Amplitude(w=w0.w @ u.u, basis=w0.basis)
            report = invariants.check_isoholonomic(c, moved)
            assert np.max(np.abs(report.phases.flat() - base.phases.flat())) <= 1e-8
            wl_base = invariants.wilson_loop(base.holonomy)
            wl_here = invariants.wilson_loop(report.holonomy)
            assert abs(wl_base - wl_here) <= 1e-8
            assert abs(report.ihb - base.ihb) <= 1e-8

    def test_reparameterization_invariance_of_phases(self, rng):
        n3, omega, p0 = 0.6, TWO_PI, 0.7
        nsamp = 1501
        base = precessing_qubit_curve(n3, omega, p0, nsamp)
        rho0 = spectra.spectral_decompose(base.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        ph_base = invariants.eigenphases(bundle.holonomy(base, w0)).flat()
        from qutil import qubit_axis, qubit_propagators

        for _ in range(3):
            # random monotone warp with fixed endpoints
            knots = np.sort(rng.uniform(0.2, 0.8, size=2))
            t = np.linspace(0.0, 1.0, nsamp)
            warp = t + 0.15 * np.sin(np.pi * t) ** 2 * np.cos(np.pi * knots[0] * t)
            warp = (warp - warp[0]) / (warp[-1] - warp[0])
            props = qubit_propagators(qubit_axis(n3), omega, warp)
            rho_mat = np.diag([p0, 1 - p0]).astype(complex)
            samples = props @ rho_mat @ np.conj(np.swapaxes(props, -1, -2))
            warped = OperatorCurve(grid=TimeGrid(tau=1.0, n=nsamp), samples=samples)
            ph = invariants.eigenphases(bundle.holonomy(warped, w0)).flat()
            assert np.max(np.abs(ph - ph_base)) <= 1e-6

    def test_strong_inequality_on_wobbling_loops(self, rng):
        specs = [((0.7, 0.3), (1, 1), 2), ((0.5, 0.25), (1, 2), 4), ((0.4, 0.2), (2, 1), 3)]
        for trial in range(12):
            p, m, dim = specs[trial % len(specs)]
            c, rho0 = wobble_loop(rng, p, m, dim, nsamp=601)
            w0 = bundle.canonical_amplitude(rho0)
            means = bundle.decompose_path(c).block_means()
            alpha = 0.8 * means.min(axis=0)
            report = invariants.check_isoholonomic(c, w0, alpha=alpha)
            assert report.strong_slack is not None
            assert report.strong_slack >= -1e-6

    def test_two_degenerate_blocks(self, rng):
        # rank-5 state with blocks (1, 2, 2) in dim 6
        c, rho0 = wobble_loop(rng, (0.3, 0.2, 0.15), (1, 2, 2), 6, nsamp=601)
        w0 = bundle.canonical_amplitude(rho0)
        means = bundle.decompose_path(c).block_means()
        alpha = 0.8 * means.min(axis=0)
        report = invariants.check_isoholonomic(c, w0, alpha=alpha)
        assert report.phases.m == (1, 2, 2)
        assert report.strong_slack >= -1e-6
        assert report.length >= report.fr_length - 1e-9

    def test_negative_slack_raises(self, monkeypatch):
        # force a bogus bound to confirm the contract trips
        c = precessing_qubit_curve(0.6, TWO_PI, 0.7, 501)
        rho0 = spectra.spectral_decompose(c.samples[0])
        w0 = bundle.canonical_amplitude(rho0)
        real_bound = invariants.ihb_isospectral
        monkeypatch.setattr(invariants, "ihb_isospectral", lambda p, ph: real_bound(p, ph) + 1.0)
        with pytest.raises(BoundViolated):
            invariants.check_isoholonomic(c, w0)
