import numpy as np
import pytest

from holonomy_lab import bundle, curves, invariants
from holonomy_lab.curves import OperatorCurve, ProbabilityPath, TimeGrid
from holonomy_lab.errors import (
    EndpointMismatch,
    GridMismatch,
    HolonomyLabError,
    NonFinite,
    NonPositiveEigenvalue,
)
from qutil import great_circle_section, precessing_qubit_curve, pure_curve, traced_peak, wobble_loop


def constant_curve(mat, tau, nsamp):
    return OperatorCurve.from_samples(tau, np.broadcast_to(mat, (nsamp, *mat.shape)).copy())


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid(tau=2.0, n=5)
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.dt == 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TimeGrid(tau=-1.0, n=5)
        with pytest.raises(ValueError):
            TimeGrid(tau=1.0, n=1)


class TestOperatorCurve:
    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["off_diagonal", "diagonal"])
    def test_rejects_nan_sample(self, entry):
        # past this check an off-diagonal NaN reaches check_isoholonomic as
        # L = slack = NaN, and a diagonal one reads as a rank drop
        samples = precessing_qubit_curve(0.6, 2 * np.pi, 0.7, 101).samples.copy()
        samples[50][entry] = np.nan
        samples[70][entry] = np.inf
        with pytest.raises(NonFinite, match="sample 50"):
            OperatorCurve.from_samples(1.0, samples)

    def test_broadcast_nan_names_sample_0(self):
        # a stack broadcast over its samples holds one matrix: it is checked at sample 0, by name
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonFinite, match="^sample 0 "):
            OperatorCurve.from_samples(1.0, np.broadcast_to(bad, (101, 2, 2)))

class TestConcatenate:
    def test_pole_to_pole_halves(self):
        # two half great circles of pure states, each of length pi/2
        c1 = pure_curve(great_circle_section(501, 0.0, np.pi / 2), tau=0.5)
        c2 = pure_curve(great_circle_section(501, np.pi / 2, np.pi), tau=0.5)
        l1, _ = invariants.curve_length_energy(c1)
        l2, _ = invariants.curve_length_energy(c2)
        joined = curves.concatenate(c1, c2)
        total, _ = invariants.curve_length_energy(joined)
        assert abs(l1 - np.pi / 2) <= 1e-6
        assert abs(l2 - np.pi / 2) <= 1e-6
        assert abs(total - (l1 + l2)) <= 1e-6
        assert joined.closure_defect() <= 1e-12
        assert joined.grid.n == 1001

    def test_endpoint_mismatch(self):
        c1 = pure_curve(great_circle_section(11, 0.0, 1.0), tau=0.5)
        c2 = pure_curve(great_circle_section(11, 2.0, 3.0), tau=0.5)
        with pytest.raises(EndpointMismatch):
            curves.concatenate(c1, c2)

    def test_spacing_mismatch(self):
        c1 = pure_curve(great_circle_section(11, 0.0, 1.0), tau=0.5)
        c2 = pure_curve(great_circle_section(21, 1.0, 2.0), tau=0.5)
        with pytest.raises(GridMismatch):
            curves.concatenate(c1, c2)


class TestReverse:
    def test_involution(self):
        c = pure_curve(great_circle_section(31, 0.0, 2.0), tau=1.0)
        back = curves.reverse(curves.reverse(c))
        assert np.array_equal(back.samples, c.samples)

    def test_preserves_length(self):
        c = pure_curve(great_circle_section(401, 0.0, 2.0), tau=1.0)
        l_fwd, _ = invariants.curve_length_energy(c)
        l_rev, _ = invariants.curve_length_energy(curves.reverse(c))
        assert abs(l_fwd - l_rev) <= 1e-12

    def test_constant_fixed_point(self):
        c = constant_curve(np.diag([0.7, 0.3]).astype(complex), 1.0, 11)
        assert np.array_equal(curves.reverse(c).samples, c.samples)


def derivative_shapes(monkeypatch) -> list:
    """Shapes of the stacks curves.grid_derivative differentiates from now on."""
    seen, grid_derivative = [], curves.grid_derivative

    def spy(samples, dt):
        seen.append(np.shape(samples))
        return grid_derivative(samples, dt)

    monkeypatch.setattr(curves, "grid_derivative", spy)
    return seen


class TestFisherRao:
    def test_constant_spectrum(self):
        path = ProbabilityPath(grid=TimeGrid(tau=1.0, n=51),
                               values=np.tile([0.7, 0.3], (51, 1)), m=(1, 1))
        length, energy = curves.fisher_rao(path)
        assert abs(length) <= 1e-12 and abs(energy) <= 1e-12

    def test_broadcast_means_are_exactly_still(self, monkeypatch):
        # an orbit's block means are one row broadcast over the grid: length and energy are
        # exactly 0, and no derivative is taken
        seen = derivative_shapes(monkeypatch)
        path = ProbabilityPath(grid=TimeGrid(tau=1.0, n=4001), values=np.broadcast_to([0.7, 0.3], (4001, 2)), m=(1, 1))
        assert curves.fisher_rao(path) == (0.0, 0.0)
        assert seen == []

    def test_broadcast_values_are_validated_at_sample_0(self):
        # one row broadcast over 10^5 samples is validated once (an (N, l) check would take
        # about 2.4 MB of temporaries); a bad row raises what its full copy raises
        grid = TimeGrid(tau=1.0, n=10**5)
        values = np.broadcast_to([0.7, 0.3], (10**5, 2))
        assert traced_peak(lambda: ProbabilityPath(grid=grid, values=values, m=(1, 1))) < 64 * 1024
        for row in ([0.7, 0.0], [0.3, 0.7], [0.7, 0.4], [np.nan, 0.3]):
            raised = []
            for values in (np.broadcast_to(row, (10**5, 2)), np.tile(row, (10**5, 1))):
                with pytest.raises(HolonomyLabError) as info:
                    ProbabilityPath(grid=grid, values=values, m=(1, 1))
                raised.append((type(info.value), str(info.value)))
            assert raised[0] == raised[1]

    def test_moving_means_are_differentiated(self, rng, monkeypatch):
        # a wobble loop's means breathe: check_isoholonomic's fisher_rao differentiates them
        curve, rho0 = wobble_loop(rng, (0.5, 0.25), (1, 2), 4, 801)
        seen = derivative_shapes(monkeypatch)
        report = invariants.check_isoholonomic(curve, bundle.canonical_amplitude(rho0))
        assert (801, 2) in seen
        assert report.fr_length > 0.0

    def test_closed_breathing_path_has_its_length(self):
        # ends bitwise equal, interior moving: p rises from 0.6 to 0.7 and back, and
        # L_FR = (1/2) 2 int dp / sqrt(p (1 - p)) = arcsin(0.4) - arcsin(0.2)
        t = np.linspace(0.0, 1.0, 2001)
        p = 0.6 + 0.1 * np.sin(np.pi * t) ** 2
        path = ProbabilityPath(grid=TimeGrid(tau=1.0, n=2001), values=np.stack([p, 1.0 - p], axis=1), m=(1, 1))
        assert np.array_equal(path.values[0], path.values[-1])
        length, _ = curves.fisher_rao(path)
        assert abs(length - (np.arcsin(0.4) - np.arcsin(0.2))) <= 1e-6

    def test_geodesic_length(self):
        # pull back to the sphere: y_j = sqrt(p_j) traces a great-circle arc
        y0 = np.sqrt(np.array([0.9, 0.1]))
        y1 = np.sqrt(np.array([0.5, 0.5]))
        angle = np.arccos(y0 @ y1)
        u = np.linspace(0.0, 1.0, 2001)
        ys = (np.sin((1 - u))[:, None] * 0 + np.sin((1 - u) * angle)[:, None] * y0 + np.sin(u * angle)[:, None] * y1) / np.sin(angle)
        path = ProbabilityPath(grid=TimeGrid(tau=1.0, n=2001), values=ys**2, m=(1, 1))
        length, _ = curves.fisher_rao(path)
        expected = np.arccos(np.sqrt(0.9 * 0.5) + np.sqrt(0.1 * 0.5))
        assert abs(expected - 0.46364760900080615) <= 1e-12
        assert abs(length - expected) <= 1e-6

    def test_reparameterization_invariance(self):
        u = np.linspace(0.0, 1.0, 3001)
        warped = u + 0.2 * np.sin(np.pi * u) ** 2
        warped /= warped[-1]
        base = np.stack([0.9 - 0.4 * u, 0.1 + 0.4 * u], axis=1)
        path1 = ProbabilityPath(grid=TimeGrid(tau=1.0, n=3001), values=base, m=(1, 1))
        path2 = ProbabilityPath(grid=TimeGrid(tau=1.0, n=3001),
                                values=np.stack([0.9 - 0.4 * warped, 0.1 + 0.4 * warped], axis=1),
                                m=(1, 1))
        l1, _ = curves.fisher_rao(path1)
        l2, _ = curves.fisher_rao(path2)
        assert abs(l1 - l2) <= 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # every other check is a comparison that NaN fails, so fisher_rao returned (nan, nan)
        with pytest.raises(NonFinite, match="^sample 1 "):
            ProbabilityPath(grid=TimeGrid(tau=1.0, n=3),
                            values=np.array([[0.6, 0.4], [bad, 0.4], [0.6, bad]]), m=(1, 1))

    def test_positive_required(self):
        with pytest.raises(NonPositiveEigenvalue):
            ProbabilityPath(grid=TimeGrid(tau=1.0, n=3),
                            values=np.array([[0.7, 0.3], [1.0, 0.0], [0.7, 0.3]]), m=(1, 1))


class TestQuadratureConvergence:
    def test_length_converges_second_order(self):
        def length_at(nsamp):
            t = np.linspace(0.0, 1.0, nsamp)
            s = 1.2 * t + 0.3 * np.sin(2.2 * t)
            c = pure_curve(np.stack([np.cos(s), np.sin(s)], axis=1).astype(complex), tau=1.0)
            return invariants.curve_length_energy(c)[0]

        l1, l2, l3 = length_at(251), length_at(501), length_at(1001)
        ratio = abs(l1 - l2) / abs(l2 - l3)
        assert 3.0 <= ratio <= 5.0


def full_interior_derivative(s: np.ndarray, dt: float) -> np.ndarray:
    """The stencils applied the long way: central differences over the whole
    interior, then the five-point stencil over it where it fits."""
    d = np.empty_like(s)
    d[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
    if len(s) >= 5:
        d[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * dt)
    d[0] = (-3.0 * s[0] + 4.0 * s[1] - s[2]) / (2.0 * dt)
    d[-1] = (3.0 * s[-1] - 4.0 * s[-2] + s[-3]) / (2.0 * dt)
    return d


class TestGridDerivative:
    @pytest.mark.parametrize("nsamp", [3, 4, 5, 6, 201])
    def test_matches_the_full_interior_stencils(self, rng, nsamp):
        for shape in ((nsamp,), (nsamp, 2, 2), (nsamp, 6, 6)):
            s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(curves.grid_derivative(s, 0.01), full_interior_derivative(s, 0.01))
