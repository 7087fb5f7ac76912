import math

import numpy as np
import pytest

from toruscan.dynamics import (
    State,
    grad_angular_momentum,
    grad_hamiltonian,
    vector_field,
)
from toruscan.foliation import (
    Plane,
    SingularPointError,
    evaluate,
    is_degenerate,
    singularity_curve_distance,
    singularity_function,
)
from toruscan.scan import plane_point

from conftest import random_states
from oracles import lagrange_points, reversal, reversal_tangent


def dot(u, w):
    return sum(a * b for a, b in zip(u, w))


class TestTransverseField:
    def test_tangent_to_energy_levels(self, rng):
        for s in random_states(rng, 20, avoid_mu=0.1):
            xi = evaluate(s, 0.1).xi
            gh = grad_hamiltonian(s, 0.1)
            assert abs(dot(xi, gh)) < 1e-12

    def test_projection_identity(self, rng):
        # xi . grad L = |xi|^2 >= 0
        for s in random_states(rng, 20, avoid_mu=0.1):
            xi = evaluate(s, 0.1).xi
            gl = grad_angular_momentum(s)
            assert dot(xi, gl) == pytest.approx(dot(xi, xi), rel=1e-12, abs=1e-14)

    def test_vanishes_on_unperturbed_circular_orbit(self):
        # Non-corotating circular orbit r = L^2 with L != 1: grad H != 0 but
        # the gradients are parallel, so xi = 0.
        L = 1.2
        s = plane_point(Plane.THETA0, L * L, L, 0.0)
        gh = grad_hamiltonian(s, 0.0)
        assert math.sqrt(dot(gh, gh)) > 1e-3
        xi = evaluate(s, 0.0).xi
        assert math.sqrt(dot(xi, xi)) < 1e-12

    def test_corotating_circle_is_an_equilibrium_at_zero_mu(self):
        # At mu = 0 the unit circular orbit is frame-fixed: V = 0 and
        # grad H = 0 simultaneously there.
        with pytest.raises(SingularPointError):
            evaluate(State(1.0, 0.0, 0.0, 0.0), 0.0).xi

    def test_transversality_on_torus_seed(self):
        # L = 1, C = 2.5 seed: r from the radial invariant with p_r = 0.
        s = plane_point(Plane.THETA0, 1.8, 1.0, 0.0)
        xi = evaluate(s, 0.0).xi
        assert dot(xi, grad_angular_momentum(s)) > 1e-3

    def test_singular_at_equilibrium(self):
        x, y = lagrange_points(0.1)[3]
        with pytest.raises(SingularPointError):
            evaluate(State(x, y, 0.0, 0.0), 0.1).xi


class TestOrientationForm:
    def test_annihilates_flow_direction(self, rng):
        for s in random_states(rng, 20, avoid_mu=0.1):
            lam = evaluate(s, 0.1).lambda_coeffs
            v = vector_field(s, 0.1)
            assert abs(dot(lam, v)) < 1e-12

    def test_cauchy_schwarz_identity_on_xi(self, rng):
        for s in random_states(rng, 20, avoid_mu=0.1):
            f = evaluate(s, 0.1)
            v = vector_field(s, 0.1)
            v2 = dot(v, v)
            expected = f.xi_norm**2 - dot(v, f.xi) ** 2 / v2
            assert f.lambda_of_xi == pytest.approx(expected, rel=1e-10, abs=1e-12)
            assert f.lambda_of_xi >= -1e-14

    def test_vanishes_where_xi_parallel_to_flow(self):
        # State located by minimizing the xi-V angle over velocities at a
        # fixed position (the parallel set has codimension two, so a single
        # trajectory generically only passes near it).
        s = State(0.55, 0.35, -0.7077862099118, -0.3014571519874)
        f = evaluate(s, 0.3)
        assert f.lambda_of_xi / f.xi_norm**2 < 1e-10


class TestSingularityFunction:
    def test_unperturbed_reduces_to_circular_orbit_curve(self):
        for L in (0.6, 1.0, 1.3):
            assert abs(singularity_function(L * L, L, 0.0, Plane.THETA0)) < 1e-14

    def test_arithmetic_example(self):
        expected = 0.9 / 2.1**2 + 0.1 / 1.1**2
        got = singularity_function(2.0, 0.0, 0.1, Plane.THETA0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got > 0.0

    def test_sign_flip_below_secondary_radius(self):
        # Between the pole and the inner zero the secondary term dominates
        # with a negative sign.
        assert singularity_function(0.85, 0.0, 0.1, Plane.THETA0) < 0.0

    def test_pole_at_secondary_radius(self):
        with pytest.raises(ValueError):
            singularity_function(0.9, 0.0, 0.1, Plane.THETA0)
        with pytest.raises(ValueError):
            singularity_function(0.1, 0.0, 0.1, Plane.THETA_PI)

    def test_negative_x_plane_uses_mirrored_ratio(self):
        # f on the negative-x plane of mu equals f on the positive-x plane
        # of 1 - mu.
        for r, L in ((0.5, 0.3), (1.7, -0.9), (2.4, 1.2)):
            a = singularity_function(r, L, 0.3, Plane.THETA_PI)
            b = singularity_function(r, L, 0.7, Plane.THETA0)
            assert a == pytest.approx(b, rel=1e-15)

    def test_zero_set_converges_to_circular_curve(self):
        mu = 1e-6
        for L in np.concatenate([np.linspace(-1.5, -0.1, 8), np.linspace(0.1, 1.5, 8)]):
            target = L * L

            def f(r):
                return singularity_function(r, float(L), mu, Plane.THETA0)

            lo, hi = 0.5 * target, 2.0 * target + 0.1
            if not (abs(lo - (1 - mu)) > 1e-3 and f(lo) * f(hi) < 0):
                lo = max(0.7 * target, 1e-4)
            assert f(lo) * f(hi) < 0
            for _ in range(80):
                m = 0.5 * (lo + hi)
                if f(lo) * f(m) <= 0.0:
                    hi = m
                else:
                    lo = m
            assert abs(0.5 * (lo + hi) - target) < 1e-3

    def test_curve_distance_estimate(self):
        mu = 0.1
        # Bisect onto the outer branch of the curve at L = 1.6, then check
        # the first-order distance estimate is tiny there and O(1) far away.
        L = 1.6

        def f(r):
            return singularity_function(r, L, mu, Plane.THETA0)

        lo, hi = 1.0, 1.25
        assert f(lo) * f(hi) < 0
        for _ in range(60):
            m = 0.5 * (lo + hi)
            if f(lo) * f(m) <= 0.0:
                hi = m
            else:
                lo = m
        r_on = 0.5 * (lo + hi)
        assert singularity_curve_distance(r_on, L, mu, Plane.THETA0) < 1e-6
        assert singularity_curve_distance(3.5, 0.2, mu, Plane.THETA0) > 0.1


class TestDegeneracy:
    def test_equilibrium_reason(self):
        x, y = lagrange_points(0.1)[0]
        flag, reason = is_degenerate(State(x, y, 0.0, 0.0), 0.1)
        assert flag and reason == "equilibrium"

    def test_circular_orbit_parallel_gradients(self):
        L = 1.2
        flag, reason = is_degenerate(plane_point(Plane.THETA0, L * L, L, 0.0), 0.0)
        assert flag and reason == "parallel-gradients"

    def test_corotating_circle_reported_as_equilibrium(self):
        flag, reason = is_degenerate(State(1.0, 0.0, 0.0, 0.0), 0.0)
        assert flag and reason == "equilibrium"

    def test_generic_torus_point_not_degenerate(self):
        s = plane_point(Plane.THETA0, 1.8, 1.0, 0.0)
        flag, reason = is_degenerate(s, 0.0)
        assert not flag and reason is None

    def test_perpendicular_bisector_point(self):
        # On the positive-x plane the distances to the bodies agree at
        # r = 1/2 - mu, where L^2 = r^4/r1^3 makes the field degenerate.
        mu = 0.1
        r = 0.5 - mu
        L = math.sqrt(r**4 / 0.5**3)
        s = plane_point(Plane.THETA0, r, L, mu)
        flag, reason = is_degenerate(s, mu, tol=1e-6)
        assert flag and reason == "parallel-gradients"


class TestReversalEquivariance:
    def test_xi_equivariant(self, rng):
        for s in random_states(rng, 15, avoid_mu=0.1):
            lhs = evaluate(reversal(s), 0.1).xi
            rhs = reversal_tangent(evaluate(s, 0.1).xi)
            assert np.allclose(lhs, rhs, atol=1e-13)

    def test_lambda_equivariant(self, rng):
        for s in random_states(rng, 15, avoid_mu=0.1):
            lhs = evaluate(reversal(s), 0.1).lambda_coeffs
            rhs = reversal_tangent(evaluate(s, 0.1).lambda_coeffs)
            assert np.allclose(lhs, rhs, atol=1e-13)
