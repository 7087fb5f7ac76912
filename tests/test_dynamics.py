import math
import warnings

import numpy as np
import pytest

from toruscan.dynamics import (
    State,
    TangentVector,
    angular_momentum,
    effective_potential,
    flow_field,
    grad_angular_momentum,
    grad_hamiltonian,
    hamiltonian,
    jacobi_constant,
    jacobian,
    joint_field,
    kepler_energy,
    lagrange_points,
    polar,
    potential_gradient,
    reversal,
    reversal_tangent,
    symplectic_form,
    validate_mass_ratio,
    vector_field,
)
from toruscan.integrate import DopriDriver, IntegratorOptions

from conftest import random_states

# Frozen against a 50-digit Decimal evaluation of the same formula.
U_HALF_HALF_MU01 = -1.5585056812846698


def integrate_flow(s, mu, t_end, opts=None, backward=False):
    opts = opts or IntegratorOptions()
    field = flow_field(mu)
    if backward:
        fwd = field
        field = lambda y: tuple(-c for c in fwd(y))
    drv = DopriDriver(field, opts).reset(0.0, tuple(s))
    while drv.t < t_end:
        drv.step(t_end)
    return State(*drv.y)


class TestEffectivePotential:
    def test_single_body_on_axis(self):
        assert effective_potential(1.0, 0.0, 0.0) == pytest.approx(-1.5, abs=1e-15)

    def test_gradient_vanishes_at_equilateral_point(self):
        mu = 0.1
        ux, uy = potential_gradient(0.5 - mu, math.sqrt(3.0) / 2.0, mu)
        assert abs(ux) < 1e-14 and abs(uy) < 1e-14

    def test_against_high_precision_oracle(self):
        assert effective_potential(0.5, 0.5, 0.1) == pytest.approx(
            U_HALF_HALF_MU01, rel=1e-15
        )

    def test_domain_error_at_bodies(self):
        with pytest.raises(ValueError):
            effective_potential(-0.1, 0.0, 0.1)
        with pytest.raises(ValueError):
            effective_potential(0.9, 0.0, 0.1)


class TestHamiltonian:
    def test_corotating_circular_orbit(self):
        s = State(1.0, 0.0, 0.0, 0.0)
        assert hamiltonian(s, 0.0) == pytest.approx(-1.5, abs=1e-15)
        assert jacobi_constant(s, 0.0) == pytest.approx(3.0, abs=1e-15)

    def test_zero_velocity_state_has_h_equal_u(self):
        s = State(0.7, -0.4, 0.0, 0.0)
        assert hamiltonian(s, 0.2) == effective_potential(0.7, -0.4, 0.2)

    def test_equals_kepler_energy_minus_angular_momentum(self, rng):
        for s in random_states(rng, 25, avoid_mu=0.1):
            h = hamiltonian(s, 0.1)
            k = kepler_energy(s, 0.1)
            L = angular_momentum(s)
            assert h == pytest.approx(k - L, abs=1e-13)

    def test_specific_cross_check(self):
        s = State(0.5, 0.2, 0.1, -0.3)
        assert hamiltonian(s, 0.1) == pytest.approx(
            kepler_energy(s, 0.1) - angular_momentum(s), abs=1e-14
        )


class TestAngularMomentumAndMomenta:
    def test_corotating_value(self):
        assert angular_momentum(State(1.0, 0.0, 0.0, 0.0)) == 1.0

    def test_zero_at_origin(self):
        assert angular_momentum(State(0.0, 0.0, 0.7, -0.2)) == 0.0

    def test_polar_fields(self):
        s = State(0.6, 0.8, 0.3, -0.1)
        ps = polar(s)
        assert ps.r == pytest.approx(1.0, abs=1e-15)
        assert ps.theta == pytest.approx(math.atan2(0.8, 0.6))
        assert ps.p_r == pytest.approx(0.6 * 0.3 + 0.8 * (-0.1), abs=1e-15)
        assert ps.p_theta == angular_momentum(s)


class TestKeplerEnergy:
    def test_corotating_value(self):
        assert kepler_energy(State(1.0, 0.0, 0.0, 0.0), 0.0) == pytest.approx(-0.5)

    def test_identity_with_hamiltonian(self, rng):
        for s in random_states(rng, 25):
            res = kepler_energy(s, 0.0) - angular_momentum(s) - hamiltonian(s, 0.0)
            assert abs(res) < 1e-13

    def test_sign_matches_escape_boundary_at_radial_turning(self):
        # On the x-axis with vx = 0 the state has p_r = 0 and K >= 0 iff
        # L^2 >= 2r.
        r = 2.0
        for frac, expect_bound in ((0.98, True), (1.02, False)):
            L = frac * math.sqrt(2.0 * r)
            s = State(r, 0.0, 0.0, L / r - r)
            assert (kepler_energy(s, 0.0) < 0.0) is expect_bound


class TestVectorField:
    def test_equilibrium_at_lagrange_points(self):
        mu = 0.1
        for x, y in lagrange_points(mu):
            v = vector_field(State(x, y, 0.0, 0.0), mu)
            assert max(abs(c) for c in v) < 1e-11

    def test_corotating_circular_orbit_is_equilibrium(self):
        v = vector_field(State(1.0, 0.0, 0.0, 0.0), 0.0)
        assert max(abs(c) for c in v) == 0.0

    def test_energy_conservation_identity(self, rng):
        for s in random_states(rng, 25, avoid_mu=0.1):
            v = vector_field(s, 0.1)
            gh = grad_hamiltonian(s, 0.1)
            dh_v = sum(a * b for a, b in zip(gh, v))
            assert abs(dh_v) < 1e-13

    def test_contraction_identity_with_symplectic_form(self, rng):
        # omega(V, e) = dH(e) for all basis directions e.
        basis = [
            TangentVector(1.0, 0.0, 0.0, 0.0),
            TangentVector(0.0, 1.0, 0.0, 0.0),
            TangentVector(0.0, 0.0, 1.0, 0.0),
            TangentVector(0.0, 0.0, 0.0, 1.0),
        ]
        for s in random_states(rng, 10, avoid_mu=0.1):
            v = vector_field(s, 0.1)
            gh = grad_hamiltonian(s, 0.1)
            for e in basis:
                dh_e = sum(a * b for a, b in zip(gh, e))
                assert symplectic_form(v, e) == pytest.approx(dh_e, abs=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("mu", [0.0, 0.01, 0.1, 0.3])
    def test_against_central_differences(self, rng, mu):
        h = 1e-5
        for s in random_states(rng, 8, avoid_mu=mu):
            jac = np.array(jacobian(s, mu))
            fd = np.empty((4, 4))
            for k in range(4):
                sp = list(s)
                sm = list(s)
                sp[k] += h
                sm[k] -= h
                vp = np.array(vector_field(State(*sp), mu))
                vm = np.array(vector_field(State(*sm), mu))
                fd[:, k] = (vp - vm) / (2.0 * h)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() / scale < 1e-6

    def test_trace_is_zero(self, rng):
        for s in random_states(rng, 10, avoid_mu=0.1):
            jac = jacobian(s, 0.1)
            assert sum(jac[i][i] for i in range(4)) == 0.0

    def test_equilateral_point_linearly_stable_below_routh_ratio(self):
        mu = 0.01  # below the critical ratio ~0.03852
        s = State(0.5 - mu, math.sqrt(3.0) / 2.0, 0.0, 0.0)
        eig = np.linalg.eigvals(np.array(jacobian(s, mu)))
        assert np.abs(eig.real).max() < 1e-10

    def test_consistency_with_joint_field(self, rng):
        # The tangent half of the joint field is DV * eta.
        mu = 0.1
        field = joint_field(mu)
        for s in random_states(rng, 5, avoid_mu=mu):
            eta = TangentVector(0.3, -0.2, 0.5, 0.7)
            full = field(tuple(s) + tuple(eta))
            jac = np.array(jacobian(s, mu))
            expect = jac @ np.array(eta)
            assert np.allclose(full[4:], expect, atol=1e-14)
            assert np.allclose(full[:4], vector_field(s, mu), atol=1e-14)


class TestSymplecticForm:
    def test_position_velocity_pairing(self):
        assert symplectic_form((1, 0, 0, 0), (0, 0, 1, 0)) == 1.0

    def test_rotational_term(self):
        assert symplectic_form((1, 0, 0, 0), (0, 1, 0, 0)) == -2.0

    def test_antisymmetry(self, rng):
        for _ in range(10):
            u = rng.uniform(-1, 1, 4)
            w = rng.uniform(-1, 1, 4)
            assert symplectic_form(u, u) == 0.0
            assert symplectic_form(u, w) == pytest.approx(
                -symplectic_form(w, u), abs=1e-15
            )


class TestGradients:
    def test_grad_h_zero_only_at_equilibria(self):
        mu = 0.1
        for x, y in lagrange_points(mu):
            gh = grad_hamiltonian(State(x, y, 0.0, 0.0), mu)
            assert max(abs(c) for c in gh) < 1e-11

    def test_grad_l_example(self):
        assert grad_angular_momentum(State(1.0, 0.0, 0.0, 0.0)) == pytest.approx(
            (2.0, 0.0, 0.0, 1.0)
        )

    def test_against_finite_differences(self, rng):
        h = 1e-6
        mu = 0.1
        for s in random_states(rng, 8, avoid_mu=mu):
            gh = np.array(grad_hamiltonian(s, mu))
            gl = np.array(grad_angular_momentum(s))
            fd_h = np.empty(4)
            fd_l = np.empty(4)
            for k in range(4):
                sp, sm = list(s), list(s)
                sp[k] += h
                sm[k] -= h
                fd_h[k] = (hamiltonian(State(*sp), mu) - hamiltonian(State(*sm), mu)) / (
                    2 * h
                )
                fd_l[k] = (
                    angular_momentum(State(*sp)) - angular_momentum(State(*sm))
                ) / (2 * h)
            assert np.abs(gh - fd_h).max() < 1e-6
            assert np.abs(gl - fd_l).max() < 1e-6


class TestReversal:
    def test_symmetry_plane_fixed_point(self):
        s = State(1.0, 0.0, 0.0, 0.5)
        assert reversal(s) == s

    def test_generic_point(self):
        assert reversal(State(0.3, 0.4, 0.1, 0.2)) == State(0.3, -0.4, -0.1, 0.2)

    def test_involution_and_invariants(self, rng):
        for s in random_states(rng, 10, avoid_mu=0.1):
            rs = reversal(s)
            assert reversal(rs) == s
            assert hamiltonian(rs, 0.1) == pytest.approx(hamiltonian(s, 0.1), abs=1e-14)
            assert angular_momentum(rs) == pytest.approx(
                angular_momentum(s), abs=1e-14
            )

    def test_field_equivariance(self, rng):
        # V(R(s)) = -dR V(s)
        for s in random_states(rng, 10, avoid_mu=0.1):
            lhs = vector_field(reversal(s), 0.1)
            rhs = reversal_tangent(vector_field(s, 0.1))
            assert np.allclose(lhs, [-c for c in rhs], atol=1e-13)

    def test_flow_equivariance(self):
        # flow(R(s), -t) = R(flow(s, t))
        mu, t = 0.1, 5.0
        s = State(1.4, 0.3, -0.1, 0.45)
        fwd = integrate_flow(s, mu, t)
        back_from_reversed = integrate_flow(reversal(s), mu, t, backward=True)
        assert np.allclose(back_from_reversed, reversal(fwd), atol=1e-7)


class TestLagrangePoints:
    def test_equilateral_geometry(self):
        pts = lagrange_points(0.1)
        assert pts[3] == pytest.approx((0.4, math.sqrt(3.0) / 2.0))
        assert pts[4] == pytest.approx((0.4, -math.sqrt(3.0) / 2.0))

    def test_opposition_point_limit(self):
        pts = lagrange_points(1e-9)
        assert pts[2][0] == pytest.approx(-1.0, abs=1e-6)

    def test_residuals_below_tolerance(self):
        for mu in (0.01, 0.1, 0.3, 0.5):
            for x, y in lagrange_points(mu):
                ux, uy = potential_gradient(x, y, mu)
                assert abs(ux) < 1e-12 and abs(uy) < 1e-12

    def test_collinear_roots_match_brute_force_oracle(self):
        mu = 0.1
        pts = lagrange_points(mu)
        collinear = sorted(p[0] for p in pts[:3])

        def ux(x):
            return potential_gradient(x, 0.0, mu)[0]

        found = []
        xs = np.linspace(-1.9, 1.9, 40001)
        for a, b in zip(xs[:-1], xs[1:]):
            if abs(a + mu) < 1e-3 or abs(a - 1 + mu) < 1e-3:
                continue
            if abs(b + mu) < 1e-3 or abs(b - 1 + mu) < 1e-3:
                continue
            fa, fb = ux(a), ux(b)
            if fa * fb < 0.0:
                lo, hi = a, b
                for _ in range(80):
                    m = 0.5 * (lo + hi)
                    if ux(lo) * ux(m) <= 0.0:
                        hi = m
                    else:
                        lo = m
                found.append(0.5 * (lo + hi))
        assert len(found) == 3
        assert np.allclose(sorted(found), collinear, atol=1e-9)


class TestMassRatio:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_mass_ratio(-0.1)
        with pytest.raises(ValueError):
            validate_mass_ratio(1.5)

    def test_warns_above_one_half(self):
        with pytest.warns(UserWarning):
            validate_mass_ratio(0.9)

    def test_accepts_normal_range_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_mass_ratio(0.3)


class TestConservationAlongFlow:
    def test_jacobi_drift_over_long_integration(self):
        mu = 0.1
        s = State(1.8, 0.0, 0.0, 1.35 / 1.8 - 1.8)
        c0 = jacobi_constant(s, mu)
        s_end = integrate_flow(s, mu, 120.0)
        c1 = jacobi_constant(s_end, mu)
        assert abs(c1 - c0) / max(1.0, abs(c0)) < 1e-9
