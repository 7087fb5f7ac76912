import math

import numpy as np
import pytest

from toruscan.detector import DetectorConfig
from toruscan.dynamics import State, jacobi_constant, polar
from toruscan.foliation import Plane, singularity_function
from toruscan.integrate import IntegratorOptions
from toruscan.scan import plane_point
from toruscan.section import radial_momentum_rate, return_map
from toruscan.unperturbed import elements_from_state


def kepler_pericentre_state(a, e):
    rp = a * (1.0 - e)
    vp = math.sqrt((1.0 + e) / (a * (1.0 - e)))
    return State(rp, 0.0, 0.0, vp - rp)


class TestRadialMomentum:
    def test_matches_polar_definition(self, rng):
        for _ in range(10):
            x, y = rng.uniform(0.3, 2.0, 2)
            vx, vy = rng.uniform(-1, 1, 2)
            s = State(float(x), float(y), float(vx), float(vy))
            r = math.hypot(s.x, s.y)
            assert polar(s).p_r == pytest.approx((s.x * s.vx + s.y * s.vy) / r)

    def test_rate_against_finite_differences(self):
        from toruscan.dynamics import flow_field
        from toruscan.integrate import DopriDriver

        mu = 0.1
        s = plane_point(Plane.THETA0, 1.4, 0.9, mu)
        h = 1e-6
        drv = DopriDriver(flow_field(mu), IntegratorOptions(h_init=h, h_max=h, fixed_step=True))
        drv.reset(0.0, tuple(s))
        drv.step(h)
        fd = (polar(State(*drv.y)).p_r - polar(s).p_r) / h
        assert radial_momentum_rate(s, mu) == pytest.approx(fd, abs=1e-5)


class TestReturnMap:
    def test_kepler_orbit_crossings_at_apoapsis(self):
        a, e = 1.2, 0.3
        res = return_map(
            kepler_pericentre_state(a, e), 0.0, 4, DetectorConfig(t_out=60.0)
        )
        assert res.status == "completed"
        assert len(res.crossings) == 4
        period = 2.0 * math.pi * a**1.5
        for k, c in enumerate(res.crossings):
            assert c.polar.r == pytest.approx(a * (1.0 + e), abs=1e-8)
            assert c.t == pytest.approx((k + 0.5) * period, abs=1e-6)
            assert abs(polar(c.s).p_r) < 1e-9
            assert c.dp_r_dt <= 0.0

    def test_crossing_radius_equals_osculating_apoapsis(self, rng):
        for _ in range(5):
            a = float(rng.uniform(0.8, 1.6))
            e = float(rng.uniform(0.1, 0.6))
            res = return_map(
                kepler_pericentre_state(a, e), 0.0, 1, DetectorConfig(t_out=40.0)
            )
            el = elements_from_state(kepler_pericentre_state(a, e))
            assert res.crossings[0].polar.r == pytest.approx(el.r_max, abs=1e-8)

    def test_jacobi_constant_preserved_across_crossings(self):
        # Prograde, clear of both bodies: the drift budget of the default
        # tolerances applies.
        mu = 0.1
        s = plane_point(Plane.THETA0, 1.8, 1.32, mu)
        c0 = jacobi_constant(s, mu)
        res = return_map(s, mu, 6, DetectorConfig(t_out=120.0))
        assert len(res.crossings) >= 3
        for c in res.crossings:
            assert abs(jacobi_constant(c.s, mu) - c0) < 1e-9

    def test_outgoing_hyperbolic_orbit_never_returns(self):
        # K > 0 and moving outward: no radial maximum is reached before the
        # timeout with a generous escape radius.
        s = State(3.0, 0.0, 0.8, math.sqrt(7.0) / 3.0 - 3.0)
        cfg = DetectorConfig(
            t_out=20.0, integrator=IntegratorOptions(escape_radius=50.0)
        )
        res = return_map(s, 0.0, 3, cfg)
        assert res.status == "no-return"
        assert res.crossings == []

    def test_escape_status_with_default_radius(self):
        s = plane_point(Plane.THETA0, 3.0, 3.0, 0.1)
        res = return_map(s, 0.1, 3, DetectorConfig(t_out=60.0))
        assert res.status == "escape"

    def test_collision_status(self):
        res = return_map(State(0.903, 0.0, -1.0, 0.0), 0.1, 5, DetectorConfig(t_out=10.0))
        assert res.status == "collision"
        assert res.crossings == []

    def test_step_underflow_is_not_collision(self):
        opts = IntegratorOptions(h_min=0.05, h_init=0.05, rel_tol=1e-14, abs_tol=1e-16)
        s = plane_point(Plane.THETA0, 1.5, 0.5, 0.1)
        res = return_map(s, 0.1, 3, DetectorConfig(integrator=opts))
        assert res.status == "step-underflow"
        assert res.crossings == []

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            return_map(State(1.5, 0, 0, 0.2), 0.1, 0, DetectorConfig())


class TestSectionMembership:
    # The section side is dp_r/dt <= 0; on a symmetry plane dp_r/dt = -f(r, L).
    def test_unperturbed_rule(self):
        # r >= L^2 at mu = 0.
        def rate(r, L):
            return radial_momentum_rate(plane_point(Plane.THETA0, r, L, 0.0), 0.0)

        assert rate(1.5, 1.0) <= 0.0
        assert rate(0.8, 1.0) > 0.0

    def test_perturbed_example(self):
        s = plane_point(Plane.THETA0, 2.0, 0.0, 0.1)
        assert radial_momentum_rate(s, 0.1) <= 0.0

    def test_boundary_matches_singularity_zero_set(self):
        mu = 0.1
        for r in (0.3, 0.5, 1.2, 2.0, 3.0):
            for L in (-1.5, -0.4, 0.4, 1.5):
                rate = radial_momentum_rate(plane_point(Plane.THETA0, r, L, mu), mu)
                f = singularity_function(r, L, mu, Plane.THETA0)
                assert rate == pytest.approx(-f, rel=1e-12, abs=1e-12)

    def test_accepted_crossings_lie_on_section_side(self):
        mu = 0.1
        s = plane_point(Plane.THETA0, 1.6, 1.15, mu)
        res = return_map(s, mu, 5, DetectorConfig(t_out=120.0))
        for c in res.crossings:
            assert radial_momentum_rate(c.s, mu) <= 0.0
