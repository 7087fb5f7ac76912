import math

import numpy as np
import pytest

from toruscan.detector import DetectorConfig
from toruscan.dynamics import State, jacobi_constant, polar
from toruscan.foliation import Plane, singularity_function
from toruscan.integrate import DopriDriver, IntegratorOptions
from toruscan.scan import plane_point
import toruscan.section as section
from toruscan.section import radial_momentum_rate, return_map
from toruscan.unperturbed import elements_from_state

from conftest import body_distance_at


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

    def test_collision_ends_where_the_guard_enters(self):
        # The flagged step's end lies ~4% inside the collision radius here.
        s = State(0.903, 0.0, -1.0, 0.0)
        res = return_map(s, 0.1, 5, DetectorConfig(t_out=10.0))
        assert res.status == "collision"
        d = body_distance_at(s, 0.1, res.t_end)
        assert d == pytest.approx(IntegratorOptions().collision_radius, rel=1e-2)

    def test_step_underflow_is_not_collision(self):
        opts = IntegratorOptions(h_min=0.05, h_init=0.05, rel_tol=1e-14, abs_tol=1e-16)
        s = plane_point(Plane.THETA0, 1.5, 0.5, 0.1)
        res = return_map(s, 0.1, 3, DetectorConfig(integrator=opts))
        assert res.status == "step-underflow"
        assert res.crossings == []

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            return_map(State(1.5, 0, 0, 0.2), 0.1, 0, DetectorConfig())


class TestInStepCrossings:
    """Downward crossings whose return lies inside the same accepted step."""

    # x(t) = 1 + V t + A sin(W t) on y = EPS t: p_r ~ dx/dt dips below 0 for
    # about 1.3e-3 in time once per period, within single steps.  y is a
    # clock that keeps the field autonomous; EPS leaves p_r's zeros where
    # dx/dt's are to ~1e-12.
    V, W, A, EPS = 1.0, 50.0, 1.0005 / 50.0, 1e-6

    def field(self, s):
        x, y, vx, vy = s
        return (vx, vy, -self.W * self.W * (x - 1.0 - (self.V / self.EPS) * y), 0.0)

    def rate(self, s, mu):
        x, y, vx, vy = s
        ax = self.field(s)[2]
        r = math.hypot(x, y)
        p_r = (x * vx + y * vy) / r
        return (vx * vx + vy * vy + x * ax) / r - p_r * p_r / r

    def crossings(self, t_out):
        """The downward zeros of dx/dt = V + A W cos(W t) before t_out."""
        phi = math.acos(-self.V / (self.A * self.W))
        times, k = [], 0
        while (phi + 2.0 * math.pi * k) / self.W < t_out:
            times.append((phi + 2.0 * math.pi * k) / self.W)
            k += 1
        return times

    def test_every_return_is_found(self, monkeypatch):
        s0 = State(1.0, 0.0, self.V + self.A * self.W, self.EPS)
        # Past the first steps each dip lies inside one accepted step, which
        # the step ends alone would not show.
        drv = DopriDriver(self.field, IntegratorOptions()).reset(0.0, tuple(s0))
        expected = self.crossings(1.0)
        inside = 0
        while drv.t < 1.0:
            t0, y0, t1, y1 = drv.step(1.0)
            if any(t0 < t < t1 for t in expected):
                inside += y0[2] > 0.0 and y1[2] > 0.0
        assert len(expected) == 8 and inside >= 6
        monkeypatch.setattr(section, "flow_field", lambda mu: self.field)
        monkeypatch.setattr(section, "radial_momentum_rate", self.rate)
        res = return_map(s0, 0.0, 100, DetectorConfig(t_out=1.0))
        assert res.status == "timeout" and res.n_ambiguous == 0
        assert [c.t for c in res.crossings] == pytest.approx(expected, abs=1e-9)

    def test_return_inside_one_step_of_a_reference_orbit(self):
        # The mu = 0.1, C = 3.8 orbit from (r, L) below: near t = 187.0831
        # p_r dips below 0 between step ends reading +5.1e-3 and +8.7e-5.
        s0 = plane_point(Plane.THETA0, 0.30906396748699805, -0.21879257061005758, 0.1)
        res = return_map(s0, 0.1, 1000, DetectorConfig(t_out=200.0))
        assert res.status == "timeout"
        assert len(res.crossings) == 350
        near = [c.t for c in res.crossings if 187.0 < c.t < 187.2]
        assert near == [pytest.approx(187.0831, abs=1e-3)]


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
