import math

import numpy as np
import pytest

from toruscan.dynamics import State, jacobi_constant
from toruscan.integrate import DopriDriver, IntegratorOptions
from toruscan.dynamics import flow_field, angular_momentum
from toruscan.scan import plane_point
from toruscan.foliation import Plane
from toruscan.unperturbed import (
    Curve,
    compact_coords,
    crossing_boundary,
    escape_boundary,
    resonance_curve,
)

from oracles import (
    DegenerateOrbitError,
    UnboundOrbitError,
    elements_from_state,
    torus_region_contains,
)


class TestTorusRegion:
    def test_interior_point(self):
        assert torus_region_contains(1.0, 2.5)

    def test_circular_boundary_excluded(self):
        assert not torus_region_contains(1.0, 3.0)

    def test_parabolic_boundary_excluded(self):
        assert not torus_region_contains(1.0, 2.0)

    def test_zero_angular_momentum_excluded(self):
        assert not torus_region_contains(0.0, 1.0)


class TestRadialInvariant:
    def test_vanishes_along_unperturbed_trajectory(self):
        # p_r^2 + L^2/r^2 - 2L - 2/r + C = 0 on the mu = 0 invariant set.
        s = plane_point(Plane.THETA0, 1.5, 1.1, 0.0)
        C = jacobi_constant(s, 0.0)
        drv = DopriDriver(flow_field(0.0), IntegratorOptions()).reset(0.0, tuple(s))
        worst = 0.0
        while drv.t < 30.0:
            drv.step(30.0)
            st = State(*drv.y)
            r = math.hypot(st.x, st.y)
            p_r = (st.x * st.vx + st.y * st.vy) / r
            L = angular_momentum(st)
            residual = p_r * p_r + (L * L) / (r * r) - 2.0 * L - 2.0 / r + C
            worst = max(worst, abs(residual))
        assert worst < 1e-9


class TestKeplerElements:
    def test_circular_corotating(self):
        el = elements_from_state(State(1.0, 0.0, 0.0, 0.0))
        assert el.a == pytest.approx(1.0)
        assert el.e == pytest.approx(0.0, abs=1e-12)
        assert el.sigma == 1
        assert el.w == pytest.approx(-1.0)

    def test_known_energy_momentum_pair(self):
        # K = -0.5, L = 0.6 -> a = 1, e = 0.8: realized by a pericentre
        # state r = a(1-e) = 0.2 with tangential speed L/r = 3.
        s = State(0.2, 0.0, 0.0, 3.0 - 0.2)
        el = elements_from_state(s)
        assert el.a == pytest.approx(1.0, rel=1e-12)
        assert el.e == pytest.approx(0.8, rel=1e-12)
        assert el.r_min == pytest.approx(0.2, rel=1e-12)
        assert el.r_max == pytest.approx(1.8, rel=1e-12)

    def test_apsides_are_roots_of_radial_invariant(self, rng):
        # r_min/r_max solve (C-2L) r^2 - 2 r + L^2 = 0 (the p_r = 0 roots).
        for _ in range(20):
            r = rng.uniform(0.4, 2.5)
            L = rng.uniform(0.3, 1.2) * math.copysign(1.0, rng.uniform(-1, 1))
            s = plane_point(Plane.THETA0, r, L, 0.0)
            try:
                el = elements_from_state(s)
            except (UnboundOrbitError, DegenerateOrbitError):
                continue
            C = jacobi_constant(s, 0.0)
            roots = np.roots([C - 2.0 * L, -2.0, L * L])
            assert np.allclose(
                sorted(roots), [el.r_min, el.r_max], rtol=1e-9, atol=1e-12
            )

    def test_unbound_rejected(self):
        with pytest.raises(UnboundOrbitError):
            elements_from_state(State(3.0, 0.0, 0.0, 3.0 / 3.0 - 3.0))

    def test_radial_orbit_rejected(self):
        with pytest.raises(DegenerateOrbitError):
            elements_from_state(State(0.5, 0.0, -0.1, -0.5))


class TestResonanceCurve:
    def test_unit_ratio_geometry(self):
        c = resonance_curve(1, 1, 0.0, 4.0, n=201)
        rs = np.array([p[0] for p in c.points])
        ls = np.array([p[1] for p in c.points])
        assert rs.min() == pytest.approx(0.0)
        assert rs.max() == pytest.approx(2.0)
        # passes through (1, 1) and (1, -1)
        k = np.argmin(np.hypot(rs - 1.0, ls - 1.0))
        assert math.hypot(rs[k] - 1.0, ls[k] - 1.0) < 0.02
        k = np.argmin(np.hypot(rs - 1.0, ls + 1.0))
        assert math.hypot(rs[k] - 1.0, ls[k] + 1.0) < 0.02

    def test_double_ratio_endpoint(self):
        c = resonance_curve(2, 1, 0.0, 10.0)
        rs = [p[0] for p in c.points]
        assert max(rs) == pytest.approx(2.0 * 2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_points_recover_requested_ratio(self):
        for p, q in ((9, 4), (13, 4), (2, 1), (12, 5)):
            c = resonance_curve(p, q, 0.05, 10.0, n=400)
            a = (p / q) ** (2.0 / 3.0)
            for r, L in c.points[::37]:
                if r < 0.05 * a or r > 1.95 * a or abs(L) < 1e-3:
                    continue
                el = elements_from_state(plane_point(Plane.THETA0, r, L, 0.0))
                assert abs(el.w) == pytest.approx(p / q, abs=1e-10)

    def test_on_ellipse_identity(self):
        c = resonance_curve(9, 4, 0.0, 10.0, n=300)
        a = (9.0 / 4.0) ** (2.0 / 3.0)
        for r, L in c.points:
            assert (r / a - 1.0) ** 2 + L * L / a == pytest.approx(1.0, abs=1e-12)

    def test_empty_when_range_misses_ellipse(self):
        c = resonance_curve(1, 1, 5.0, 10.0)
        assert c.points == []

    def test_family_labels(self):
        labels = [resonance_curve(n, 4, 0, 8).label for n in (9, 13, 17, 21)]
        assert labels == [
            "resonance 9/4",
            "resonance 13/4",
            "resonance 17/4",
            "resonance 21/4",
        ]


class TestBoundaries:
    def test_crossing_boundary_values(self):
        assert crossing_boundary(1.0) == pytest.approx(1.0)
        assert crossing_boundary(1e9) == pytest.approx(2.0, abs=1e-8)

    def test_escape_boundary(self):
        assert escape_boundary(1.7) == pytest.approx(3.4)

    def test_strictly_ordered_beyond_unit_radius(self):
        for r in np.linspace(1.0001, 50.0, 200):
            assert crossing_boundary(float(r)) < escape_boundary(float(r))

    def test_crossing_region_has_pericentre_inside_unit_circle(self, rng):
        for _ in range(25):
            r = rng.uniform(1.05, 4.0)
            frac = rng.uniform(0.05, 0.98)
            L = math.sqrt(frac * crossing_boundary(r))
            el = elements_from_state(plane_point(Plane.THETA0, r, L, 0.0))
            assert el.r_min < 1.0
        for _ in range(25):
            r = rng.uniform(1.05, 4.0)
            frac = rng.uniform(1.02, 1.5)
            L2 = frac * crossing_boundary(r)
            if L2 >= escape_boundary(r) * 0.98:
                continue
            el = elements_from_state(plane_point(Plane.THETA0, r, math.sqrt(L2), 0.0))
            assert el.r_min > 1.0


class TestCompactCoords:
    def test_midpoint_mapping(self):
        rb, _ = compact_coords(5.0, 0.7, m=5.0)
        assert rb == pytest.approx(0.5)

    def test_circular_orbits_at_unit_level(self):
        for L in (0.7, -1.1, 1.4):
            _, lb = compact_coords(L * L, L, m=5.0)
            assert abs(lb) == pytest.approx(1.0, rel=1e-12)

    def test_escape_boundary_at_sqrt_two(self):
        for r in (0.5, 1.0, 3.0):
            _, lb = compact_coords(r, math.sqrt(escape_boundary(r)), m=5.0)
            assert lb == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            compact_coords(-1.0, 0.0)
        with pytest.raises(ValueError):
            compact_coords(1.0, 0.0, m=0.0)
