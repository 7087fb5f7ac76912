import math
import random
from dataclasses import replace

import numpy as np
import pytest

from toruscan import detector
from toruscan.detector import (
    Classification,
    DetectionOutcome,
    DetectorConfig,
    Formulation,
    _g_monitor,
    _make_guard,
    antisymmetric_tangent,
    lyapunov_estimate,
    monitor_run,
    run,
    run_both,
    run_general,
    run_symmetric,
)
from toruscan.dynamics import (
    State,
    TangentVector,
    grad_hamiltonian,
    hamiltonian,
    joint_field,
    vector_field,
)
from toruscan.config import parse_config, to_detector_config, to_plane_spec
from toruscan.foliation import Plane, evaluate
from toruscan.integrate import DopriDriver, IntegratorOptions, _attempt_kernel
from toruscan.scan import _classify_cell, plane_point

from conftest import body_distance_at, random_states
from oracles import lagrange_points, reversal_tangent, symplectic_form

TORUS_SEED_MU0 = plane_point(Plane.THETA0, 1.2, 1.0, 0.0)
CROSSING_SEED = plane_point(Plane.THETA0, 1.5, 0.5, 0.1)


def cfg_with(**kw):
    return DetectorConfig(**kw)


class TestGeneralFormulation:
    def test_unperturbed_torus_seed_is_undetermined(self):
        out = run_general(TORUS_SEED_MU0, 0.0, cfg_with(t_out=40.0))
        assert out.classification is Classification.UNDETERMINED
        assert out.t_detect is None and out.q is None

    def test_crossing_region_seed_fires(self):
        out = run_general(CROSSING_SEED, 0.1, cfg_with(t_out=40.0))
        assert out.classification is Classification.NONEXISTENCE
        assert 0.0 < out.t_detect <= 40.0
        assert out.q == pytest.approx(out.t_detect / 40.0)
        assert out.n_sign_events >= 1

    def test_lagrange_seed_is_singular(self):
        x, y = lagrange_points(0.1)[3]
        out = run_general(State(x, y, 0.0, 0.0), 0.1, cfg_with())
        assert out.classification is Classification.SINGULAR_SEED
        assert out.diagnostics["reason"] == "equilibrium"

    def test_circular_curve_seed_is_singular(self):
        L = 1.2
        out = run_general(plane_point(Plane.THETA0, L * L, L, 0.0), 0.0, cfg_with())
        assert out.classification is Classification.SINGULAR_SEED
        assert out.diagnostics["reason"] == "parallel-gradients"

    def test_collision_classification(self):
        out = run_general(State(0.903, 0.0, -1.0, 0.0), 0.1, cfg_with())
        assert out.classification is Classification.COLLISION
        assert out.t_detect is None
        assert out.diagnostics["t_end"] < 0.01

    def test_step_underflow_is_undetermined_not_collision(self):
        opts = IntegratorOptions(h_min=0.05, h_init=0.05, rel_tol=1e-14, abs_tol=1e-16)
        out = run_general(CROSSING_SEED, 0.1, cfg_with(integrator=opts))
        assert out.classification is Classification.UNDETERMINED
        assert out.diagnostics["reason"] == "step-underflow"

    def test_escape_classification(self):
        out = run_general(plane_point(Plane.THETA0, 3.0, 3.0, 0.1), 0.1, cfg_with())
        assert out.classification is Classification.ESCAPE

    def test_homogeneity_in_seed_tangent(self):
        base = run_general(CROSSING_SEED, 0.1, cfg_with(t_out=40.0))
        xi = evaluate(CROSSING_SEED, 0.1).xi
        scaled = run_general(
            CROSSING_SEED,
            0.1,
            cfg_with(t_out=40.0),
            eta0=TangentVector(*(1e3 * c for c in xi)),
        )
        assert scaled.classification is base.classification
        assert scaled.t_detect == pytest.approx(base.t_detect, abs=1e-6)

    def test_detection_time_stable_under_renormalization_policy(self):
        times = []
        for thresh in (1e3, 1e6, 1e300):
            cfg = cfg_with(
                t_out=40.0, integrator=IntegratorOptions(renorm_threshold=thresh)
            )
            out = run_general(CROSSING_SEED, 0.1, cfg)
            assert out.classification is Classification.NONEXISTENCE
            times.append(out.t_detect)
        assert max(times) - min(times) < 1e-6

    def test_xi_parallel_v_seed_flagged(self):
        s = State(0.55, 0.35, -0.7077862099118, -0.3014571519874)
        out = run_general(s, 0.3, cfg_with(t_out=2.0))
        assert out.diagnostics.get("seed_xi_parallel_v") is True


class TestSymmetricSeedTangent:
    def test_antisymmetric_unit_orthogonal(self, rng):
        mu = 0.1
        count = 0
        while count < 100:
            r = float(rng.uniform(0.3, 3.0))
            L = float(rng.uniform(-2.0, 2.0))
            if abs(r - 0.9) < 1e-2:
                continue
            s = plane_point(Plane.THETA0, r, L, mu)
            v = vector_field(s, mu)
            if math.hypot(v.dy, v.dvx) < 1e-6:
                continue
            eta = antisymmetric_tangent(s, mu)
            count += 1
            # antisymmetric under dR = diag(1,-1,-1,1): dR eta = -eta
            assert reversal_tangent(eta) == pytest.approx(
                tuple(-c for c in eta), abs=0.0
            )
            assert math.sqrt(sum(c * c for c in eta)) == pytest.approx(1.0)
            assert sum(a * b for a, b in zip(eta, v)) == pytest.approx(0.0, abs=1e-12)
            gh = grad_hamiltonian(s, mu)
            assert sum(a * b for a, b in zip(eta, gh)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_rejects_off_plane_seed(self):
        with pytest.raises(ValueError):
            antisymmetric_tangent(State(1.0, 0.2, 0.0, 0.3), 0.1)

    def test_equilibrium_seed_is_singular(self):
        mu = 0.1
        x1 = lagrange_points(mu)[0][0]
        out = run_symmetric(plane_point(Plane.THETA0, x1, x1 * x1, mu), mu, cfg_with())
        assert out.classification is Classification.SINGULAR_SEED
        assert out.diagnostics["reason"] == "equilibrium"


class TestSymmetricFormulation:
    @pytest.mark.parametrize("L", [1.2, 1.4, -1.2])
    def test_circular_unperturbed_orbit_never_arms(self, L):
        # r = L^2 at mu = 0: grad L is parallel to grad H along the whole
        # orbit, so xi is cancellation noise and must not arm the monitor.
        seed = plane_point(Plane.THETA0, L * L, L, 0.0)
        out = run_symmetric(seed, 0.0, cfg_with(t_out=40.0))
        assert out.classification is Classification.UNDETERMINED
        assert out.n_sign_events == 0

    def test_unperturbed_torus_seed_is_undetermined(self):
        out = run_symmetric(TORUS_SEED_MU0, 0.0, cfg_with(t_out=40.0))
        assert out.classification is Classification.UNDETERMINED

    def test_fires_earlier_than_general_on_reference_seed(self):
        # Seed located by scanning the C ~ 3.7 level of the positive-x
        # symmetry plane at mu = 0.3.
        mu = 0.3
        s = plane_point(Plane.THETA0, 0.565, 1.24454, mu)
        gen = run_general(s, mu, cfg_with(t_out=40.0))
        sym = run_symmetric(s, mu, cfg_with(t_out=40.0))
        assert gen.classification is Classification.NONEXISTENCE
        assert sym.classification is Classification.NONEXISTENCE
        assert sym.t_detect < gen.t_detect

    def test_fires_where_general_is_blocked_by_collision(self):
        # Close to the secondary the symmetric condition triggers before
        # the trajectory reaches the collision radius.
        s = plane_point(Plane.THETA0, 1.05, 0.8, 0.1)
        sym = run_symmetric(s, 0.1, cfg_with(t_out=40.0))
        gen = run_general(s, 0.1, cfg_with(t_out=40.0))
        assert sym.classification is Classification.NONEXISTENCE
        assert gen.classification is Classification.COLLISION

    def test_backward_trajectory_is_reflection_of_forward(self):
        # With an antisymmetric seed tangent: s(-t) = R(s(t)) and
        # eta(-t) = -dR eta(t).
        mu = 0.1
        s = plane_point(Plane.THETA0, 1.5, 0.5, mu)
        eta = antisymmetric_tangent(s, mu)
        field = joint_field(mu)
        back_field = lambda y: tuple(-c for c in field(y))
        opts = IntegratorOptions()
        t_end = 4.0
        fwd = DopriDriver(field, opts).reset(0.0, tuple(s) + tuple(eta))
        while fwd.t < t_end:
            fwd.step(t_end)
        bwd = DopriDriver(back_field, opts).reset(0.0, tuple(s) + tuple(eta))
        while bwd.t < t_end:
            bwd.step(t_end)
        s_f, eta_f = fwd.y[:4], fwd.y[4:]
        s_b, eta_b = bwd.y[:4], bwd.y[4:]
        # R on states, -dR on tangents
        assert np.allclose(s_b, (s_f[0], -s_f[1], -s_f[2], s_f[3]), atol=1e-6)
        assert np.allclose(
            eta_b, (-eta_f[0], eta_f[1], eta_f[2], -eta_f[3]), atol=1e-6
        )


class TestBothAndDispatch:
    def test_both_takes_earliest_detection(self):
        mu = 0.3
        s = plane_point(Plane.THETA0, 0.565, 1.24454, mu)
        both = run_both(s, mu, cfg_with(t_out=40.0))
        sym = run_symmetric(s, mu, cfg_with(t_out=40.0))
        assert both.classification is Classification.NONEXISTENCE
        assert both.t_detect == pytest.approx(sym.t_detect, abs=1e-9)
        assert both.diagnostics["general"] == "Nonexistence"

    def test_general_singular_seed_keeps_symmetric_outcome(self):
        # A circular mu = 0 orbit (r = L^2) has parallel gradients: general
        # cannot seed, and symmetric runs to the timeout.
        s = plane_point(Plane.THETA0, 1.44, 1.2, 0.0)
        both = run_both(s, 0.0, cfg_with(t_out=10.0))
        assert both.classification is Classification.UNDETERMINED
        assert both.diagnostics["general"] == "SingularSeed"
        assert both.diagnostics["general_reason"] == "parallel-gradients"
        assert both.diagnostics["symmetric"] == "Undetermined"

    def test_dispatch_matches_formulation(self):
        cfg = cfg_with(t_out=10.0)
        for form, runner in (
            (Formulation.GENERAL, run_general),
            (Formulation.SYMMETRIC, run_symmetric),
            (Formulation.BOTH, run_both),
        ):
            out = run(CROSSING_SEED, 0.1, replace(cfg, formulation=form))
            assert out == runner(CROSSING_SEED, 0.1, cfg)


class TestLyapunovEstimate:
    def test_torus_orbit_has_small_exponent(self):
        cfg = cfg_with(t_out=120.0)
        out = lyapunov_estimate(plane_point(Plane.THETA0, 1.8, 1.0, 0.0), 0.0, cfg)
        assert out.classification is Classification.UNDETERMINED
        assert out.lyapunov is not None and out.lyapunov <= 0.05

    def test_chaotic_seed_has_positive_exponent(self):
        cfg = cfg_with(t_out=40.0)
        out = lyapunov_estimate(plane_point(Plane.THETA0, 1.05, -0.5, 0.1), 0.1, cfg)
        assert out.lyapunov > 0.1

    def test_invariant_under_tangent_scaling(self):
        cfg = cfg_with(t_out=40.0)
        s = plane_point(Plane.THETA0, 1.05, -0.5, 0.1)
        xi = evaluate(s, 0.1).xi
        a = lyapunov_estimate(s, 0.1, cfg)
        b = lyapunov_estimate(
            s, 0.1, cfg, eta0=TangentVector(*(1e3 * c for c in xi))
        )
        assert b.lyapunov == pytest.approx(a.lyapunov, abs=1e-9)

    def test_truncation_reported_for_collision(self):
        cfg = cfg_with(t_out=40.0)
        out = lyapunov_estimate(plane_point(Plane.THETA0, 1.05, 0.8, 0.1), 0.1, cfg)
        assert out.classification is Classification.COLLISION
        assert out.lyapunov is not None
        assert out.diagnostics["t_end"] < 40.0

    def test_collision_run_ends_where_the_guard_enters(self):
        # The run ends where the flagged step's chord enters the collision
        # radius, not at the step's end, which lies ~3% deeper here.
        s = plane_point(Plane.THETA0, 1.3, 1.007389, 0.1)
        out = lyapunov_estimate(s, 0.1, cfg_with(t_out=40.0))
        assert out.diagnostics["truncation"] == "collision"
        d = body_distance_at(s, 0.1, out.diagnostics["t_end"])
        assert d == pytest.approx(IntegratorOptions().collision_radius, rel=1e-2)

    def test_detection_run_carries_the_same_exponent(self):
        # Event refinement integrates on the side, so a detection run with
        # compute_lyapunov follows the Lyapunov run's trajectory exactly.
        s = plane_point(Plane.THETA0, 1.05, -0.5, 0.1)
        est = lyapunov_estimate(s, 0.1, cfg_with(t_out=40.0))
        out = run_general(s, 0.1, cfg_with(t_out=40.0, compute_lyapunov=True))
        assert est.lyapunov > 0.1
        assert out.lyapunov == est.lyapunov

    def test_detection_run_can_carry_lyapunov(self):
        cfg = cfg_with(t_out=10.0, compute_lyapunov=True)
        out = run_general(CROSSING_SEED, 0.1, cfg)
        assert out.classification is Classification.NONEXISTENCE
        assert out.lyapunov is not None
        assert out.diagnostics["t_end"] == pytest.approx(10.0)

    def test_detection_survives_later_collision(self):
        # Fires quickly, then the Lyapunov continuation hits the collision
        # radius: the detection must stand, with the truncation recorded.
        cfg = cfg_with(t_out=40.0, compute_lyapunov=True)
        out = run_symmetric(plane_point(Plane.THETA0, 1.05, 0.8, 0.1), 0.1, cfg)
        assert out.classification is Classification.NONEXISTENCE
        assert out.t_detect == pytest.approx(0.2119, abs=1e-3)
        assert out.diagnostics["truncation"] == "collision"
        assert out.diagnostics["t_end"] < 40.0
        assert out.lyapunov is not None


class TestGMonitor:
    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3])
    def test_matches_symplectic_form_of_foliation_xi(self, rng, mu):
        # The compiled monitor against the readable dynamics/foliation copies.
        g_fn = _g_monitor(mu, IntegratorOptions().rel_tol)
        for s in random_states(rng, 40, avoid_mu=mu):
            eta = tuple(float(c) for c in rng.normal(size=4))
            g, scale, dg = g_fn(tuple(s) + eta)
            assert dg == 0.0  # no derivative given
            xi = evaluate(s, mu).xi
            ref_scale = math.sqrt(sum(c * c for c in eta) * sum(c * c for c in xi))
            assert scale == pytest.approx(ref_scale, rel=1e-13)
            assert abs(g - symplectic_form(eta, xi)) <= 1e-13 * ref_scale

    @pytest.mark.parametrize(
        "mu, s",
        [
            # grad H vanishes at an equilibrium.
            (0.1, State(*lagrange_points(0.1)[3], 0.0, 0.0)),
            # grad L is parallel to grad H on a circular mu = 0 orbit.
            (0.0, plane_point(Plane.THETA0, 1.44, 1.2, 0.0)),
        ],
        ids=["L4", "circular-mu0"],
    )
    def test_unresolved_xi_is_never_live(self, mu, s):
        g_fn = _g_monitor(mu, IntegratorOptions().rel_tol)
        y = tuple(s) + (0.3, -0.2, 0.5, 0.1)
        assert g_fn(y) == (0.0, 0.0, 0.0)
        assert g_fn(y, joint_field(mu)(y)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3])
    def test_time_derivative_matches_central_difference(self, rng, mu):
        # dg/dt from (y, k) against g's central difference along the flow,
        # on one-substep integrations a small time either side.
        field, opts = joint_field(mu), IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15)
        g_fn = _g_monitor(mu, IntegratorOptions().rel_tol)
        drv = DopriDriver(field, opts)
        eps = 1e-5
        for s in random_states(rng, 20, avoid_mu=mu):
            y = tuple(s) + tuple(float(c) for c in rng.normal(size=4))
            k = field(y)
            g, scale, dg = g_fn(y, k)
            assert (g, scale) == g_fn(y)[:2]
            ahead = drv._attempt(field, opts, y, k, eps)[0]
            behind = drv._attempt(field, opts, y, k, -eps)[0]
            fd = (g_fn(ahead)[0] - g_fn(behind)[0]) / (2.0 * eps)
            assert dg == pytest.approx(fd, rel=1e-6, abs=1e-6 * scale)


class TestGuard:
    def test_chord_crossing_inside_radius_is_flagged(self):
        guard = _make_guard(0.1, IntegratorOptions(collision_radius=1e-3))
        # Both endpoints are ~0.07 from the secondary at (0.9, 0) but the
        # chord passes through it.
        y0 = (0.85, 0.05, 0.0, 0.0)
        y1 = (0.95, -0.05, 0.0, 0.0)
        flag, entry = guard(y0, y1)
        assert flag == "collision"
        # The chord of length 0.1 sqrt(2) reaches the body halfway along and
        # the collision radius 1e-3 / |chord| of the step before.
        assert entry == pytest.approx(0.5 - 1e-3 / (0.1 * math.sqrt(2.0)), rel=1e-12)
        assert guard(y0, (0.85, 0.2, 0.0, 0.0)) is None

    def test_escape_radius(self):
        # The flag carries x^2 + y^2 - R^2, which the loop locates on the step.
        guard = _make_guard(0.1, IntegratorOptions(escape_radius=5.0))
        flag, beyond = guard((1, 0, 0, 0), (5.1, 0.0, 0.0, 0.0))
        assert flag == "escape"
        assert beyond((3.0, 4.0, 0.0, 0.0)) == 0.0
        assert beyond((5.1, 0.0, 0.0, 0.0)) > 0.0 > beyond((1.0, 0.0, 0.0, 0.0))
        assert guard((1, 0, 0, 0), (4.9, 0.0, 0.0, 0.0)) is None

    @staticmethod
    def _chord_distance(b, p, q):
        """Distance from b to the segment pq: an endpoint or the foot of
        the perpendicular, whichever is closer and on the segment."""
        ends = min(math.dist(b, p), math.dist(b, q))
        w = math.dist(p, q)
        if w == 0.0:
            return ends
        wx, wy = q[0] - p[0], q[1] - p[1]
        s = ((b[0] - p[0]) * wx + (b[1] - p[1]) * wy) / (w * w)
        if not 0.0 < s < 1.0:
            return ends
        cross = wx * (b[1] - p[1]) - wy * (b[0] - p[0])
        return min(ends, abs(cross) / w)

    def test_matches_chord_distance_oracle(self):
        mu, r_col = 0.1, 1e-3
        guard = _make_guard(mu, IntegratorOptions(collision_radius=r_col))
        rng = random.Random(20240817)
        verdicts = {"collision": 0, None: 0}
        for bx in (-mu, 1.0 - mu):
            for _ in range(100_000):
                # Start within 3 r_col of the body; chord lengths from
                # 1e-6 to 1e-1 (log-uniform) in any direction.
                p = (bx + rng.uniform(-3, 3) * r_col, rng.uniform(-3, 3) * r_col)
                w = 10.0 ** rng.uniform(-6.0, -1.0)
                a = rng.uniform(0.0, 2.0 * math.pi)
                q = (p[0] + w * math.cos(a), p[1] + w * math.sin(a))
                d = min(
                    self._chord_distance((b, 0.0), p, q) for b in (-mu, 1.0 - mu)
                )
                if abs(d - r_col) <= 1e-9 * r_col:
                    continue  # a tie within rounding decides nothing
                expected = "collision" if d < r_col else None
                flagged = guard((*p, 0.0, 0.0), (*q, 0.0, 0.0))
                got = None if flagged is None else flagged[0]
                assert got == expected, (p, q, d)
                verdicts[got] += 1
        assert min(verdicts.values()) > 20_000


class TestInStepSignChanges:
    """Two sign changes of g inside one accepted step are both events."""

    # A clock x' = 1 with a constant tangent; g = (x - C)^2 - W^2 is negative
    # only on (C - W, C + W), inside the step [0.431, 0.531] that the
    # driver takes at h_max = 0.1 on this error-free field.
    C, W = 0.5, 1e-3
    OPTS = IntegratorOptions(h_max=0.1)

    @staticmethod
    def field(y):
        return (1.0, 0.0)

    def g_fn(self, y, k=None):
        d = y[0] - self.C
        return d * d - self.W * self.W, 1.0, 0.0 if k is None else 2.0 * d * k[0]

    def run(self, on_event=None):
        return monitor_run(
            self.field, (0.0,), (1.0,), 2.0, self.OPTS, 0.0,
            g_fn=self.g_fn, on_event=on_event,
        )

    def test_both_ends_of_the_dip_lie_in_one_step(self):
        drv = DopriDriver(self.field, self.OPTS).reset(0.0, (0.0, 1.0))
        t0 = t1 = 0.0
        while t1 < self.C:
            t0, _, t1, _ = drv.step(2.0)
        assert t0 < self.C - self.W and self.C + self.W < t1

    def test_first_crossing_fires(self):
        out = self.run()
        assert out.classification is Classification.NONEXISTENCE
        assert out.t_detect == pytest.approx(self.C - self.W, abs=1e-10)
        assert out.n_sign_events == 1

    def test_both_crossings_are_qualified_in_time_order(self):
        seen = []

        def qualify(t, y):
            seen.append(y[0])
            return y[0] > self.C

        out = self.run(qualify)
        assert seen == [pytest.approx(self.C - self.W), pytest.approx(self.C + self.W)]
        assert out.t_detect == pytest.approx(self.C + self.W, abs=1e-10)
        assert out.n_sign_events == 2

    def step_holding(self, x):
        """(t0, y0, k0, t1) of the accepted step whose end first passes x."""
        drv = DopriDriver(self.field, self.OPTS).reset(0.0, (0.0, 1.0))
        while drv.t <= x:
            t0, y0, t1, _ = drv.step(2.0)
        return t0, y0, self.field(y0), t1

    def test_events_are_reintegrations_from_the_step_start(self):
        t0, y0, k0, t1 = self.step_holding(self.C)
        seen = []
        self.run(lambda t, y: seen.append((t, y)))
        assert len(seen) == 2 and all(t0 < t < t1 for t, _ in seen)
        kernel = _attempt_kernel(2, 1)
        for t_star, y_star in seen:
            assert y_star == kernel(self.field, self.OPTS, y0, k0, t_star - t0)[0]

    def stretch_events(self, root):
        """Events of g = root - x, which is not live on [0.3, 0.45) (scale
        1e20 there): the readings at the step ends inside that stretch are
        skipped, and the first live one after it changes the sign."""

        def g_fn(y, k=None):
            x = y[0]
            return root - x, 1e20 if 0.3 <= x < 0.45 else 1.0, 0.0

        seen = []
        monitor_run(
            self.field, (0.0,), (1.0,), 2.0, self.OPTS, 0.0,
            g_fn=g_fn, on_event=lambda t, y: seen.append((t, y)),
        )
        return seen

    def test_after_a_non_live_stretch_the_bracket_starts_at_the_step(self):
        t0, y0, k0, t1 = self.step_holding(0.45)
        assert 0.3 < t0 - 0.1 < t0 < 0.45 < t1 < 0.6
        # The step's start already reads root - x < 0: the event is there.
        assert self.stretch_events(0.5 * (0.3 + t0)) == [(t0, y0)]
        # It still reads root - x > 0: the event is polished inside the step.
        [(t_star, y_star)] = self.stretch_events(0.5 * (t0 + t1))
        assert t_star == pytest.approx(0.5 * (t0 + t1), abs=1e-11)
        kernel = _attempt_kernel(2, 1)
        assert y_star == kernel(self.field, self.OPTS, y0, k0, t_star - t0)[0]


class TestTrajectoryLoop:
    """monitor_run without a tangent, with falling events only, and the end
    time of a run the guard stops."""

    @staticmethod
    def harmonic(y):
        x, v = y
        return (v, -x)

    @staticmethod
    def x_monitor(y, k=None):
        return y[0], 1.0, 0.0 if k is None else k[0]

    def test_empty_tangent_is_neither_normalized_nor_renormalized(self):
        # y' = y from 2 passes 1e7 at t = log(5e6), well past the default
        # renorm_threshold 1e6: scaling y as a tangent would move or lose
        # that crossing, and an empty tangent has norm 0.
        seen = []

        def record(t, y):
            seen.append(t)
            return False

        def g_fn(y, k=None):
            return y[0] - 1e7, 1.0, 0.0 if k is None else k[0]

        out = monitor_run(
            lambda y: y, (2.0,), (), 20.0, IntegratorOptions(), 0.0,
            g_fn=g_fn, on_event=record, want_lyapunov=True,
        )
        assert seen == [pytest.approx(math.log(5e6), abs=1e-8)]
        assert out.classification is Classification.UNDETERMINED
        assert out.n_sign_events == 1 and out.diagnostics["t_end"] == 20.0
        assert out.lyapunov is None
        with pytest.raises(ValueError):
            monitor_run(lambda y: y, (2.0,), (0.0,), 1.0, IntegratorOptions(), 0.0)

    def test_falling_only_refines_falling_crossings_only(self, monkeypatch):
        refine, calls = detector.refine_event, []

        def counting(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(detector, "refine_event", counting)
        seen = []

        def record(t, y):
            seen.append(t)
            return False

        def run(falling_only):
            calls.clear()
            seen.clear()
            return monitor_run(
                self.harmonic, (1.0, 0.0), (), 20.0, IntegratorOptions(), 0.0,
                g_fn=self.x_monitor, on_event=record, falling_only=falling_only,
            )

        # x = cos t falls through 0 at pi/2 + 2 pi j and rises at 3 pi/2 +
        # 2 pi j; three of each before t = 20.
        out = run(True)
        falling = [0.5 * math.pi + 2.0 * math.pi * j for j in range(3)]
        assert seen == pytest.approx(falling, abs=1e-8)
        assert len(calls) == 3 and out.n_sign_events == 3
        out = run(False)
        every = [0.5 * math.pi + math.pi * j for j in range(6)]
        assert seen == pytest.approx(every, abs=1e-8)
        assert len(calls) == 6 and out.n_sign_events == 6

    def test_refine_event_takes_no_step_and_only_polish_attempts(self, monkeypatch):
        # Inside refine_event the field is evaluated by polish attempts only,
        # 11 stages each, and the driver takes no step.
        inside, evals, attempts, steps, calls = [], [0], [0], [0], []
        kernel = _attempt_kernel(2, 0)

        def field(y):
            evals[0] += 1
            return self.harmonic(y)

        def attempt(*args):
            attempts[0] += bool(inside)
            return kernel(*args)

        field.kernel = lambda tangent: attempt
        step, refine = DopriDriver.step, detector.refine_event

        def counted_step(drv, t_limit):
            steps[0] += bool(inside)
            return step(drv, t_limit)

        def counted_refine(*args):
            e0, a0 = evals[0], attempts[0]
            inside.append(True)
            try:
                return refine(*args)
            finally:
                inside.pop()
                calls.append((evals[0] - e0, attempts[0] - a0))

        monkeypatch.setattr(DopriDriver, "step", counted_step)
        monkeypatch.setattr(detector, "refine_event", counted_refine)
        out = monitor_run(
            field, (1.0, 0.0), (), 20.0, IntegratorOptions(), 0.0,
            g_fn=self.x_monitor, on_event=lambda t, y: False,
        )
        assert out.n_sign_events == len(calls) == 6 and steps == [0]
        assert all(n > 0 and e == 11 * n for e, n in calls)

    @pytest.mark.parametrize("kind, entry", [("collision", 0.25), ("escape", 1.0)])
    def test_guard_stop_end_time(self, kind, entry):
        # A clock x' = 1 flagged on the step that passes x = 1: a collision
        # ends at the guard's entry fraction of that step, an escape where
        # x crosses entry = 1, located inside the step as events are.  A
        # sign change later in the step is not an event.
        def clock(y):
            return (1.0,)

        def guard(y0, y1):
            if y1[0] <= 1.0:
                return None
            return (kind, entry) if kind == "collision" else (kind, lambda y: y[0] - entry)

        opts = IntegratorOptions()
        drv = DopriDriver(clock, opts).reset(0.0, (0.0,))
        t0, _, t1, y1 = drv.step(5.0)
        while y1[0] <= 1.0:
            t0, _, t1, y1 = drv.step(5.0)
        late = 0.5 * (1.0 + t1)
        assert t0 + 0.25 * (t1 - t0) < 1.0 < late < t1

        def g_fn(y, k=None):
            return y[0] - late, 1.0, 0.0 if k is None else k[0]

        out = monitor_run(clock, (0.0,), (), 5.0, opts, 0.0, g_fn=g_fn, guard_fn=guard)
        if kind == "collision":
            assert out.diagnostics["t_end"] == t0 + entry * (t1 - t0)
        else:
            assert out.diagnostics["t_end"] == pytest.approx(entry, abs=1e-11)
        assert out.n_sign_events == 0
        assert out.diagnostics["truncation"] == kind
        assert out.classification.value == kind.capitalize()


def _reference_cell(recipe, i, j, rel_tol=1e-10):
    """Cell (i, j) of a 100 x 100 reference recipe, as the scan classifies it."""
    with open(f"recipes/{recipe}.cfg", encoding="utf-8") as fh:
        rc = parse_config(fh.read())
    spec, cfg = to_plane_spec(rc), to_detector_config(rc)
    cfg = replace(cfg, integrator=replace(cfg.integrator, rel_tol=rel_tol))
    r, L = spec.r_values()[i], spec.L_values()[j]
    return _classify_cell(spec, cfg, rc.exclusion_tol, r, L)


class TestReferenceCells:
    """Reference-grid cells whose events fall inside one step or on the step
    the guard flags; t_detect as located at rel_tol 1e-10 and 1e-12."""

    @pytest.mark.parametrize(
        "recipe, cell, t_detect",
        [
            # g/scale dips to -6e-6 for ~1e-4 in time inside one step.
            ("scan_mu01_symmetric", (75, 54), 6.0145402674),
            # The sign change falls on the step flagged as a collision.
            ("scan_mu01_symmetric", (72, 50), 5.5947046210),
            # Step ends read g/scale 0.07 and 0.04 around the crossing.
            ("scan_mu01_symmetric", (22, 44), 0.4661616300),
            # A crossing that end-only sign tests stepped over at rel_tol
            # 1e-10; a near-grazing step, as (21, 74).
            ("scan_mu01_symmetric", (22, 59), 0.2524877339),
            # Fired at 6.905 at rel_tol 1e-10 and at 5.641 at 1e-12.
            ("scan_mu01_reference", (72, 47), 5.6405856868),
            # A near-grazing step: the Hermite predicts a small positive
            # minimum (at rel_tol 1e-10) while g dips through 0 inside it.
            ("scan_mu01_symmetric", (21, 74), 0.1392576588),
        ],
    )
    def test_fires_where_the_crossing_is(self, recipe, cell, t_detect):
        for rel_tol in (1e-10, 1e-12):
            out = _reference_cell(recipe, *cell, rel_tol=rel_tol)
            assert out.classification is Classification.NONEXISTENCE
            assert out.t_detect == pytest.approx(t_detect, abs=1e-6)


class TestOutcomeInvariants:
    def test_nonexistence_iff_t_detect(self):
        for out in (
            run_general(TORUS_SEED_MU0, 0.0, cfg_with(t_out=20.0)),
            run_general(CROSSING_SEED, 0.1, cfg_with(t_out=40.0)),
            run_general(State(0.903, 0.0, -1.0, 0.0), 0.1, cfg_with()),
        ):
            fired = out.classification is Classification.NONEXISTENCE
            assert (out.t_detect is not None) is fired
            assert (out.q is not None) is fired
            if fired:
                assert 0.0 < out.t_detect <= 40.0
                assert 0.0 < out.q <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(t_out=-1.0)
