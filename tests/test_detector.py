import math
from dataclasses import replace

import numpy as np
import pytest

from toruscan.detector import (
    Classification,
    DetectionOutcome,
    DetectorConfig,
    Formulation,
    _make_g_monitor,
    _make_guard,
    antisymmetric_tangent,
    lyapunov_estimate,
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
    lagrange_points,
    reversal_tangent,
    symplectic_form,
    vector_field,
)
from toruscan.foliation import Plane, evaluate
from toruscan.integrate import DopriDriver, IntegratorOptions
from toruscan.scan import plane_point

from conftest import random_states

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
        # A parallel-gradient point within degeneracy_tol: general cannot
        # seed, and symmetric fires only at t = 22.1, after this timeout.
        s = plane_point(Plane.THETA0, 3.5125, 1.875, 0.1)
        cfg = cfg_with(t_out=10.0, degeneracy_tol=1e-3)
        both = run_both(s, 0.1, cfg)
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
        # The inlined monitor against the readable dynamics/foliation copies.
        g_fn = _make_g_monitor(mu)
        for s in random_states(rng, 40, avoid_mu=mu):
            eta = tuple(float(c) for c in rng.normal(size=4))
            g, scale = g_fn(tuple(s) + eta)
            xi = evaluate(s, mu).xi
            ref_scale = math.sqrt(sum(c * c for c in eta) * sum(c * c for c in xi))
            assert scale == pytest.approx(ref_scale, rel=1e-13)
            assert abs(g - symplectic_form(eta, xi)) <= 1e-13 * ref_scale


class TestGuard:
    def test_chord_crossing_inside_radius_is_flagged(self):
        guard = _make_guard(0.1, IntegratorOptions(collision_radius=1e-3))
        # Both endpoints are ~0.07 from the secondary at (0.9, 0) but the
        # chord passes through it.
        y0 = (0.85, 0.05, 0.0, 0.0)
        y1 = (0.95, -0.05, 0.0, 0.0)
        assert guard(y0, y1) == "collision"
        assert guard(y0, (0.85, 0.2, 0.0, 0.0)) is None

    def test_escape_radius(self):
        guard = _make_guard(0.1, IntegratorOptions(escape_radius=5.0))
        assert guard((1, 0, 0, 0), (5.1, 0.0, 0.0, 0.0)) == "escape"


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
