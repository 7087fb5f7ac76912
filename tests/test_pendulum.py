import math

import numpy as np
import pytest

from toruscan.detector import Classification
from toruscan.integrate import DopriDriver, IntegratorOptions
from toruscan.pendulum import pendulum_detect, pendulum_energy, pendulum_field


class TestEnergy:
    def test_stable_equilibrium(self):
        assert pendulum_energy(0.0, 0.0) == -1.0

    def test_separatrix_level(self):
        assert pendulum_energy(math.pi, 0.0) == 1.0

    def test_rotation_state(self):
        assert pendulum_energy(0.0, 2.0) == 1.0

    def test_conserved_along_flow(self):
        # Tight tolerances: |dH| <= 1e-10 over t = 200.
        opts = IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14, h_max=0.2)
        y0 = (0.3, 1.1, 0.0, 1.0)
        h0 = pendulum_energy(0.3, 1.1)
        drv = DopriDriver(pendulum_field, opts).reset(0.0, y0)
        while drv.t < 200.0:
            drv.step(200.0)
        assert abs(pendulum_energy(drv.y[0], drv.y[1]) - h0) < 1e-10


class TestDetection:
    def test_librational_point_detected(self):
        out = pendulum_detect(0.0, 0.5, t_out=50.0)
        assert out.classification is Classification.NONEXISTENCE
        assert 0.0 < out.t_detect < 50.0
        assert out.C == pytest.approx(-0.875)

    def test_rotational_point_undetermined(self):
        out = pendulum_detect(0.0, 3.0, t_out=50.0)
        assert out.classification is Classification.UNDETERMINED
        assert out.n_sign_events == 0

    def test_equilibrium_fires_within_linear_period(self):
        # Linearization at the centre rotates the tangent with period 2 pi;
        # the first downward crossing is at t = pi.
        out = pendulum_detect(0.0, 0.0, t_out=10.0)
        assert out.classification is Classification.NONEXISTENCE
        assert out.t_detect == pytest.approx(math.pi, abs=1e-6)

    def test_q_measure(self):
        out = pendulum_detect(0.0, 0.5, t_out=50.0)
        assert out.q == pytest.approx(out.t_detect / 50.0)

    def test_step_underflow_is_undetermined_with_reason(self):
        opts = IntegratorOptions(
            h_min=0.5, h_init=0.5, h_max=0.5, rel_tol=1e-14, abs_tol=1e-16
        )
        out = pendulum_detect(0.0, 0.5, t_out=50.0, opts=opts)
        assert out.classification is Classification.UNDETERMINED
        assert out.diagnostics["reason"] == "step-underflow"
        assert out.diagnostics["system"] == "pendulum"

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            pendulum_detect(0.0, 0.5, t_out=0.0)


class TestClassificationBoundary:
    def test_matches_separatrix_energy(self):
        # Away from the separatrix band the classification is exactly
        # H < 1 versus H > 1 (subset of the acceptance sweep).
        opts = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-10, h_max=0.5)
        for p0 in np.linspace(0.5, 2.8, 24):
            h = pendulum_energy(0.0, float(p0))
            if abs(h - 1.0) < 0.02:
                continue
            out = pendulum_detect(0.0, float(p0), t_out=120.0, opts=opts)
            if h < 1.0:
                assert out.classification is Classification.NONEXISTENCE
            else:
                assert out.classification is Classification.UNDETERMINED
