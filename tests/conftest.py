import numpy as np
import pytest

from toruscan.dynamics import State, flow_field
from toruscan.integrate import DopriDriver, IntegratorOptions


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_states(rng, n, r_lo=0.4, r_hi=2.5, v_max=1.2, avoid_mu=None):
    """Generic off-body states in an annulus with bounded velocities."""
    out = []
    while len(out) < n:
        r = rng.uniform(r_lo, r_hi)
        th = rng.uniform(0.0, 2.0 * np.pi)
        x, y = r * np.cos(th), r * np.sin(th)
        vx, vy = rng.uniform(-v_max, v_max, size=2)
        if avoid_mu is not None:
            if np.hypot(x + avoid_mu, y) < 0.1:
                continue
            if np.hypot(x - 1.0 + avoid_mu, y) < 0.1:
                continue
        out.append(State(float(x), float(y), float(vx), float(vy)))
    return out


def body_distance_at(s0, mu, t):
    """Distance to the nearer body at time t of the orbit from s0, integrated
    well below the default tolerances."""
    opts = IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15, h_max=0.01)
    drv = DopriDriver(flow_field(mu), opts).reset(0.0, tuple(s0))
    while drv.t < t:
        drv.step(t)
    x, y = drv.y[0], drv.y[1]
    return min(np.hypot(x + mu, y), np.hypot(x - 1.0 + mu, y))
