"""Surface-of-section machinery on {p_r = 0, dp_r/dt <= 0}.

Every bounded trajectory reaches local maxima of r, so the set of radial
turning points with decreasing radial momentum is crossed by all bounded
orbits and supports a return map.  A trajectory that never returns within
the timeout cannot lie on an invariant torus of any class, which the return
map reports as a no-return diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .detector import DetectorConfig, _make_guard
from .dynamics import (
    PolarState,
    State,
    flow_field,
    polar,
    validate_mass_ratio,
    vector_field,
)
from .integrate import (
    DopriDriver,
    StepUnderflowError,
    live_points,
    refine_event,
)

__all__ = [
    "SectionCrossing",
    "ReturnMapResult",
    "radial_momentum_rate",
    "return_map",
]

_TANGENCY_TOL = 1e-10


@dataclass(frozen=True)
class SectionCrossing:
    """One accepted downward crossing of p_r = 0."""

    t: float
    s: State
    polar: PolarState
    dp_r_dt: float


@dataclass
class ReturnMapResult:
    """Crossings of one orbit plus the reason the sampling stopped.

    status is one of 'completed' (n_returns reached), 'timeout', 'no-return'
    (timeout with zero accepted crossings), 'collision', 'escape',
    'step-underflow' (the error tolerance could not be met above h_min).
    """

    crossings: list = field(default_factory=list)
    status: str = "timeout"
    t_end: float = 0.0
    n_ambiguous: int = 0


def radial_momentum_rate(s: State, mu: float) -> float:
    """d(p_r)/dt along the flow, analytic."""
    if s[0] == 0.0 and s[1] == 0.0:
        raise ValueError("radial momentum rate undefined at the origin")
    return _p_r_rate(s, vector_field(s, mu))


def _p_r_rate(y, k):
    """d(p_r)/dt at y from its time derivative k; 0.0 at the origin."""
    (x, yy, vx, vy), (kx, ky, kvx, kvy) = y, k
    r2 = x * x + yy * yy
    if r2 == 0.0:
        return 0.0
    dot = kx * vx + x * kvx + ky * vy + yy * kvy
    return (dot - (x * vx + yy * vy) * (x * kx + yy * ky) / r2) / math.sqrt(r2)


def return_map(
    s0: State, mu: float, n_returns: int, cfg: DetectorConfig
) -> ReturnMapResult:
    """Successive downward crossings of p_r = 0 from one seed.

    Sign changes of p_r between accepted steps are located by
    integrate.refine_event, and pairs of them inside one step are found by
    integrate.live_points; crossings with dp_r/dt <= -tangency
    tolerance are accepted, near-tangent ones are counted as ambiguous and
    excluded.  A step the guard flags is still searched, and a crossing
    before the guard's trigger point counts.
    """
    validate_mass_ratio(mu)
    if n_returns < 1:
        raise ValueError(f"n_returns must be >= 1, got {n_returns}")
    field_fn = flow_field(mu)
    opts = cfg.integrator
    guard = _make_guard(mu, opts)
    drv = DopriDriver(field_fn, opts).reset(0.0, tuple(s0))

    def p_r_of(y):
        x, yy, vx, vy = y
        r = math.hypot(x, yy)
        if r == 0.0:
            return 0.0
        return (x * vx + yy * vy) / r

    def live(y):
        p_r = p_r_of(y)
        return p_r if abs(p_r) > 1e-12 else 0.0

    result = ReturnMapResult()
    drv._k1 = field_fn(drv.y)  # the first step's k1, read here for the rate
    g_prev, d_prev = p_r_of(drv.y), _p_r_rate(drv.y, drv._k1)
    g_live = live(drv.y)
    sign_prev = (g_live > 0.0) - (g_live < 0.0)
    prev_t, prev_y = 0.0, drv.y

    while drv.t < cfg.t_out:
        k0 = drv._k1
        try:
            t0, y0, t1, y1 = drv.step(cfg.t_out)
        except StepUnderflowError:
            result.status = "step-underflow"
            result.t_end = drv.t
            return result
        flag = guard(y0, y1)
        g1, d1 = p_r_of(y1), _p_r_rate(y1, drv._k1)
        ends, (g_prev, d_prev) = (g_prev, d_prev, g1, d1), (g1, d1)
        g_live = g1 if abs(g1) > 1e-12 else 0.0
        for t, y, g in live_points(drv, t0, y0, k0, ends, g_live, sign_prev, live):
            if g == 0.0:
                continue
            if sign_prev > 0 and g < 0.0:
                t_star, y_star = refine_event(field_fn, opts, prev_t, prev_y, t, p_r_of)
                if flag is not None and t_star >= t0 + flag[1] * (t1 - t0):
                    break
                s_star = State(*y_star)
                rate_star = radial_momentum_rate(s_star, mu)
                if rate_star <= -_TANGENCY_TOL:
                    result.crossings.append(
                        SectionCrossing(
                            t=t_star,
                            s=s_star,
                            polar=polar(s_star),
                            dp_r_dt=rate_star,
                        )
                    )
                    if len(result.crossings) >= n_returns:
                        result.status = "completed"
                        result.t_end = t_star
                        return result
                else:
                    result.n_ambiguous += 1
            sign_prev = 1 if g > 0.0 else -1
            prev_t, prev_y = t, y
        if flag is not None:
            result.status = flag[0]
            result.t_end = t1
            return result

    result.t_end = drv.t
    result.status = "timeout" if result.crossings else "no-return"
    return result
