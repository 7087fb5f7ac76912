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
from .integrate import DopriDriver, StepUnderflowError, refine_event

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
    x, y, vx, vy = s
    r = math.hypot(x, y)
    if r == 0.0:
        raise ValueError("radial momentum rate undefined at the origin")
    v = vector_field(s, mu)
    p_r = (x * vx + y * vy) / r
    return (vx * vx + vy * vy + x * v.dvx + y * v.dvy) / r - p_r * p_r / r


def return_map(
    s0: State, mu: float, n_returns: int, cfg: DetectorConfig
) -> ReturnMapResult:
    """Successive downward crossings of p_r = 0 from one seed.

    Sign changes of p_r between accepted steps are located by
    integrate.refine_event; crossings with dp_r/dt <= -tangency tolerance
    are accepted, near-tangent ones are counted as ambiguous and excluded.
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

    result = ReturnMapResult()
    sign_prev = 0
    g_prev = p_r_of(tuple(s0))
    if abs(g_prev) > 1e-12:
        sign_prev = 1 if g_prev > 0.0 else -1
    prev_t, prev_y = 0.0, tuple(s0)

    while drv.t < cfg.t_out:
        try:
            t0, y0, t1, y1 = drv.step(cfg.t_out)
        except StepUnderflowError:
            result.status = "step-underflow"
            result.t_end = drv.t
            return result
        flag = guard(y0, y1)
        if flag is not None:
            result.status = flag
            result.t_end = t1
            return result
        g_new = p_r_of(y1)
        if abs(g_new) > 1e-12:
            sign_new = 1 if g_new > 0.0 else -1
            if sign_prev > 0 and sign_new < 0:
                t_star, y_star = refine_event(
                    field_fn, opts, prev_t, prev_y, t1, p_r_of
                )
                s_star = State(*y_star)
                rate = radial_momentum_rate(s_star, mu)
                if rate <= -_TANGENCY_TOL:
                    result.crossings.append(
                        SectionCrossing(
                            t=t_star,
                            s=s_star,
                            polar=polar(s_star),
                            dp_r_dt=rate,
                        )
                    )
                    if len(result.crossings) >= n_returns:
                        result.status = "completed"
                        result.t_end = t_star
                        return result
                else:
                    result.n_ambiguous += 1
            sign_prev = sign_new
            prev_t, prev_y = t1, y1

    result.t_end = drv.t
    result.status = "timeout" if result.crossings else "no-return"
    return result
