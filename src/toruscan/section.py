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

from .detector import DetectorConfig, _make_guard, monitor_run
from .dynamics import (
    PolarState,
    State,
    flow_field,
    jacobi_constant,
    polar,
    validate_mass_ratio,
    vector_field,
)
from .integrate import refine_event

__all__ = [
    "SectionCrossing",
    "ReturnMapResult",
    "radial_momentum_rate",
    "return_map",
    # Located through monitor_run; kept at this name because
    # perfbench/tracing.py patches it and fails to install without it.
    "refine_event",
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
    return _p_r_monitor(s, vector_field(s, mu))[2]


def _p_r_monitor(y, k=None):
    """(p_r, 1.0, dp_r/dt) at y with derivative k, a g monitor's (g, scale,
    dg/dt) with scale 1; dp_r/dt is 0.0 without k, each is 0.0 at the origin."""
    x, yy, vx, vy = y
    r, rv = math.hypot(x, yy), x * vx + yy * vy
    p_r = 0.0 if r == 0.0 else rv / r
    r2 = x * x + yy * yy
    if k is None or r2 == 0.0:
        return p_r, 1.0, 0.0
    kx, ky, kvx, kvy = k
    dot = kx * vx + x * kvx + ky * vy + yy * kvy
    return p_r, 1.0, (dot - rv * (x * kx + yy * ky) / r2) / math.sqrt(r2)


def return_map(
    s0: State, mu: float, n_returns: int, cfg: DetectorConfig
) -> ReturnMapResult:
    """Successive downward crossings of p_r = 0 from one seed.

    detector.monitor_run follows the flow alone, without a tangent, and
    locates each falling sign change of p_r, between accepted steps or
    inside one, up to the guard's trigger point.  Crossings with dp_r/dt <=
    -tangency tolerance are accepted, near-tangent ones are counted as
    ambiguous and excluded.
    """
    validate_mass_ratio(mu)
    if n_returns < 1:
        raise ValueError(f"n_returns must be >= 1, got {n_returns}")
    result = ReturnMapResult()

    def record(t, y):
        s = State(*y)
        rate = radial_momentum_rate(s, mu)
        if rate <= -_TANGENCY_TOL:
            result.crossings.append(SectionCrossing(t, s, polar(s), rate))
            return len(result.crossings) >= n_returns
        result.n_ambiguous += 1
        return False

    opts = cfg.integrator
    out = monitor_run(
        flow_field(mu), s0, (), cfg.t_out, opts, jacobi_constant(s0, mu),
        g_fn=_p_r_monitor, on_event=record, falling_only=True,
        guard_fn=_make_guard(mu, opts),
    )
    if out.t_detect is not None:
        result.status, result.t_end = "completed", out.t_detect
    else:
        none = "timeout" if result.crossings else "no-return"
        result.status = out.diagnostics.get("truncation", none)
        result.t_end = out.diagnostics["t_end"]
    return result
