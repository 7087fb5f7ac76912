"""Simple pendulum with a vertical foliation: analytic oracle for the detector.

The pendulum V = (p, -sin q) on the cylinder conserves H = p^2/2 - cos q.
For H > 1 every solution lies on a rotational invariant circle transverse to
the vertical foliation q = constant; for H < 1 it does not.  An upward
tangent (0, 1) that flows to a downward one certifies nonexistence, which in
the detector's language is a sign change of g = eta_q (= omega(eta, xi) for
xi = (0, 1), omega = dq^dp) with eta_p < 0 at the crossing.  This whole-plane
one-degree-of-freedom setting needs no lambda(V) = 0 machinery: the downward
test is eta_p < 0 directly.

The known H = 1 separatrix makes this system an exact oracle for the event
machinery: the detector must fire for every seed with H < 1 and never for
H > 1.
"""

from __future__ import annotations

import math

from .detector import DetectionOutcome, DetectorConfig, monitor_run
from .integrate import ConfigError, IntegratorOptions

__all__ = ["pendulum_energy", "pendulum_field", "pendulum_detect"]


def pendulum_energy(q: float, p: float) -> float:
    """H(q, p) = p^2/2 - cos q."""
    return 0.5 * p * p - math.cos(q)


def pendulum_field(y):
    """Joint (state, tangent) derivative: (q, p, eq, ep)."""
    q, p, eq, ep = y
    return (p, -math.sin(q), ep, -math.cos(q) * eq)


def _g_fn(y, k=None):
    # g = eta_q, with dg/dt = k's eta_q component; the homogeneity scale is
    # |eta| since |xi| = 1.
    eq, ep = y[2], y[3]
    return eq, math.hypot(eq, ep), 0.0 if k is None else k[2]


def _qualify(t, y):
    return y[3] < 0.0


def pendulum_detect(
    q0: float,
    p0: float,
    t_out: float = 50.0,
    opts: IntegratorOptions | None = None,
) -> DetectionOutcome:
    """Detect nonexistence of rotational invariant circles through (q0, p0).

    The seed must be finite, and t_out and opts (default
    ``IntegratorOptions()``, as for ``toruscan pendulum``) obey
    ``DetectorConfig``'s rules; ConfigError lists what breaks them.  The
    outcome's C field carries the conserved pendulum energy H.
    """
    if not (math.isfinite(q0) and math.isfinite(p0)):
        raise ConfigError([f"pendulum seed must be finite, got ({q0}, {p0})"])
    cfg = DetectorConfig(t_out, integrator=opts or IntegratorOptions())
    return monitor_run(
        pendulum_field,
        (q0, p0),
        (0.0, 1.0),
        cfg.t_out,
        cfg.integrator,
        pendulum_energy(q0, p0),
        g_fn=_g_fn,
        on_event=_qualify,
        extra={"system": "pendulum"},
    )
