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

from .detector import DetectionOutcome, _build_outcome, monitor_run
from .integrate import IntegratorOptions

__all__ = ["pendulum_energy", "pendulum_field", "pendulum_detect"]


def pendulum_energy(q: float, p: float) -> float:
    """H(q, p) = p^2/2 - cos q."""
    return 0.5 * p * p - math.cos(q)


def pendulum_field(y):
    """Joint (state, tangent) derivative: (q, p, eq, ep)."""
    q, p, eq, ep = y
    return (p, -math.sin(q), ep, -math.cos(q) * eq)


def _g_fn(y):
    # g = eta_q; the homogeneity scale is |eta| since |xi| = 1.
    eq, ep = y[2], y[3]
    return eq, math.hypot(eq, ep)


def _qualify(y):
    return y[3] < 0.0


def pendulum_detect(
    q0: float,
    p0: float,
    t_out: float = 50.0,
    opts: IntegratorOptions | None = None,
) -> DetectionOutcome:
    """Detect nonexistence of rotational invariant circles through (q0, p0).

    The outcome's C field carries the conserved pendulum energy H.
    """
    if t_out <= 0.0:
        raise ValueError(f"t_out must be positive, got {t_out}")
    if opts is None:
        opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, h_max=0.5)
    raw = monitor_run(
        pendulum_field,
        (q0, p0, 0.0, 1.0),
        t_out,
        opts,
        state_dim=2,
        g_fn=_g_fn,
        qualify_fn=_qualify,
        guard_fn=None,
    )
    return _build_outcome(raw, pendulum_energy(q0, p0), t_out, {"system": "pendulum"})
