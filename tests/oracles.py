"""Readable reference formulas that the tests check the program against.

No path of the program calls these; the tests use them as oracles.

* Dynamics: the analytic potential Hessian, the inertial two-body energy
  K (H = K - L), the exact Jacobian DV of the vector field, the symplectic
  form omega = dx^dvx + dy^dvy - 2 dx^dy, the time-reversal symmetry
  R: (x, y, vx, vy) -> (x, -y, -vx, vy) with its push-forward, and the
  five Lagrange points.
* The mu = 0 Kepler problem: osculating elements of a bound state and the
  (L, C) region filled by invariant tori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from toruscan.dynamics import (
    State,
    TangentVector,
    _check_off_bodies,
    angular_momentum,
    potential_gradient,
)


def potential_hessian(x: float, y: float, mu: float) -> tuple[float, float, float]:
    """(Uxx, Uxy, Uyy), analytic second derivatives of U."""
    r1, r2 = _check_off_bodies(x, y, mu)
    om = 1.0 - mu
    dx1 = x + mu
    ir13 = 1.0 / (r1 * r1 * r1)
    ir15 = ir13 / (r1 * r1)
    uxx = -1.0 + om * (ir13 - 3.0 * dx1 * dx1 * ir15)
    uxy = -3.0 * om * dx1 * y * ir15
    uyy = -1.0 + om * (ir13 - 3.0 * y * y * ir15)
    if mu > 0.0:
        dx2 = x - 1.0 + mu
        ir23 = 1.0 / (r2 * r2 * r2)
        ir25 = ir23 / (r2 * r2)
        uxx += mu * (ir23 - 3.0 * dx2 * dx2 * ir25)
        uxy += -3.0 * mu * dx2 * y * ir25
        uyy += mu * (ir23 - 3.0 * y * y * ir25)
    return uxx, uxy, uyy


def kepler_energy(s: State, mu: float) -> float:
    """Inertial-frame two-body energy K = |p|^2/2 - (1-mu)/r1 - mu/r2.

    Satisfies H = K - L up to rounding.
    """
    x, y, vx, vy = s
    r1, r2 = _check_off_bodies(x, y, mu)
    px, py = vx - y, vy + x
    k = 0.5 * (px * px + py * py) - (1.0 - mu) / r1
    if mu > 0.0:
        k -= mu / r2
    return k


def jacobian(s: State, mu: float):
    """Exact 4x4 Jacobian DV of the vector field (row-major nested tuples)."""
    x, y, _, _ = s
    uxx, uxy, uyy = potential_hessian(x, y, mu)
    return (
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (-uxx, -uxy, 0.0, 2.0),
        (-uxy, -uyy, -2.0, 0.0),
    )


def symplectic_form(u, w) -> float:
    """omega(u, w) for omega = dx^dvx + dy^dvy - 2 dx^dy."""
    return (
        u[0] * w[2]
        - u[2] * w[0]
        + u[1] * w[3]
        - u[3] * w[1]
        - 2.0 * (u[0] * w[1] - u[1] * w[0])
    )


def reversal(s: State) -> State:
    """Time-reversal symmetry R: (x, y, vx, vy) -> (x, -y, -vx, vy).

    R is an involution fixing the symmetry planes y = 0, vx = 0; it preserves
    H and L, and conjugates the flow to its time reverse.
    """
    return State(s[0], -s[1], -s[2], s[3])


def reversal_tangent(u) -> TangentVector:
    """Push-forward dR = diag(1, -1, -1, 1) applied to a tangent vector."""
    return TangentVector(u[0], -u[1], -u[2], u[3])


def _collinear_root(mu: float, lo: float, hi: float) -> float:
    """Safeguarded bisection for dU/dx(x, 0) = 0 on (lo, hi)."""

    def fx(x):
        return potential_gradient(x, 0.0, mu)[0]

    # Pull the endpoints off the singularities before bracketing.
    eps = 1e-9
    a, b = lo + eps, hi - eps
    fa, fb = fx(a), fx(b)
    if fa * fb > 0.0:
        raise RuntimeError(
            f"collinear equilibrium not bracketed in ({lo}, {hi}) for mu={mu}"
        )
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = fx(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if b - a < 1e-15 * max(1.0, abs(a)):
            break
    x = 0.5 * (a + b)
    if abs(fx(x)) > 1e-12:
        raise RuntimeError(f"collinear root did not converge for mu={mu}: x={x}")
    return x


def lagrange_points(mu: float) -> tuple[tuple[float, float], ...]:
    """The five equilibria (L1..L5); collinear ones by bisection on dU/dx.

    L1 lies between the bodies, L2 beyond the secondary, L3 opposite the
    secondary; L4/L5 are the equilateral points (1/2 - mu, +-sqrt(3)/2).
    """
    if not (0.0 < mu <= 0.5):
        raise ValueError(f"lagrange_points requires 0 < mu <= 1/2, got {mu}")
    l1 = _collinear_root(mu, -mu, 1.0 - mu)
    l2 = _collinear_root(mu, 1.0 - mu, 2.0)
    l3 = _collinear_root(mu, -2.0, -mu)
    s3 = math.sqrt(3.0) / 2.0
    return (
        (l1, 0.0),
        (l2, 0.0),
        (l3, 0.0),
        (0.5 - mu, s3),
        (0.5 - mu, -s3),
    )


class UnboundOrbitError(ValueError):
    """Raised when orbital elements are requested for K >= 0."""


class DegenerateOrbitError(ValueError):
    """Raised for radial (L = 0) or inconsistent (L^2 > a) states."""


@dataclass(frozen=True)
class KeplerElements:
    """Osculating ellipse about the origin for a bound state."""

    a: float
    e: float
    sigma: int
    N: float
    w: float
    r_min: float
    r_max: float


def torus_region_contains(L: float, C: float) -> bool:
    """True iff (L, C) lies strictly inside the mu = 0 torus region.

    The region is 2L < C < 2L + 1/L^2: bounded below by parabolic orbits and
    above by circular ones; L = 0 (radial orbits) is excluded.
    """
    if L == 0.0:
        return False
    return 2.0 * L < C < 2.0 * L + 1.0 / (L * L)


def elements_from_state(s: State) -> KeplerElements:
    """Osculating Kepler elements from K = -1/(2a), L = sigma*sqrt(a(1-e^2)).

    The winding ratio is w = -N^3 with N = sigma*sqrt(a).
    """
    k = kepler_energy(s, 0.0)
    if k >= 0.0:
        raise UnboundOrbitError(f"state is unbound: K = {k}")
    L = angular_momentum(s)
    if L == 0.0:
        raise DegenerateOrbitError("radial orbit: L = 0")
    a = -0.5 / k
    e_sq = 1.0 - L * L / a
    if e_sq < -1e-12:
        raise DegenerateOrbitError(f"inconsistent elements: L^2 = {L * L} > a = {a}")
    e = math.sqrt(max(e_sq, 0.0))
    sigma = 1 if L > 0.0 else -1
    n = sigma * math.sqrt(a)
    return KeplerElements(
        a=a,
        e=e,
        sigma=sigma,
        N=n,
        w=-n * n * n,
        r_min=a * (1.0 - e),
        r_max=a * (1.0 + e),
    )
