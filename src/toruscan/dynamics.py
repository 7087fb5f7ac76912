"""Rotating-frame dynamics of the planar circular restricted three-body problem.

Units are nondimensional: total mass 1, primary-secondary distance 1, angular
rate of the frame 1.  The primary (mass 1-mu) sits at (-mu, 0) and the
secondary (mass mu) at (1-mu, 0).  The canonical internal representation is
the velocity form (x, y, vx, vy); inertial momenta and polar canonical
coordinates are converted on demand.

The rotating-frame Hamiltonian is H = |v|^2/2 + U(x, y) with effective
potential U = -(x^2+y^2)/2 - (1-mu)/r1 - mu/r2, and the symplectic form in
velocity coordinates is  omega = dx^dvx + dy^dvy - 2 dx^dy.  The Jacobi
constant is C = -2H.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple

__all__ = [
    "State",
    "TangentVector",
    "Momenta",
    "PolarState",
    "validate_mass_ratio",
    "body_distances",
    "effective_potential",
    "potential_gradient",
    "potential_hessian",
    "hamiltonian",
    "jacobi_constant",
    "angular_momentum",
    "kepler_energy",
    "momenta",
    "polar",
    "vector_field",
    "jacobian",
    "symplectic_form",
    "grad_hamiltonian",
    "grad_angular_momentum",
    "reversal",
    "reversal_tangent",
    "lagrange_points",
    "flow_field",
    "joint_field",
]

_MIN_BODY_DISTANCE = 1e-13


class State(NamedTuple):
    """Phase-space point in rotating-frame velocity coordinates."""

    x: float
    y: float
    vx: float
    vy: float


class TangentVector(NamedTuple):
    """Perturbation of a State, evolved by the linearised flow."""

    dx: float
    dy: float
    dvx: float
    dvy: float


class Momenta(NamedTuple):
    """Inertial-frame momenta per unit mass: px = vx - y, py = vy + x."""

    px: float
    py: float


class PolarState(NamedTuple):
    """Polar canonical coordinates (r, theta, p_r, p_theta)."""

    r: float
    theta: float
    p_r: float
    p_theta: float


def validate_mass_ratio(mu: float) -> float:
    """Check the mass ratio; warn above 1/2 (mirrored-system convention)."""
    if not (0.0 <= mu <= 1.0) or math.isnan(mu):
        raise ValueError(f"mass ratio must lie in [0, 1], got {mu}")
    if mu > 0.5:
        warnings.warn(
            f"mass ratio {mu} > 1/2: this is the mirrored system for mu' = {1.0 - mu}",
            stacklevel=2,
        )
    return mu


def body_distances(x: float, y: float, mu: float) -> tuple[float, float]:
    """Distances (r1, r2) to primary and secondary."""
    return math.hypot(x + mu, y), math.hypot(x - 1.0 + mu, y)


def _check_off_bodies(x, y, mu):
    r1, r2 = body_distances(x, y, mu)
    if r1 < _MIN_BODY_DISTANCE and 1.0 - mu > 0.0:
        raise ValueError(f"point ({x}, {y}) is at the primary")
    if r2 < _MIN_BODY_DISTANCE and mu > 0.0:
        raise ValueError(f"point ({x}, {y}) is at the secondary")
    return r1, r2


def effective_potential(x: float, y: float, mu: float) -> float:
    """U(x, y) = -(x^2+y^2)/2 - (1-mu)/r1 - mu/r2."""
    r1, r2 = _check_off_bodies(x, y, mu)
    u = -0.5 * (x * x + y * y) - (1.0 - mu) / r1
    if mu > 0.0:
        u -= mu / r2
    return u


def potential_gradient(x: float, y: float, mu: float) -> tuple[float, float]:
    """(dU/dx, dU/dy), analytic."""
    r1, r2 = _check_off_bodies(x, y, mu)
    om = 1.0 - mu
    ir13 = 1.0 / (r1 * r1 * r1)
    ux = -x + om * (x + mu) * ir13
    uy = -y + om * y * ir13
    if mu > 0.0:
        ir23 = 1.0 / (r2 * r2 * r2)
        ux += mu * (x - 1.0 + mu) * ir23
        uy += mu * y * ir23
    return ux, uy


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


def hamiltonian(s: State, mu: float) -> float:
    """Rotating-frame energy H = |v|^2/2 + U(x, y)."""
    x, y, vx, vy = s
    return 0.5 * (vx * vx + vy * vy) + effective_potential(x, y, mu)


def jacobi_constant(s: State, mu: float) -> float:
    """Jacobi constant C = -2H."""
    return -2.0 * hamiltonian(s, mu)


def momenta(s: State) -> Momenta:
    """Inertial momenta from the velocity representation."""
    x, y, vx, vy = s
    return Momenta(vx - y, vy + x)


def angular_momentum(s: State) -> float:
    """Inertial angular momentum L = x*py - y*px = x*vy - y*vx + x^2 + y^2."""
    x, y, vx, vy = s
    return x * vy - y * vx + x * x + y * y


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


def polar(s: State) -> PolarState:
    """Polar canonical coordinates; p_theta equals the angular momentum L."""
    x, y, vx, vy = s
    r = math.hypot(x, y)
    if r == 0.0:
        raise ValueError("polar coordinates undefined at the origin")
    return PolarState(r, math.atan2(y, x), (x * vx + y * vy) / r, angular_momentum(s))


def vector_field(s: State, mu: float) -> TangentVector:
    """Hamiltonian vector field V = (vx, vy, 2vy - Ux, -2vx - Uy)."""
    x, y, vx, vy = s
    ux, uy = potential_gradient(x, y, mu)
    return TangentVector(vx, vy, 2.0 * vy - ux, -2.0 * vx - uy)


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


def grad_hamiltonian(s: State, mu: float) -> TangentVector:
    """Euclidean gradient of H: (Ux, Uy, vx, vy)."""
    x, y, vx, vy = s
    ux, uy = potential_gradient(x, y, mu)
    return TangentVector(ux, uy, vx, vy)


def grad_angular_momentum(s: State) -> TangentVector:
    """Euclidean gradient of L: (vy + 2x, -vx + 2y, -y, x)."""
    x, y, vx, vy = s
    return TangentVector(vy + 2.0 * x, -vx + 2.0 * y, -y, x)


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


def flow_field(mu: float) -> Callable[[tuple], tuple]:
    """Derivative map for the flow alone, on 4-tuples (hot path)."""
    om = 1.0 - mu
    if mu == 0.0:

        def field0(y):
            x, yy, vx, vy = y
            rs = x * x + yy * yy
            ir3 = 1.0 / (rs * math.sqrt(rs))
            ux = -x + x * ir3
            uy = -yy + yy * ir3
            return (vx, vy, 2.0 * vy - ux, -2.0 * vx - uy)

        return field0

    def field(y):
        x, yy, vx, vy = y
        dx1 = x + mu
        r1s = dx1 * dx1 + yy * yy
        ir13 = 1.0 / (r1s * math.sqrt(r1s))
        dx2 = x - om
        r2s = dx2 * dx2 + yy * yy
        ir23 = 1.0 / (r2s * math.sqrt(r2s))
        ux = -x + om * dx1 * ir13 + mu * dx2 * ir23
        uy = -yy + om * yy * ir13 + mu * yy * ir23
        return (vx, vy, 2.0 * vy - ux, -2.0 * vx - uy)

    return field


def joint_field(mu: float) -> Callable[[tuple], tuple]:
    """Derivative map for the joint (state, tangent) system on 8-tuples.

    Components 0..3 evolve by V, components 4..7 by the linearised flow
    DV * eta; first and second potential derivatives share the distance
    computations for speed.
    """
    om = 1.0 - mu
    if mu == 0.0:

        def field0(y):
            x, yy, vx, vy, ex, ey, evx, evy = y
            rs = x * x + yy * yy
            ir3 = 1.0 / (rs * math.sqrt(rs))
            ir5 = ir3 / rs
            ux = -x + x * ir3
            uy = -yy + yy * ir3
            uxx = -1.0 + ir3 - 3.0 * x * x * ir5
            uxy = -3.0 * x * yy * ir5
            uyy = -1.0 + ir3 - 3.0 * yy * yy * ir5
            return (
                vx,
                vy,
                2.0 * vy - ux,
                -2.0 * vx - uy,
                evx,
                evy,
                -uxx * ex - uxy * ey + 2.0 * evy,
                -uxy * ex - uyy * ey - 2.0 * evx,
            )

        return field0

    def field(y):
        x, yy, vx, vy, ex, ey, evx, evy = y
        dx1 = x + mu
        r1s = dx1 * dx1 + yy * yy
        ir13 = 1.0 / (r1s * math.sqrt(r1s))
        ir15 = ir13 / r1s
        dx2 = x - om
        r2s = dx2 * dx2 + yy * yy
        ir23 = 1.0 / (r2s * math.sqrt(r2s))
        ir25 = ir23 / r2s
        ux = -x + om * dx1 * ir13 + mu * dx2 * ir23
        uy = -yy + om * yy * ir13 + mu * yy * ir23
        uxx = (
            -1.0
            + om * (ir13 - 3.0 * dx1 * dx1 * ir15)
            + mu * (ir23 - 3.0 * dx2 * dx2 * ir25)
        )
        uxy = -3.0 * (om * dx1 * yy * ir15 + mu * dx2 * yy * ir25)
        uyy = (
            -1.0
            + om * (ir13 - 3.0 * yy * yy * ir15)
            + mu * (ir23 - 3.0 * yy * yy * ir25)
        )
        return (
            vx,
            vy,
            2.0 * vy - ux,
            -2.0 * vx - uy,
            evx,
            evy,
            -uxx * ex - uxy * ey + 2.0 * evy,
            -uxy * ex - uyy * ey - 2.0 * evx,
        )

    return field
