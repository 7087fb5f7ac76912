"""Rotating-frame dynamics of the planar circular restricted three-body problem.

Units are nondimensional: total mass 1, primary-secondary distance 1, angular
rate of the frame 1.  The primary (mass 1-mu) sits at (-mu, 0) and the
secondary (mass mu) at (1-mu, 0).  The canonical internal representation is
the velocity form (x, y, vx, vy); polar canonical coordinates are converted
on demand.

The hot fields, ``flow_field`` and ``joint_field``, are each written once
as a formula source and compiled into the callable and a DOP853 trial step
with the body inlined (``integrate.make_field``); a wrapped field steps
through the call-through kernel with the same results.  The detector's
g monitor, with g's time derivative, is compiled from the same gradient
and Hessian statements.
``potential_gradient`` is the readable gradient behind ``vector_field`` and
``grad_hamiltonian``, which evaluate seeds and section points, not steps.

The rotating-frame Hamiltonian is H = |v|^2/2 + U(x, y) with effective
potential U = -(x^2+y^2)/2 - (1-mu)/r1 - mu/r2, and the symplectic form in
velocity coordinates is  omega = dx^dvx + dy^dvy - 2 dx^dy.  The Jacobi
constant is C = -2H.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, NamedTuple

from .integrate import ConfigError, FieldSource, make_field

__all__ = [
    "State",
    "TangentVector",
    "PolarState",
    "validate_mass_ratio",
    "effective_potential",
    "potential_gradient",
    "hamiltonian",
    "jacobi_constant",
    "angular_momentum",
    "polar",
    "vector_field",
    "grad_hamiltonian",
    "grad_angular_momentum",
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


class PolarState(NamedTuple):
    """Polar canonical coordinates (r, theta, p_r, p_theta)."""

    r: float
    theta: float
    p_r: float
    p_theta: float


def validate_mass_ratio(mu: float) -> float:
    """Check the mass ratio; warn above 1/2 (mirrored-system convention)."""
    if not (0.0 <= mu <= 1.0):
        raise ConfigError([f"mass ratio mu must lie in [0, 1], got {mu}"])
    if mu > 0.5:
        warnings.warn(
            f"mass ratio {mu} > 1/2: this is the mirrored system for mu' = {1.0 - mu}",
            stacklevel=2,
        )
    return mu


def _check_off_bodies(x, y, mu):
    """Distances (r1, r2) to primary and secondary, neither of them zero."""
    r1, r2 = math.hypot(x + mu, y), math.hypot(x - 1.0 + mu, y)
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


def hamiltonian(s: State, mu: float) -> float:
    """Rotating-frame energy H = |v|^2/2 + U(x, y)."""
    x, y, vx, vy = s
    return 0.5 * (vx * vx + vy * vy) + effective_potential(x, y, mu)


def jacobi_constant(s: State, mu: float) -> float:
    """Jacobi constant C = -2H."""
    return -2.0 * hamiltonian(s, mu)


def angular_momentum(s: State) -> float:
    """Inertial angular momentum L = x*py - y*px = x*vy - y*vx + x^2 + y^2."""
    x, y, vx, vy = s
    return x * vy - y * vx + x * x + y * y


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


def grad_hamiltonian(s: State, mu: float) -> TangentVector:
    """Euclidean gradient of H: (Ux, Uy, vx, vy)."""
    x, y, vx, vy = s
    ux, uy = potential_gradient(x, y, mu)
    return TangentVector(ux, uy, vx, vy)


def grad_angular_momentum(s: State) -> TangentVector:
    """Euclidean gradient of L: (vy + 2x, -vx + 2y, -y, x)."""
    x, y, vx, vy = s
    return TangentVector(vy + 2.0 * x, -vx + 2.0 * y, -y, x)


# Formula sources of the hot fields.  The mu > 0 and mu = 0 bodies associate
# the potential's terms differently, so each keeps its own.
_STATE = ("x", "yy", "vx", "vy")
_TANGENT = ("ex", "ey", "evx", "evy")
_GRADIENT = (
    "dx1 = x + mu",
    "r1s = dx1 * dx1 + yy * yy",
    "ir13 = 1.0 / (r1s * sqrt(r1s))",
    "dx2 = x - om",
    "r2s = dx2 * dx2 + yy * yy",
    "ir23 = 1.0 / (r2s * sqrt(r2s))",
    "ux = -x + om * dx1 * ir13 + mu * dx2 * ir23",
    "uy = -yy + om * yy * ir13 + mu * yy * ir23",
)
_HESSIAN = (
    "ir15 = ir13 / r1s",
    "ir25 = ir23 / r2s",
    "uxx = -1.0 + om * (ir13 - 3.0 * dx1 * dx1 * ir15)"
    " + mu * (ir23 - 3.0 * dx2 * dx2 * ir25)",
    "uxy = -3.0 * (om * dx1 * yy * ir15 + mu * dx2 * yy * ir25)",
    "uyy = -1.0 + om * (ir13 - 3.0 * yy * yy * ir15)"
    " + mu * (ir23 - 3.0 * yy * yy * ir25)",
)
_GRADIENT0 = (
    "rs = x * x + yy * yy",
    "ir3 = 1.0 / (rs * sqrt(rs))",
    "ux = -x + x * ir3",
    "uy = -yy + yy * ir3",
)
_HESSIAN0 = (
    "ir5 = ir3 / rs",
    "uxx = -1.0 + ir3 - 3.0 * x * x * ir5",
    "uxy = -3.0 * x * yy * ir5",
    "uyy = -1.0 + ir3 - 3.0 * yy * yy * ir5",
)
_FLOW_OUT = ("vx", "vy", "2.0 * vy - ux", "-2.0 * vx - uy")
_TANGENT_OUT = (
    "evx",
    "evy",
    "-uxx * ex - uxy * ey + 2.0 * evy",
    "-uxy * ex - uyy * ey - 2.0 * evx",
)


@functools.cache
def flow_field(mu: float) -> Callable[[tuple], tuple]:
    """Derivative map for the flow alone, on 4-tuples (hot path)."""
    source = FieldSource(_STATE, _GRADIENT0 if mu == 0.0 else _GRADIENT, _FLOW_OUT)
    return make_field(source, f"flow field, mu={mu!r}", mu=mu, om=1.0 - mu)


@functools.cache
def joint_field(mu: float) -> Callable[[tuple], tuple]:
    """Derivative map for the joint (state, tangent) system on 8-tuples.

    Components 0..3 evolve by V, components 4..7 by the linearised flow
    DV * eta; first and second potential derivatives share the distance
    computations for speed.
    """
    body = _GRADIENT0 + _HESSIAN0 if mu == 0.0 else _GRADIENT + _HESSIAN
    source = FieldSource(_STATE + _TANGENT, body, _FLOW_OUT + _TANGENT_OUT)
    return make_field(source, f"joint field, mu={mu!r}", mu=mu, om=1.0 - mu)
