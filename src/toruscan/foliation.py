"""Transverse direction field on energy levels and its companion 1-form.

Each energy level is foliated by the integral curves of

    xi = grad L - a * grad H,      a = (grad L . grad H) / |grad H|^2,

the component of grad L tangent to the level set.  xi is transverse to the
level sets of L wherever the two gradients are not parallel, so it is
transverse to the unperturbed invariant tori (L = constant within an energy
level).  The companion 1-form

    lambda = dL - b * V_flat,      b = (grad L . V) / |V|^2,

annihilates the flow direction V and is nonnegative on xi; it is represented
here by its Euclidean-dual vector grad L - b*V and applied via dot products.
Both are the part of grad L orthogonal to one vector (grad H for xi, V for
lambda), computed by a single projection: `evaluate` returns the pair and
their invariants, and `is_degenerate` says where xi is unusable.

On the symmetry planes the singularities of xi trace the zero set of an
explicit radial balance function of (r, L); that function also bounds the
surface of section there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import (
    State,
    TangentVector,
    grad_angular_momentum,
    grad_hamiltonian,
    vector_field,
)

__all__ = [
    "Plane",
    "SingularPointError",
    "FoliationEval",
    "evaluate",
    "singularity_function",
    "singularity_curve_distance",
    "is_degenerate",
]

_GRAD_TOL = 1e-12


class Plane(str, Enum):
    """The two symmetry half-planes (positive / negative x-axis)."""

    THETA0 = "theta0"
    THETA_PI = "thetapi"


class SingularPointError(ValueError):
    """Raised where the foliation data is undefined (equilibria)."""


@dataclass(frozen=True)
class FoliationEval:
    """All foliation quantities at one state."""

    xi: TangentVector
    lambda_coeffs: TangentVector
    xi_norm: float
    lambda_of_xi: float


def _dot(u, w) -> float:
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2] + u[3] * w[3]


def _reject(gl, w, w2):
    """The part of gl orthogonal to w, and the coefficient c = gl.w / |w|^2."""
    c = _dot(gl, w) / w2
    return (
        TangentVector(
            gl[0] - c * w[0],
            gl[1] - c * w[1],
            gl[2] - c * w[2],
            gl[3] - c * w[3],
        ),
        c,
    )


def evaluate(s: State, mu: float, tol: float = _GRAD_TOL) -> FoliationEval:
    """Compute xi, the dual vector of lambda, and their invariants at s."""
    gh = grad_hamiltonian(s, mu)
    gh2 = _dot(gh, gh)
    if gh2 <= tol * tol:
        raise SingularPointError(
            "foliation undefined where grad H vanishes (equilibrium point)"
        )
    gl = grad_angular_momentum(s)
    xi, _ = _reject(gl, gh, gh2)
    v = vector_field(s, mu)
    v2 = _dot(v, v)
    if v2 <= tol * tol:
        raise SingularPointError("lambda undefined where the vector field vanishes")
    lam, _ = _reject(gl, v, v2)
    return FoliationEval(
        xi=xi,
        lambda_coeffs=lam,
        xi_norm=math.sqrt(_dot(xi, xi)),
        lambda_of_xi=_dot(lam, xi),
    )


def _effective_mu(mu: float, plane: Plane) -> float:
    # The negative-x half-plane is the positive one of the mirrored system.
    return mu if plane is Plane.THETA0 else 1.0 - mu


def singularity_function(r: float, L: float, mu: float, plane: Plane) -> float:
    """Radial balance whose zero set is the xi-singularity curve in (r, L).

    On the positive-x plane (with nu = mu; negative-x plane uses nu = 1-mu):

        f(r, L) = (1-nu)/(r+nu)^2 +- nu/(r-1+nu)^2 - L^2/r^3,

    the sign chosen so that +-(r-1+nu) > 0.  f equals minus the radial
    momentum rate on the plane, so f >= 0 marks the surface-of-section side;
    for nu = 0 it reduces to 1/r^2 - L^2/r^3 with zero set r = L^2.
    """
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    nu = _effective_mu(mu, plane)
    d2 = r - 1.0 + nu
    f = (1.0 - nu) / ((r + nu) * (r + nu)) - L * L / (r * r * r)
    if nu > 0.0:
        if abs(d2) < 1e-12:
            raise ValueError(
                f"singularity function has a pole at r = {1.0 - nu} on this plane"
            )
        f += math.copysign(nu / (d2 * d2), d2)
    return f


def _singularity_gradient(r, L, mu, plane):
    nu = _effective_mu(mu, plane)
    d2 = abs(r - 1.0 + nu)
    fr = -2.0 * (1.0 - nu) / ((r + nu) ** 3) + 3.0 * L * L / (r ** 4)
    if nu > 0.0:
        fr -= 2.0 * nu / (d2 ** 3)
    fl = -2.0 * L / (r ** 3)
    return fr, fl


def singularity_curve_distance(r: float, L: float, mu: float, plane: Plane) -> float:
    """First-order estimate of the (r, L) distance to the f = 0 curve."""
    nu = _effective_mu(mu, plane)
    if nu > 0.0 and r - 1.0 + nu == 0.0:
        return 0.0
    f = singularity_function(r, L, mu, plane)
    fr, fl = _singularity_gradient(r, L, mu, plane)
    grad = math.hypot(fr, fl)
    if grad == 0.0:
        return math.inf
    return abs(f) / grad


def is_degenerate(
    s: State, mu: float, tol: float = 1e-8
) -> tuple[bool, str | None]:
    """Check whether the foliation is unusable at s, with a reason.

    Degenerate either at an equilibrium (grad H below tol) or where grad L
    and grad H are parallel (|xi| below tol relative to its ingredients).
    """
    gh = grad_hamiltonian(s, mu)
    gh2 = _dot(gh, gh)
    gh_norm = math.sqrt(gh2)
    if gh_norm <= tol:
        return True, "equilibrium"
    gl = grad_angular_momentum(s)
    xi, a = _reject(gl, gh, gh2)
    scale = math.sqrt(_dot(gl, gl)) + abs(a) * gh_norm
    if math.sqrt(_dot(xi, xi)) <= tol * scale:
        return True, "parallel-gradients"
    return False, None
