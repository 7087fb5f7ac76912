"""Adaptive embedded Runge-Kutta propagation of joint (state, tangent) systems.

A Dormand-Prince 5(4) pair drives both the flow and its linearisation as one
first-order system (8 components for the three-body problem, 4 for the flow
alone and the pendulum oracle).  The driver supports:

* adaptive steps with the usual error controller, plus a fixed-step mode for
  bit-reproducible runs;
* bisection refinement of sign changes of scalar observables between
  accepted steps, re-integrating substeps from the stored left endpoint.

One trial step has two implementations.  ``_attempt`` is the readable
reference: generator expressions over the components, one per stage.
``_attempt_kernel(n)`` returns the same step for n-dimensional systems as
straight-line code, generated from the tableau on first use for each n and
cached.  Every component expression of the kernel performs the reference's
operations in the reference's order, so its ``(y_new, k7, err)`` equal the
reference's bit for bit; the kernel only drops the generator and tuple
machinery, which cost more than the field evaluations themselves.
``DopriDriver`` steps with the kernel, and the tests compare the kernel with
the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "IntegratorOptions",
    "StepUnderflowError",
    "BracketError",
    "DopriDriver",
    "refine_event",
]

# Dormand-Prince 5(4) tableau.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


class StepUnderflowError(RuntimeError):
    """Step size fell below h_min without meeting the error tolerance."""


class BracketError(ValueError):
    """Sign-change refinement was called without a valid bracket."""


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances, step bounds and termination radii.

    collision_radius and escape_radius give explicit Collision/Escape
    classifications instead of silent step failure near the bodies or
    runaway orbits; renorm_threshold bounds the tangent norm between
    renormalizations.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.1
    renorm_threshold: float = 1e6
    collision_radius: float = 1e-3
    escape_radius: float = 20.0
    fixed_step: bool = False

    def __post_init__(self):
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError(
                f"need 0 < h_min <= h_init <= h_max, got "
                f"({self.h_min}, {self.h_init}, {self.h_max})"
            )
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


def _attempt(field, opts, y, k1, h):
    """One trial step from y with derivative k1; returns (y_new, k7, err)."""
    y2 = tuple(yi + h * _A21 * a for yi, a in zip(y, k1))
    k2 = field(y2)
    y3 = tuple(yi + h * (_A31 * a + _A32 * b) for yi, a, b in zip(y, k1, k2))
    k3 = field(y3)
    y4 = tuple(
        yi + h * (_A41 * a + _A42 * b + _A43 * c)
        for yi, a, b, c in zip(y, k1, k2, k3)
    )
    k4 = field(y4)
    y5 = tuple(
        yi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )
    k5 = field(y5)
    y6 = tuple(
        yi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
        for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
    )
    k6 = field(y6)
    y_new = tuple(
        yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
        for yi, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)
    )
    k7 = field(y_new)
    if opts.fixed_step:
        return y_new, k7, 0.0
    rel, ab = opts.rel_tol, opts.abs_tol
    err_sq = 0.0
    for i in range(len(y)):
        e = h * (
            _E1 * k1[i]
            + _E3 * k3[i]
            + _E4 * k4[i]
            + _E5 * k5[i]
            + _E6 * k6[i]
            + _E7 * k7[i]
        )
        sc = ab + rel * max(abs(y[i]), abs(y_new[i]))
        q = e / sc
        err_sq += q * q
    return y_new, k7, math.sqrt(err_sq / len(y))


# Rows of the tableau as the kernel generator reads them: the coefficients of
# k1, k2, ... in the states at which k3 ... k6 are evaluated (k2's state has
# the single coefficient _A21), the 5th-order solution's weights and the
# error weights, with None for the zero weight of k2.
_STAGE_ROWS = (
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
)
_B_ROW = (_B1, None, _B3, _B4, _B5, _B6)
_E_ROW = (_E1, None, _E3, _E4, _E5, _E6, _E7)


def _weighted_sum(row, i):
    """'c1 * k1_i + c2 * k2_i + ...' over the nonzero weights of row."""
    return " + ".join(
        f"{c!r} * k{s}_{i}" for s, c in enumerate(row, start=1) if c is not None
    )


def _kernel_source(n: int) -> str:
    """Source of _attempt written out for n-dimensional systems.

    Each component keeps the reference's expression and operand order:
    ``y_i + h * _A21 * k1_i`` (with ``h * _A21`` formed once, as the
    reference's left-to-right product forms it first), ``y_i + h * (c1 *
    k1_i + ...)`` for the later stages and the solution, and the error terms
    summed in component order from 0.0.  ``max(u, v)`` is spelled ``v if
    v > u else u``, which is how max picks between two values.  Float
    literals are the constants' reprs, which round-trip exactly.
    """

    def tup(items):
        return ", ".join(items) + ("," if n == 1 else "")

    def names(prefix):
        return tup(f"{prefix}_{i}" for i in range(n))

    def stage(row):
        return tup(f"y_{i} + h * ({_weighted_sum(row, i)})" for i in range(n))

    lines = [
        "def attempt(field, opts, y, k1, h):",
        f"    {names('y')} = y",
        f"    {names('k1')} = k1",
        f"    h21 = h * {_A21!r}",
        f"    {names('k2')} = field(({tup(f'y_{i} + h21 * k1_{i}' for i in range(n))}))",
    ]
    for s, row in enumerate(_STAGE_ROWS, start=3):
        lines.append(f"    {names(f'k{s}')} = field(({stage(row)}))")
    lines += [
        f"    y_new = ({stage(_B_ROW)})",
        "    k7 = field(y_new)",
        "    if opts.fixed_step:",
        "        return y_new, k7, 0.0",
        f"    {names('n')} = y_new",
        f"    {names('k7')} = k7",
        "    rel, ab = opts.rel_tol, opts.abs_tol",
    ]
    for i in range(n):
        lines += [
            f"    u, v = abs(y_{i}), abs(n_{i})",
            f"    q_{i} = h * ({_weighted_sum(_E_ROW, i)}) / (ab + rel * (v if v > u else u))",
        ]
    squares = "".join(f" + q_{i} * q_{i}" for i in range(n))
    lines += [
        f"    err_sq = 0.0{squares}",
        f"    return y_new, k7, sqrt(err_sq / {float(n)!r})",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _attempt_kernel(n: int):
    """The straight-line equivalent of _attempt for n-dimensional systems."""
    if n < 1:
        raise ValueError(f"state dimension must be positive, got {n}")
    namespace = {"sqrt": math.sqrt}
    exec(compile(_kernel_source(n), f"<dopri5 attempt, n={n}>", "exec"), namespace)
    return namespace["attempt"]


def _growth_factor(err):
    if err == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err ** -0.2))


class DopriDriver:
    """Stateful stepper for one trajectory of an arbitrary-dimension system."""

    def __init__(self, field: Callable[[tuple], tuple], opts: IntegratorOptions):
        self.field = field
        self.opts = opts
        self.t = 0.0
        self.y: tuple = ()
        self.h = opts.h_init
        self._k1: tuple | None = None
        self._attempt = _attempt  # reset() picks the kernel for len(y)

    def reset(self, t: float, y: Sequence[float], h: float | None = None):
        self.t = t
        self.y = tuple(y)
        self.h = self.opts.h_init if h is None else h
        self._k1 = None
        self._attempt = _attempt_kernel(len(self.y))
        return self

    def step(self, t_limit: float):
        """Advance one accepted step, not crossing t_limit.

        Returns (t0, y0, t1, y1).  Raises StepUnderflowError if the error
        tolerance cannot be met above h_min.
        """
        opts = self.opts
        t0, y0 = self.t, self.y
        if self._k1 is None:
            self._k1 = self.field(y0)
        k1 = self._k1
        h = opts.h_init if opts.fixed_step else self.h
        while True:
            h_try = min(h, t_limit - t0)
            if h_try <= 0.0:
                raise ValueError("step() called at or past t_limit")
            y_new, k7, err = self._attempt(self.field, opts, y0, k1, h_try)
            if err <= 1.0:
                clipped = h_try < h
                grown = (h_try if clipped else h) * _growth_factor(err)
                if clipped:
                    # End-of-interval clipping must not shrink future steps.
                    grown = max(grown, h)
                self.h = min(opts.h_max, max(opts.h_min, grown))
                self.t = t0 + h_try
                self.y = y_new
                self._k1 = k7
                return t0, y0, self.t, y_new
            if h_try <= opts.h_min:
                raise StepUnderflowError(
                    f"step underflow at t = {t0} (scaled error {err:.3g} at h_min)"
                )
            h = max(opts.h_min, h_try * max(0.1, 0.9 * err ** -0.2))


def refine_event(
    field,
    opts: IntegratorOptions,
    t_left: float,
    y_left: tuple,
    t_right: float,
    g_of_y: Callable[[tuple], float],
    g_left: float,
    g_right: float,
    time_tol: float = 1e-11,
    max_iter: int = 128,
):
    """Locate a sign change of g_of_y inside one accepted step.

    Bisection on re-integrated substeps: the bracket's left state is carried
    along, so each midpoint evaluation integrates only the current
    half-interval.  Returns (t_star, y_star) with g(t_star) ~ 0.
    """
    if g_left == 0.0:
        return t_left, y_left
    if (g_left > 0.0) == (g_right > 0.0):
        raise BracketError(
            f"no sign change on [{t_left}, {t_right}]: g = ({g_left}, {g_right})"
        )
    drv = DopriDriver(field, opts)
    a, b = t_left, t_right
    ya, ga = y_left, g_left
    y_star = y_left
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        drv.reset(a, ya, h=min(opts.h_init, m - a))
        while drv.t < m:
            drv.step(m)
        ym = drv.y
        gm = g_of_y(ym)
        if gm == 0.0:
            return m, ym
        if (gm > 0.0) == (ga > 0.0):
            a, ya, ga = m, ym, gm
        else:
            b = m
        y_star = ym
        if b - a <= time_tol * max(1.0, abs(a), abs(b)):
            break
    return 0.5 * (a + b), y_star
