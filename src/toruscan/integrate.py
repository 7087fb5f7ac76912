"""Adaptive embedded Runge-Kutta propagation of joint (state, tangent) systems.

A Dormand-Prince 5(4) pair drives both the flow and its linearisation as one
first-order system (8 components for the three-body problem, 4 for the flow
alone and the pendulum oracle).  The driver supports:

* adaptive steps with the usual error controller, plus a fixed-step mode for
  bit-reproducible runs;
* location of sign changes of scalar observables between accepted steps
  (``refine_event``, given the left state and the right time): the step
  holding the sign change is integrated again from its stored left state,
  and from the secant root of the observable's values at that step's ends
  the root is bracketed to 1e-11 relative in time on one-substep
  re-integrations from the step's left state.

One trial step has a readable reference, ``_attempt`` (generator
expressions over the components, one per stage), and straight-line kernels
that one generator writes out from the tableau with either stage body: a
call of the field (``_attempt_kernel(n)``, per state dimension, for any
field) or the field's own body inlined at every stage (``make_field``
compiles a field written once as a ``FieldSource`` into the callable and
this kernel, as its ``.attempt``; ``make_function`` compiles the callable
alone).  Every component expression of a kernel
performs the reference's operations in the reference's order, so its
``(y_new, k7, err)`` equal the reference's bit for bit.
``DopriDriver.reset`` picks the field's ``.attempt`` when it has one and
the call-through kernel otherwise, and ``refine_event`` re-integrates with
the driver's pick; the tests compare both kernels with the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "ConfigError",
    "IntegratorOptions",
    "StepUnderflowError",
    "DopriDriver",
    "FieldSource",
    "make_function",
    "make_field",
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


class ConfigError(ValueError):
    """Every violated rule of a settings type or a configuration."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances, step bounds and termination radii.

    collision_radius and escape_radius give explicit Collision/Escape
    classifications instead of silent step failure near the bodies or
    runaway orbits; renorm_threshold bounds the tangent norm between
    renormalizations.  Every rule is written so that NaN fails it.
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
        e = []
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            e.append(
                f"need 0 < h_min <= h_init <= h_max, got "
                f"({self.h_min}, {self.h_init}, {self.h_max})"
            )
        if not (0.0 < self.rel_tol < 1.0 and self.abs_tol > 0.0):
            e.append(
                f"need 0 < rel_tol < 1 and abs_tol > 0, got "
                f"({self.rel_tol}, {self.abs_tol})"
            )
        if not (self.renorm_threshold > 1.0):
            e.append(f"renorm_threshold must exceed 1, got {self.renorm_threshold}")
        if not (self.collision_radius >= 0.0):
            e.append(f"collision_radius must be >= 0, got {self.collision_radius}")
        if not (self.escape_radius > 0.0):
            e.append(f"escape_radius must be positive, got {self.escape_radius}")
        if e:
            raise ConfigError(e)


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


class FieldSource(NamedTuple):
    """A field written once: the names of its state's components, the body's
    statements (``sqrt`` in scope) and one expression per derivative."""

    inputs: tuple
    body: tuple
    outputs: tuple


def _weighted_sum(row, i):
    """'c1 * k1_i + c2 * k2_i + ...' over the nonzero weights of row."""
    return " + ".join(
        f"{c!r} * k{s}_{i}" for s, c in enumerate(row, start=1) if c is not None
    )


def _kernel_lines(n: int, source: FieldSource | None = None) -> list:
    """Body of _attempt written out for n-dimensional systems.

    Each component keeps the reference's expression and operand order:
    ``y_i + h * _A21 * k1_i`` (with ``h * _A21`` formed once, as the
    reference's left-to-right product forms it first), ``y_i + h * (c1 *
    k1_i + ...)`` for the later stages and the solution, and the error terms
    summed in component order from 0.0.  ``max(u, v)`` is spelled ``v if
    v > u else u``, which is how max picks between two values.  Float
    literals are the constants' reprs, which round-trip exactly.

    Given the field's source, each stage binds its inputs to the stage
    state's components and runs its body in place of the field call.
    """

    def tup(items):
        return ", ".join(items) + ("," if n == 1 else "")

    def names(prefix):
        return tup(f"{prefix}_{i}" for i in range(n))

    def stage(row):
        return [f"y_{i} + h * ({_weighted_sum(row, i)})" for i in range(n)]

    def derivative(s, state):
        """Lines setting k{s}_0 ... k{s}_{n-1} to the field at state."""
        if source is None:
            return [f"{names(f'k{s}')} = field(({tup(state)}))"]
        return [
            *(f"{name} = {c}" for name, c in zip(source.inputs, state)),
            *source.body,
            *(f"k{s}_{i} = {c}" for i, c in enumerate(source.outputs)),
        ]

    lines = [
        f"{names('y')} = y",
        f"{names('k1')} = k1",
        f"h21 = h * {_A21!r}",
        *derivative(2, [f"y_{i} + h21 * k1_{i}" for i in range(n)]),
    ]
    for s, row in enumerate(_STAGE_ROWS, start=3):
        lines += derivative(s, stage(row))
    lines.append(f"{names('n')} = y_new = ({tup(stage(_B_ROW))})")
    lines += derivative(7, [f"n_{i}" for i in range(n)])
    lines += [
        f"k7 = ({names('k7')})",
        "if opts.fixed_step:",
        "    return y_new, k7, 0.0",
        "rel, ab = opts.rel_tol, opts.abs_tol",
    ]
    for i in range(n):
        lines += [
            f"u, v = abs(y_{i}), abs(n_{i})",
            f"q_{i} = h * ({_weighted_sum(_E_ROW, i)}) / (ab + rel * (v if v > u else u))",
        ]
    squares = "".join(f" + q_{i} * q_{i}" for i in range(n))
    return lines + [
        f"err_sq = 0.0{squares}",
        f"return y_new, k7, sqrt(err_sq / {float(n)!r})",
    ]


def _compile(head: str, lines, label: str):
    """The function ``def head:`` with body lines, with sqrt in scope."""
    text = f"def {head}:\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"sqrt": math.sqrt}
    exec(compile(text, f"<{label}>", "exec"), namespace)
    return namespace[head.partition("(")[0]]


@functools.cache
def _attempt_kernel(n: int):
    """The straight-line equivalent of _attempt for n-dimensional systems."""
    if n < 1:
        raise ValueError(f"state dimension must be positive, got {n}")
    return _compile(
        "attempt(field, opts, y, k1, h)", _kernel_lines(n), f"dopri5 attempt, n={n}"
    )


def _literals(constants) -> list:
    return [f"{name} = {float(value)!r}" for name, value in constants.items()]


def make_function(source: FieldSource, label: str, **constants):
    """Compile source into ``y -> outputs``, binding each constant to its
    float literal on entry; the body may return early."""
    inputs, outputs = ", ".join(source.inputs), ", ".join(source.outputs)
    body = [f"{inputs} = y", *source.body, f"return ({outputs})"]
    return _compile("function(y)", _literals(constants) + body, label)


def make_field(source: FieldSource, label: str, **constants):
    """The callable field of source, carrying its fused kernel as ``.attempt``.

    The kernel is _attempt with the field's body inlined at every stage, and
    binds the constants as make_function does.
    """
    field = make_function(source, label, **constants)
    field.attempt = _compile(
        "attempt(field, opts, y, k1, h)",
        _literals(constants) + _kernel_lines(len(source.inputs), source),
        f"{label}, fused attempt",
    )
    return field


class DopriDriver:
    """Stateful stepper for one trajectory of an arbitrary-dimension system."""

    def __init__(self, field: Callable[[tuple], tuple], opts: IntegratorOptions):
        self.field = field
        self.opts = opts
        self.t = 0.0
        self.y: tuple = ()
        self.h = opts.h_init
        self._k1: tuple | None = None
        self._attempt = _attempt  # reset() picks the kernel for the field

    def reset(self, t: float, y: Sequence[float], h: float | None = None):
        self.t = t
        self.y = tuple(y)
        self.h = self.opts.h_init if h is None else h
        self._k1 = None
        fused = getattr(self.field, "attempt", None)
        self._attempt = fused or _attempt_kernel(len(self.y))
        return self

    def step(self, t_limit: float):
        """Advance one accepted step, not crossing t_limit.

        Returns (t0, y0, t1, y1).  Raises StepUnderflowError if the error
        tolerance cannot be met above h_min.  The controller spells min(a, b)
        ``b if b < a else a`` and max(a, b) ``b if b > a else a``: the floats
        the builtins return, NaN and ties included, without their calls.
        """
        opts = self.opts
        t0, y0 = self.t, self.y
        if self._k1 is None:
            self._k1 = self.field(y0)
        k1 = self._k1
        h = opts.h_init if opts.fixed_step else self.h
        rest = t_limit - t0
        while True:
            h_try = rest if rest < h else h
            if h_try <= 0.0:
                raise ValueError("step() called at or past t_limit")
            y_new, k7, err = self._attempt(self.field, opts, y0, k1, h_try)
            if err <= 1.0:
                # min(5, max(0.2, 0.9 err^-0.2)), 5 at err = 0; err <= 1 makes
                # the factor at least 0.9, so the 0.2 floor never binds.
                growth = 0.9 * err**-0.2 if err != 0.0 else 5.0
                growth = growth if growth < 5.0 else 5.0
                clipped = h_try < h
                grown = (h_try if clipped else h) * growth
                if clipped and h > grown:
                    # End-of-interval clipping must not shrink future steps.
                    grown = h
                grown = grown if grown > opts.h_min else opts.h_min
                self.h = grown if grown < opts.h_max else opts.h_max
                self.t = t0 + h_try
                self.y = y_new
                self._k1 = k7
                return t0, y0, self.t, y_new
            if h_try <= opts.h_min:
                raise StepUnderflowError(
                    f"step underflow at t = {t0} (scaled error {err:.3g} at h_min)"
                )
            shrink = 0.9 * err**-0.2
            h = h_try * (shrink if shrink > 0.1 else 0.1)
            h = h if h > opts.h_min else opts.h_min


# Events are located in time to _TIME_TOL relative; the polish gives up
# after _MAX_ITER rounds.
_TIME_TOL = 1e-11
_MAX_ITER = 128


def _polish(at, t_est, lo, hi):
    """Bracket the root of g along at(t) -> (y, g) to _TIME_TOL*max(1, |t|).

    lo and hi are (t, g, y) on either side of the root.  Each round tries
    the estimate's two neighbours half a tolerance away, then moves the
    estimate to the secant root through them.  Returns the (t, y) of the
    final bracket's end with the smaller |g|.
    """
    (a, ga, ya), (b, gb, yb) = lo, hi
    for _ in range(_MAX_ITER):
        half = 0.5 * _TIME_TOL * max(1.0, abs(t_est))
        tried = []
        for t in (t_est - half, t_est + half):
            if a < t < b:
                y, gt = at(t)
                if gt == 0.0:
                    return t, y
                tried.append((t, gt))
                if (gt > 0.0) == (ga > 0.0):
                    a, ga, ya = t, gt, y
                else:
                    b, gb, yb = t, gt, y
        if b - a <= 2.0 * half:
            break
        (u, gu), (v, gv) = tried if len(tried) == 2 else ((a, ga), (b, gb))
        t_est = u - gu * (v - u) / (gv - gu) if gv != gu else 0.5 * (a + b)
        if not a < t_est < b:
            t_est = 0.5 * (a + b)
    return (a, ya) if abs(ga) <= abs(gb) else (b, yb)


def refine_event(
    field,
    opts: IntegratorOptions,
    t_left: float,
    y_left: tuple,
    t_right: float,
    g_of_y: Callable[[tuple], float],
):
    """Locate a sign change of g_of_y between t_left and t_right.

    The caller has seen g change sign from y_left to its state at t_right;
    only y_left is needed, as g's sign there is read from g_of_y.  Where
    g(y_left) = 0 that is the event, (t_left, y_left).  Otherwise the
    bracket is integrated again from y_left, in one step when the error
    control accepts it (a bracket of one accepted step) and otherwise in
    substeps up to the first whose end has changed sign.  From the secant
    root of g's values at that substep's ends, the root is bracketed to
    _TIME_TOL*max(1, |t|) on one-substep re-integrations from its left
    state, taken with the driver's own kernel.  Returns (t_star, y_star)
    with y_star that re-integration's state at t_star; if the
    re-integration keeps g's sign up to t_right, the event is put at
    t_right.
    """
    g0 = g_of_y(y_left)
    if g0 == 0.0:
        return t_left, y_left

    drv = DopriDriver(field, opts).reset(
        t_left, y_left, h=min(t_right - t_left, opts.h_max)
    )
    drv._k1 = field(y_left)
    while True:
        k1 = drv._k1
        t0, y0, t1, y1 = drv.step(t_right)
        g1 = g_of_y(y1)
        if g1 == 0.0 or (t1 >= t_right and (g1 > 0.0) == (g0 > 0.0)):
            return t1, y1
        if (g1 > 0.0) != (g0 > 0.0):
            break
        g0 = g1

    t_est = t0 - g0 * (t1 - t0) / (g1 - g0)

    def reintegrate(t):
        y = drv._attempt(field, opts, y0, k1, t - t0)[0]
        return y, g_of_y(y)

    return _polish(reintegrate, t_est, (t0, g0, y0), (t1, g1, y1))
