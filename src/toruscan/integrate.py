"""Adaptive embedded Runge-Kutta propagation of joint (state, tangent) systems.

The Dormand-Prince 8(5,3) pair DOP853 drives both the flow and its
linearisation as one first-order system (8 components for the three-body
problem, 4 for the flow alone and the pendulum oracle).  The driver
supports:

* adaptive steps with Gustafsson's predictive step controller, plus a
  fixed-step mode for bit-reproducible runs;
* an error norm that scales each state component by its own size and the
  tangent, the system's trailing block, by the block's largest component
  (only the tangent's error relative to its size matters, since every
  watched quantity is homogeneous in it);
* location of a scalar observable's sign change inside the accepted step
  that holds it (``refine_event``, given the step's start and the two
  readings that bracket the change): from the secant root of the
  observable's values at the readings, the root is bracketed to 1e-11
  relative in time on one-substep re-integrations from the step's start;
  nothing is stepped again;
* sign changes inside one accepted step (``live_points``): a cubic
  Hermite through the observable's values and time derivatives at the
  step's ends predicts them, and a one-substep re-integration confirms
  them, also where the Hermite predicts a near-grazing extremum of the
  right sign.

One trial step has a readable reference, ``_attempt`` (a loop over the
tableau's rows), and straight-line kernels that one generator writes out
from the same rows with either stage body: a call of the field
(``_attempt_kernel(n, tangent)``, per state dimension and tangent block,
for any field) or the field's own body inlined at every stage
(``make_field`` compiles a field written once as a ``FieldSource`` into the
callable and these kernels, as its ``.kernel(tangent)``;
``make_function`` compiles the callable alone).  Every component
expression of a kernel performs the reference's operations in the
reference's order, so its ``(y_new, err)`` equal the reference's bit for
bit.  An attempt does not evaluate the field at y_new: ``DopriDriver.step``
does that once it accepts the step, so rejected attempts and the
re-integrations, which read only y_new, do not pay for it.  Only the
caller's trajectory loop calls ``DopriDriver.step``.
``DopriDriver.reset`` picks the field's ``.kernel`` for the driver's
tangent block when the field has one and the call-through kernel
otherwise, and ``refine_event`` and ``live_points`` re-integrate with the
driver's pick; the tests compare both kernels with the reference.
"""

from __future__ import annotations

import functools
import math
import operator
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
    "live_points",
]

# Dormand-Prince 8(5,3) tableau (DOP853; Hairer, Norsett & Wanner, Solving
# ODEs I, section II.10), as the rows the reference and the kernel generator
# read: the coefficients of k1, k2, ... in the states at which k2 ... k12 are
# evaluated, the 8th-order solution's weights and the weights of the 5th- and
# 3rd-order error estimates, with None for a zero weight.
# fmt: off
_STAGE_ROWS = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, None, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, None, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, None, None,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, None, None, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, None, None,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, None, None, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, None, None, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, None, None, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, None, None, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B_ROW = (5.42937341165687622380535766363e-2, None, None, None, None,
         4.45031289275240888144113950566, 1.89151789931450038304281599044,
         -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
         -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
         4.47106157277725905176885569043e-2)
_E5_ROW = (0.1312004499419488073250102996e-1, None, None, None, None,
          -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
          0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
          0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
          -0.2235530786388629525884427845e-1)
# fmt: on
# The 3rd-order estimate's weights are the solution's, less bhh1..bhh3 at
# k1, k9 and k12.
_BHH = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_E3_ROW = tuple(
    None if b is None else b - _BHH.get(s, 0.0) for s, b in enumerate(_B_ROW)
)


# The predictive controller reads the last accepted step's error floored at
# this value (RADAU5's choice), so that a nearly exact step does not shrink
# the next.
_ERR_PREV_MIN = 1e-2


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
    h_max: float = 0.5
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


def _weighted(row, ks, i):
    """c1 * k1[i] + c2 * k2[i] + ... over row's nonzero weights, added left
    to right."""
    terms = (c * k[i] for c, k in zip(row, ks) if c is not None)
    return functools.reduce(operator.add, terms)


def _attempt(field, opts, y, k1, h, tangent=0):
    """One trial step from y with derivative k1; returns (y_new, err).

    err is DOP853's scaled error norm, h |e5|^2 / sqrt(n (|e5|^2 +
    0.01 |e3|^2)) with e5 and e3 the 5th- and 3rd-order estimates per
    tolerance scale; 0.0 in fixed-step mode.  A state component's scale is
    abs_tol + rel_tol max(|y_i|, |y_new_i|).  The last ``tangent``
    components, a tangent vector, share one scale: abs_tol + rel_tol times
    the largest of their magnitudes at either end of the step, since only
    the vector's error relative to its size matters (a component near 0 is
    not held to abs_tol).  The field at y_new, the next step's k1, is left
    to the caller.
    """
    def state(row):
        return tuple(yi + h * _weighted(row, ks, i) for i, yi in enumerate(y))

    ks = [k1]
    for row in _STAGE_ROWS:
        ks.append(field(state(row)))
    y_new = state(_B_ROW)
    if opts.fixed_step:
        return y_new, 0.0
    rel, ab = opts.rel_tol, opts.abs_tol
    split = len(y) - tangent
    big = 0.0
    for u in y[split:] + y_new[split:]:
        u = u if u >= 0.0 else -u
        big = u if u > big else big
    e5_sq = e3_sq = 0.0
    for i, (u, v) in enumerate(zip(y, y_new)):
        if i < split:
            u = u if u >= 0.0 else -u
            v = v if v >= 0.0 else -v
            sc = ab + rel * max(u, v)
        else:
            sc = ab + rel * big
        q5 = _weighted(_E5_ROW, ks, i) / sc
        q3 = _weighted(_E3_ROW, ks, i) / sc
        e5_sq += q5 * q5
        e3_sq += q3 * q3
    if e5_sq == 0.0 and e3_sq == 0.0:
        return y_new, 0.0
    return y_new, h * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * len(y))


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


def _kernel_lines(n: int, source: FieldSource | None = None, tangent: int = 0) -> list:
    """Body of _attempt written out for n-dimensional systems whose last
    ``tangent`` components share one error scale.

    Each component keeps the reference's expression and operand order:
    ``y_i + h * (c1 * k1_i + ...)`` for the stages and the solution, each
    error estimate over the same tolerance scale (the tangent block's scale
    folded over its magnitudes at y, then at y_new, as the reference does),
    and the squares summed in component order from 0.0.  ``|a|`` is spelled
    ``a if a >= 0.0 else -a`` and ``max(u, v)`` ``v if v > u else u``: the
    floats the builtins give, -0.0 and NaN included, without their calls.
    Float literals are the constants' reprs, which round-trip exactly.

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

    lines = [f"{names('y')} = y", f"{names('k1')} = k1"]
    for s, row in enumerate(_STAGE_ROWS, start=2):
        lines += derivative(s, stage(row))
    lines.append(f"{names('n')} = y_new = ({tup(stage(_B_ROW))})")
    lines += [
        "if opts.fixed_step:",
        "    return y_new, 0.0",
        "rel, ab = opts.rel_tol, opts.abs_tol",
    ]

    def estimates(i):
        return [
            f"p_{i} = ({_weighted_sum(_E5_ROW, i)}) / sc",
            f"q_{i} = ({_weighted_sum(_E3_ROW, i)}) / sc",
        ]

    split = n - tangent
    for i in range(split):
        lines += [
            f"u = y_{i} if y_{i} >= 0.0 else -y_{i}",
            f"v = n_{i} if n_{i} >= 0.0 else -n_{i}",
            "sc = ab + rel * (v if v > u else u)",
            *estimates(i),
        ]
    if tangent:
        lines.append("b = 0.0")
        for prefix in ("y", "n"):
            for i in range(split, n):
                c = f"{prefix}_{i}"
                lines += [f"u = {c} if {c} >= 0.0 else -{c}", "b = u if u > b else b"]
        lines.append("sc = ab + rel * b")
        for i in range(split, n):
            lines += estimates(i)
    return lines + [
        "e5_sq = 0.0" + "".join(f" + p_{i} * p_{i}" for i in range(n)),
        "e3_sq = 0.0" + "".join(f" + q_{i} * q_{i}" for i in range(n)),
        "if e5_sq == 0.0 and e3_sq == 0.0:",
        "    return y_new, 0.0",
        f"return y_new, h * e5_sq / sqrt((e5_sq + 0.01 * e3_sq) * {float(n)!r})",
    ]


def _compile(head: str, lines, label: str):
    """The function ``def head:`` with body lines, with sqrt in scope."""
    text = f"def {head}:\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"sqrt": math.sqrt}
    exec(compile(text, f"<{label}>", "exec"), namespace)
    return namespace[head.partition("(")[0]]


@functools.cache
def _attempt_kernel(n: int, tangent: int):
    """The straight-line equivalent of _attempt for n-dimensional systems
    whose last ``tangent`` components are a tangent vector."""
    if n < 1 or not 0 <= tangent <= n:
        raise ValueError(f"need n >= 1 and 0 <= tangent <= n, got ({n}, {tangent})")
    return _compile(
        "attempt(field, opts, y, k1, h)",
        _kernel_lines(n, tangent=tangent),
        f"dop853 attempt, n={n}, tangent={tangent}",
    )


def _literals(constants) -> list:
    return [f"{name} = {float(value)!r}" for name, value in constants.items()]


def make_function(source: FieldSource, label: str, *, args="y", **constants):
    """Compile source into ``function(args) -> outputs`` (the inputs unpack
    the first argument), binding each constant to its float literal on
    entry; the body may return early."""
    inputs, outputs = ", ".join(source.inputs), ", ".join(source.outputs)
    body = [f"{inputs} = y", *source.body, f"return ({outputs})"]
    return _compile(f"function({args})", _literals(constants) + body, label)


def make_field(source: FieldSource, label: str, **constants):
    """The callable field of source, carrying its fused kernels.

    ``field.kernel(tangent)`` is _attempt with the field's body inlined at
    every stage, for a system whose last ``tangent`` components are a
    tangent vector, compiled once per block size.  The kernels bind the
    constants as make_function does.
    """
    field = make_function(source, label, **constants)

    @functools.cache
    def kernel(tangent: int):
        return _compile(
            "attempt(field, opts, y, k1, h)",
            _literals(constants) + _kernel_lines(len(source.inputs), source, tangent),
            f"{label}, fused attempt, tangent={tangent}",
        )

    field.kernel = kernel
    return field


class DopriDriver:
    """Stateful stepper for one trajectory of an arbitrary-dimension system
    whose last ``tangent`` components (none by default) are a tangent
    vector, measured in the error norm as one block."""

    def __init__(
        self, field: Callable[[tuple], tuple], opts: IntegratorOptions, tangent: int = 0
    ):
        self.field = field
        self.opts = opts
        self.tangent = tangent
        self.t = 0.0
        self.y: tuple = ()
        self.h = opts.h_init
        self._k1: tuple | None = None
        self._attempt = _attempt  # reset() picks the kernel for the field
        self._h_prev = self._err_prev = 0.0  # the last accepted step; 0.0 for none

    def reset(self, t: float, y: Sequence[float]):
        self.t = t
        self.y = tuple(y)
        self.h = self.opts.h_init
        self._k1 = None
        self._h_prev = self._err_prev = 0.0
        fused = getattr(self.field, "kernel", None)
        if fused is None:
            self._attempt = _attempt_kernel(len(self.y), self.tangent)
        else:
            self._attempt = fused(self.tangent)
        return self

    def step(self, t_limit: float):
        """Advance one accepted step, not crossing t_limit.

        Returns (t0, y0, t1, y1).  Raises StepUnderflowError if the error
        tolerance cannot be met above h_min.  The next step's size is h times
        the smaller of the plain factor 0.9 err^-1/8 and, once an earlier
        step was accepted, Gustafsson's predictive one, the plain factor
        times (h / h_prev) (err_prev / err)^1/8 with err_prev floored at
        _ERR_PREV_MIN as in RADAU5, kept within [0.2, 5] and at most 1 right
        after a rejection.  The controller spells min(a, b) ``b if b < a
        else a`` and max(a, b) ``b if b > a else a``: the floats the
        builtins return, NaN and ties included, without their calls.
        """
        opts = self.opts
        t0, y0 = self.t, self.y
        if self._k1 is None:
            self._k1 = self.field(y0)
        k1 = self._k1
        h = opts.h_init if opts.fixed_step else self.h
        rest = t_limit - t0
        rejected = False
        while True:
            h_try = rest if rest < h else h
            if h_try <= 0.0:
                raise ValueError("step() called at or past t_limit")
            y_new, err = self._attempt(self.field, opts, y0, k1, h_try)
            if err <= 1.0:
                # err <= 1 makes the plain factor at least 0.9; 5 at err = 0.
                growth = 0.9 * err**-0.125 if err != 0.0 else 5.0
                if self._h_prev != 0.0 and err != 0.0:
                    ratio = self._err_prev / err
                    predicted = growth * (h_try / self._h_prev) * ratio**0.125
                    growth = predicted if predicted < growth else growth
                    growth = growth if growth > 0.2 else 0.2
                growth = growth if growth < 5.0 else 5.0
                if rejected:
                    growth = growth if growth < 1.0 else 1.0
                self._h_prev = h_try
                self._err_prev = err if err > _ERR_PREV_MIN else _ERR_PREV_MIN
                clipped = h_try < h
                grown = (h_try if clipped else h) * growth
                if clipped and h > grown:
                    # End-of-interval clipping must not shrink future steps.
                    grown = h
                grown = grown if grown > opts.h_min else opts.h_min
                self.h = grown if grown < opts.h_max else opts.h_max
                self.t = t0 + h_try
                self.y = y_new
                self._k1 = self.field(y_new)
                return t0, y0, self.t, y_new
            if h_try <= opts.h_min:
                raise StepUnderflowError(
                    f"step underflow at t = {t0} (scaled error {err:.3g} at h_min)"
                )
            rejected = True
            shrink = 0.9 * err**-0.125
            h = h_try * (shrink if shrink > 0.1 else 0.1)
            h = h if h > opts.h_min else opts.h_min


# Events are located in time to _TIME_TOL relative; the polish gives up
# after _MAX_ITER rounds.  live_points re-integrates at an extremum inside a
# step where the Hermite predicts g there, against its sign, below
# _NEAR_GRAZING times the smaller end reading: the cubic's own error can
# hide a brief dip through 0.
_TIME_TOL = 1e-11
_MAX_ITER = 128
_NEAR_GRAZING = 1e-2


def refine_event(drv, start, left, right, g_of_y: Callable[[tuple], float]):
    """Locate a sign change of g_of_y inside the step drv took from start.

    start is the step's (t0, y0, k0).  right is a reading (t, y) in the
    step and left the last reading before it of g's other sign; where left
    lies at or before t0 (after readings at which g was not live), the
    bracket starts at the step's start (t0, y0) instead.  Where g at the
    left end is 0 or already has the right end's sign, that end is the
    event.  Otherwise the root is bracketed to _TIME_TOL*max(1, |t|) on
    one-substep re-integrations from (y0, k0) with the driver's kernel,
    the first at the secant root of g's values at the bracket's ends.  Each
    later attempt is at the root of the inverse quadratic interpolant
    through the three points evaluated last (the secant through the last
    two where g values coincide), or at the bracket's midpoint where that
    root falls outside it.  An estimate within half a tolerance of the
    point just tried moves to half a tolerance beyond it, on the root's
    side, so that the next attempt closes the bracket.  Returns (t_star,
    y_star): the final bracket's end with the smaller |g|.
    """
    t0, y0, k0 = start
    if left[0] <= t0:
        left = t0, y0
    (a, ya), (b, yb) = left, right
    ga, gb = g_of_y(ya), g_of_y(yb)
    if ga == 0.0 or (ga > 0.0) == (gb > 0.0):
        return a, ya
    (p, gp), (u, gu) = (a, ga), (b, gb)
    t = a - ga * (b - a) / (gb - ga)
    for _ in range(_MAX_ITER):
        tol = _TIME_TOL * max(1.0, abs(t))
        if b - a <= tol:
            break
        y = drv._attempt(drv.field, drv.opts, y0, k0, t - t0)[0]
        gt = g_of_y(y)
        if gt == 0.0:
            return t, y
        if (gt > 0.0) == (ga > 0.0):
            a, ga, ya = t, gt, y
            ahead = 0.5 * tol
        else:
            b, gb, yb = t, gt, y
            ahead = -0.5 * tol
        if gp != gu and gp != gt and gu != gt:
            t_next = (
                p * gu * gt / ((gp - gu) * (gp - gt))
                + u * gp * gt / ((gu - gp) * (gu - gt))
                + t * gp * gu / ((gt - gp) * (gt - gu))
            )
        else:
            t_next = t - gt * (t - u) / (gt - gu) if gt != gu else t + ahead
        if abs(t_next - t) < 0.5 * tol:
            t_next = t + ahead
        (p, gp), (u, gu), t = (u, gu), (t, gt), t_next
        if not a < t < b:
            t = 0.5 * (a + b)
    return (a, ya) if abs(ga) <= abs(gb) else (b, yb)


def live_points(drv, t0, y0, k0, ends, end_value, sign, live):
    """The points of the step the driver just took from (t0, y0) at which a
    caller that tracks the sign of a watched quantity g reads it.

    The step's end, (drv.t, drv.y, end_value), comes last.  Two sign changes
    inside one step leave its ends' signs alike, so where the end does not
    read -sign (sign is the last sign read, 0 for none) a point inside the
    step where g has the sign -sign comes first, if there is one.  ends
    holds g and dg/dt at t0 and drv.t, and the cubic Hermite through them
    predicts g's extremum against sign.  Where it predicts sign * g there
    below 0, or below _NEAR_GRAZING times the smaller of sign * g0 and
    sign * g1 (a near-grazing step, where the cubic's own error can exceed
    the dip), the extremum is checked on the one-substep re-integration
    from (y0, k0) with the kernel of drv, by live(y)[0]: g where it counts,
    0.0 elsewhere.  Only a sign change found there adds a point.
    """
    points = [(drv.t, drv.y, end_value)]
    if sign == 0 or sign * end_value < 0.0:
        return points
    g0, d0, g1, d1 = ends
    h = drv.t - t0
    m0, m1 = h * d0, h * d1
    # p(s) = g0 + s (m0 + s (c2 + s c3)) for s in [0, 1], extreme where
    # p'(s) = m0 + 2 c2 s + 3 c3 s^2 vanishes (roots in the stable form).
    c2 = 3.0 * (g1 - g0) - 2.0 * m0 - m1
    c3 = 2.0 * (g0 - g1) + m0 + m1
    disc = c2 * c2 - 3.0 * c3 * m0
    if not disc >= 0.0:
        return points
    q = -(c2 + math.copysign(math.sqrt(disc), c2))
    low = sign * g0 if sign * g0 < sign * g1 else sign * g1
    best, s_best = (_NEAR_GRAZING * low if low > 0.0 else 0.0), None
    for s in (q / (3.0 * c3) if c3 != 0.0 else -1.0, m0 / q if q != 0.0 else -1.0):
        if 0.0 < s < 1.0:
            p = sign * (g0 + s * (m0 + s * (c2 + s * c3)))
            if p < best:
                best, s_best = p, s
    if s_best is None:
        return points
    t = t0 + s_best * h
    y = drv._attempt(drv.field, drv.opts, y0, k0, t - t0)[0]
    g = live(y)[0]
    return [(t, y, g), *points] if sign * g < 0.0 else points
