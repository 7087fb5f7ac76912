"""Nonexistence test for invariant tori transverse to the foliation field.

A trajectory and one tangent vector are evolved together.  If the tangent of
a point on an invariant torus transverse to the direction field xi crossed
the plane spanned by xi and the flow direction V while pointing against xi
(negative component along xi modulo V), the torus would have to be crossed
too; detecting such an event therefore certifies that no invariant torus of
the class passes through the seed.  Concretely:

* general formulation: seed eta = xi, watch g = omega(eta, xi) for a sign
  change; at the refined crossing the event counts only if lambda(eta) < 0,
  where lambda = dL - b V_flat vanishes on V and is positive on xi.
* symmetric formulation (seeds on a symmetry plane only): seed eta
  antisymmetric under the time reversal, unit norm, orthogonal to V inside
  the antisymmetric plane; any sign change of omega(eta, xi) fires, no
  lambda test.  This variant also fires where xi is parallel to V, which the
  general one deliberately does not.

The g monitor is compiled from the potential gradient statements that
``dynamics`` writes once for its fields (``integrate.make_function``).
Runs are pure functions of (seed, configuration) and safe to execute in
parallel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from typing import Callable

from . import foliation
from .dynamics import (
    _GRADIENT,
    _GRADIENT0,
    _HESSIAN,
    _HESSIAN0,
    _STATE,
    _TANGENT,
    State,
    TangentVector,
    jacobi_constant,
    joint_field,
    validate_mass_ratio,
    vector_field,
)
from .integrate import (
    ConfigError,
    DopriDriver,
    FieldSource,
    IntegratorOptions,
    StepUnderflowError,
    live_points,
    make_function,
    refine_event,
)

__all__ = [
    "Classification",
    "Formulation",
    "DetectorConfig",
    "DetectionOutcome",
    "antisymmetric_tangent",
    "run",
    "run_general",
    "run_symmetric",
    "run_both",
    "combine_both",
    "lyapunov_estimate",
]

_PLANE_TOL = 1e-9
# xi is unresolved where |xi| <= _XI_FLOOR * rel_tol * |grad L|.  At seeds
# with grad L parallel to grad H, xi = grad L - a grad H is cancellation
# noise, and the integration error alone moves such an orbit to where
# |xi| / |grad L| is a few rel_tol (circular mu = 0 orbits: up to 5 rel_tol
# by t = 200).  The factor leaves room for that drift.
_XI_FLOOR = 1e3
# g is live (it arms and can change sign) where |g| > _ARMING_REL * |eta||xi|.
_ARMING_REL = 1e-12


class Classification(str, Enum):
    NONEXISTENCE = "Nonexistence"
    UNDETERMINED = "Undetermined"
    COLLISION = "Collision"
    ESCAPE = "Escape"
    SINGULAR_SEED = "SingularSeed"


class Formulation(str, Enum):
    GENERAL = "general"
    SYMMETRIC = "symmetric"
    BOTH = "both"


@dataclass(frozen=True)
class DetectorConfig:
    """Timeout (positive and finite), formulation and integrator of one run."""

    t_out: float = 40.0
    formulation: Formulation = Formulation.GENERAL
    integrator: IntegratorOptions = dc_field(default_factory=IntegratorOptions)
    compute_lyapunov: bool = False

    def __post_init__(self):
        if not (0.0 < self.t_out < math.inf):
            raise ConfigError([f"t_out must be positive and finite, got {self.t_out}"])


@dataclass(frozen=True)
class DetectionOutcome:
    """Classification of one seed with timing and diagnostics.

    For a Nonexistence result q = 1 - t_r/t_out = t_detect/t_out, where t_r
    is the time remaining after detection: small q means fast detection.
    """

    classification: Classification
    t_detect: float | None
    q: float | None
    lyapunov: float | None
    n_sign_events: int
    C: float
    diagnostics: dict = dc_field(default_factory=dict)


def antisymmetric_tangent(s0: State, mu: float) -> TangentVector:
    """Unit tangent seed for the symmetric formulation.

    The reversal acts on tangents as diag(1, -1, -1, 1); its antisymmetric
    subspace at a plane point is spanned by the dy and dvx directions and
    contains V.  The seed is the unit vector of that 2-plane orthogonal to
    V, which is automatically tangent to the energy level there.
    """
    x, y, vx, vy = s0
    if abs(y) > _PLANE_TOL or abs(vx) > _PLANE_TOL:
        raise ValueError(f"seed {s0} is not on a symmetry plane (y = vx = 0)")
    v = vector_field(s0, mu)
    n = math.hypot(v.dy, v.dvx)
    if n <= _PLANE_TOL:
        raise foliation.SingularPointError(
            "symmetric seed tangent undefined at an equilibrium"
        )
    return TangentVector(0.0, -v.dvx / n, v.dy / n, 0.0)


# g = omega(eta, xi(s)) and the homogeneity scale |eta||xi|, after the
# potential gradient (ux, uy); given the joint derivative k, also dg/dt =
# omega(k_eta, xi) + omega(eta, dxi/dt), after the Hessian, where xi =
# grad L - a grad H gives dxi/dt = dgL - da grad H - a dgH (d: d/dt).  All
# three are 0 (never live) where xi is unresolved: grad H vanishes, or
# grad L is parallel to it to within the integration's accuracy (floor_sq).
_G_LINES = (
    "gh2 = ux * ux + uy * uy + vx * vx + vy * vy",
    "if gh2 < 1e-28:",
    "    return 0.0, 0.0, 0.0",
    "glx, gly, glvx, glvy = vy + 2.0 * x, -vx + 2.0 * yy, -yy, x",
    "a = (glx * ux + gly * uy + glvx * vx + glvy * vy) / gh2",
    "xix, xiy, xivx, xivy = glx - a * ux, gly - a * uy, glvx - a * vx, glvy - a * vy",
    "xi2 = xix * xix + xiy * xiy + xivx * xivx + xivy * xivy",
    "if xi2 <= floor_sq * (glx * glx + gly * gly + glvx * glvx + glvy * glvy):",
    "    return 0.0, 0.0, 0.0",
    "g = ex * xivx - evx * xix + ey * xivy - evy * xiy - 2.0 * (ex * xiy - ey * xix)",
    "scale = sqrt((ex * ex + ey * ey + evx * evx + evy * evy) * xi2)",
    "if k is None:",
    "    return g, scale, 0.0",
    "kx, ky, kvx, kvy, kex, key, kevx, kevy = k",
)
_DG_LINES = (
    "dhx, dhy = uxx * kx + uxy * ky, uxy * kx + uyy * ky",
    "dlx, dly, dlvx, dlvy = kvy + 2.0 * kx, -kvx + 2.0 * ky, -ky, kx",
    "da = (dlx * ux + dly * uy + dlvx * vx + dlvy * vy + glx * dhx + gly * dhy"
    " + glvx * kvx + glvy * kvy - 2.0 * a * (ux * dhx + uy * dhy + vx * kvx"
    " + vy * kvy)) / gh2",
    "dxx, dxy = dlx - da * ux - a * dhx, dly - da * uy - a * dhy",
    "dxvx, dxvy = dlvx - da * vx - a * kvx, dlvy - da * vy - a * kvy",
    "dg = (kex * xivx - kevx * xix + key * xivy - kevy * xiy"
    " - 2.0 * (kex * xiy - key * xix) + ex * dxvx - evx * dxx + ey * dxvy"
    " - evy * dxy - 2.0 * (ex * dxy - ey * dxx))",
)


@functools.cache
def _g_monitor(mu: float, rel_tol: float):
    """(y, k=None) -> (g, scale, dg/dt) of a joint state y with derivative
    k (dg/dt is 0.0 without k), compiled once per (mu, rel_tol)."""
    if mu == 0.0:
        body = _GRADIENT0 + _G_LINES + _HESSIAN0 + _DG_LINES
    else:
        body = _GRADIENT + _G_LINES + _HESSIAN + _DG_LINES
    return make_function(
        FieldSource(_STATE + _TANGENT, body, ("g", "scale", "dg")),
        f"g monitor, mu={mu!r}",
        args="y, k=None",
        mu=mu,
        om=1.0 - mu,
        floor_sq=(_XI_FLOOR * rel_tol) ** 2,
    )


def _make_lambda_qualifier(mu: float) -> Callable[[float, tuple], bool]:
    """Event hook: True iff lambda(eta) < 0 at the event's joint state."""

    def qualify(t, y):
        try:
            lam = foliation.evaluate(State(*y[:4]), mu).lambda_coeffs
        except foliation.SingularPointError:
            return False
        return sum(c * e for c, e in zip(lam, y[4:])) < 0.0

    return qualify


def _make_guard(mu: float, opts: IntegratorOptions):
    """Collision / escape guard evaluated on each accepted step.

    Returns None, or the flag with where on the step it triggers: for an
    escape (the step's end lies beyond the escape radius), x^2 + y^2 -
    R_esc^2 as a function of the state, whose sign change the caller
    locates; for a collision, the fraction of the step at which the chord
    first comes within the collision radius.  Collision checks the full step
    chord against each massive body so a fast close passage inside the
    collision radius cannot slip between endpoints.  A body with |y1 - b|^2
    > 2 (r_col^2 + |w|^2), w the chord, is skipped: then |y1 - b| > r_col +
    |w|, so no point of the chord is within r_col.
    """
    bodies = []
    if 1.0 - mu > 0.0:
        bodies.append(-mu)
    if mu > 0.0:
        bodies.append(1.0 - mu)
    r_col_sq = opts.collision_radius * opts.collision_radius
    r_esc_sq = opts.escape_radius * opts.escape_radius

    def beyond(y):
        return y[0] * y[0] + y[1] * y[1] - r_esc_sq

    def guard(y0, y1):
        x1, yy1 = y1[0], y1[1]
        if x1 * x1 + yy1 * yy1 > r_esc_sq:
            return "escape", beyond
        x0, yy0 = y0[0], y0[1]
        wx, wy = x1 - x0, yy1 - yy0
        w2 = wx * wx + wy * wy
        far_sq = 2.0 * (r_col_sq + w2)
        for bx in bodies:
            ex = x1 - bx
            if ex * ex + yy1 * yy1 > far_sq:
                continue
            px, py = bx - x0, -yy0
            if w2 > 0.0:
                tt = foot = (px * wx + py * wy) / w2
                if tt < 0.0:
                    tt = 0.0
                elif tt > 1.0:
                    tt = 1.0
            else:
                tt = foot = 0.0
            dx, dy = px - tt * wx, py - tt * wy
            if dx * dx + dy * dy < r_col_sq:
                # Entry: short of the foot of the perpendicular from the body
                # (at distance f) by sqrt(r_col^2 - f^2) / |w|.
                fx, fy = px - foot * wx, py - foot * wy
                short_sq = (r_col_sq - fx * fx - fy * fy) / w2 if w2 > 0.0 else 0.0
                entry = foot - math.sqrt(short_sq) if short_sq > 0.0 else foot
                return "collision", entry if entry > 0.0 else 0.0
        return None

    return guard


_STATUS_TO_CLASS = {
    "fired": Classification.NONEXISTENCE,
    "timeout": Classification.UNDETERMINED,
    "collision": Classification.COLLISION,
    "escape": Classification.ESCAPE,
    # A numerical failure, not a physical outcome: the reason says which.
    "step-underflow": Classification.UNDETERMINED,
}


def monitor_run(
    field,
    state: tuple,
    tangent: tuple,
    t_out: float,
    opts: IntegratorOptions,
    C: float,
    *,
    g_fn=None,
    on_event=None,
    falling_only: bool = False,
    guard_fn=None,
    want_lyapunov: bool = False,
    extra: dict | None = None,
) -> DetectionOutcome:
    """The one trajectory loop: integrate, watch sign changes, refine, report.

    field drives the state followed by the tangent (empty for the state
    alone); the driver measures the tangent's error as one block, against
    the tangent's own size (integrate._attempt).  g_fn maps a joint state
    y, and its derivative k when given, to (g, scale, dg/dt); g is live
    where |g| > _ARMING_REL * scale, and a live sign change against the
    last live sign (only a falling one, with falling_only) is an event; so
    are both of a pair of sign changes inside one step
    (integrate.live_points), in time order.  guard_fn(y0, y1) flags a step
    that ends the run as (kind, where): where is the fraction of the step
    at which the run stops, or a function of y whose sign change on the
    step refine_event locates as that point.  An event before it (a flagged
    step is still searched) is located by refine_event, counted and passed
    to on_event(t, y), which returns True when it is the detection (without
    on_event, every event is).  Returns the outcome with C, the caller's
    conserved quantity at the seed.  Its diagnostics give the reached time
    t_end (the guard's stop point, if any), what cut the run short of t_out
    (truncation; with reason and detail for a step underflow before any
    detection), then extra.

    A seed tangent is normalized to unit length before integration: every
    monitored quantity is degree-1 homogeneous in the tangent and the
    Lyapunov estimate is a ratio, so outcomes are unchanged while the step
    sequence becomes independent of the seed tangent's magnitude.
    """
    n = len(state)
    y0 = tuple(state) + tuple(tangent)
    if tangent:
        eta0_norm = _tangent_norm(y0, n)
        if eta0_norm <= 0.0:
            raise ValueError("seed tangent must be nonzero")
        inv = 1.0 / eta0_norm
        y0 = y0[:n] + tuple(c * inv for c in y0[n:])
    drv = DopriDriver(field, opts, tangent=len(tangent)).reset(0.0, y0)
    log_accum = 0.0
    n_events = 0
    t_detect = t_end = None  # t_end: drv.t unless the guard stops the run
    status = "timeout"
    detection_done = g_fn is None
    thresh_sq = opts.renorm_threshold * opts.renorm_threshold
    joint = n == len(tangent) == 4  # sums |eta|^2 as the loop below

    def live(y, k=None):
        g, scale, dg = g_fn(y, k)
        return (g if scale > 0.0 and abs(g) > _ARMING_REL * scale else 0.0), g, dg

    def g_value(y):
        return g_fn(y)[0]

    armed = 0
    armed_t, armed_y = 0.0, y0
    if g_fn is not None:
        drv._k1 = field(y0)  # the first step's k1, read here for dg/dt
        g_live, g_prev, d_prev = live(y0, drv._k1)
        armed = (g_live > 0.0) - (g_live < 0.0)

    diagnostics = {"t_end": 0.0}  # first key; set when the run ends
    while drv.t < t_out:
        k0 = drv._k1
        try:
            t0, y_start, t1, y1 = drv.step(t_out)
        except StepUnderflowError as exc:
            # A detection already made is final; the truncation only cuts
            # the Lyapunov accumulation short.
            if status != "fired":
                status = "step-underflow"
                diagnostics.update(reason=status, detail=str(exc))
            diagnostics["truncation"] = "step-underflow"
            break
        start = t0, y_start, k0
        flag = None if guard_fn is None else guard_fn(y_start, y1)
        if flag is not None:
            kind, where = flag
            if callable(where):  # a function of y that changes sign on the step
                t_stop = refine_event(drv, start, (t0, y_start), (t1, y1), where)[0]
            else:  # the fraction of the step
                t_stop = t0 + where * (t1 - t0)
        if not detection_done:
            g_live, g1, d1 = live(y1, drv._k1)
            ends, (g_prev, d_prev) = (g_prev, d_prev, g1, d1), (g1, d1)
            for t, y, g in live_points(drv, t0, y_start, k0, ends, g_live, armed, live):
                if g == 0.0:
                    continue
                if armed * g < 0.0 and not (falling_only and g > 0.0):
                    t_star, y_star = refine_event(
                        drv, start, (armed_t, armed_y), (t, y), g_value
                    )
                    if flag is not None and t_star >= t_stop:
                        break
                    n_events += 1
                    if on_event is None or on_event(t_star, y_star):
                        t_detect = t_star
                        status = "fired"
                        detection_done = True
                        break
                armed = 1 if g > 0.0 else -1
                armed_t, armed_y = t, y
            if detection_done and not want_lyapunov:
                break
        if flag is not None:
            if status != "fired":
                status = kind
            diagnostics["truncation"] = kind
            t_end = t_stop
            break
        if not tangent:
            continue
        if joint:
            _, _, _, _, a, b, c, d = y1
            tn_sq = 0.0 + a * a + b * b + c * c + d * d
        else:
            tn_sq = 0.0
            for c in y1[n:]:
                tn_sq += c * c
        if tn_sq > thresh_sq:
            norm = math.sqrt(tn_sq)
            inv = 1.0 / norm
            y_scaled = y1[:n] + tuple(c * inv for c in y1[n:])
            log_accum += math.log(norm)
            drv.y = y_scaled
            k1 = drv._k1
            if k1 is not None:
                drv._k1 = k1[:n] + tuple(c * inv for c in k1[n:])
            if not detection_done:
                g_prev, d_prev = g_prev * inv, d_prev * inv

    lyap = None
    if want_lyapunov:
        lyap = _final_lyapunov(drv.y, n, log_accum, drv.t)
    diagnostics["t_end"] = drv.t if t_end is None else t_end
    diagnostics.update(extra or {})
    return DetectionOutcome(
        classification=_STATUS_TO_CLASS[status],
        t_detect=t_detect,
        q=None if t_detect is None else t_detect / t_out,
        lyapunov=lyap,
        n_sign_events=n_events,
        C=C,
        diagnostics=diagnostics,
    )


def _tangent_norm(y, n):
    return math.sqrt(sum(c * c for c in y[n:]))


def _final_lyapunov(y_end, n, log_accum, t_end):
    """(removed log norms + log|eta(t_end)|) / t_end; |eta(0)| is 1."""
    if t_end <= 0.0:
        return None
    end_norm = _tangent_norm(y_end, n)
    if end_norm <= 0.0:
        return None
    return (log_accum + math.log(end_norm)) / t_end


def _singular_outcome(s0, mu, reason) -> DetectionOutcome:
    """The SingularSeed outcome; C is NaN when no seed state exists (None)."""
    return DetectionOutcome(
        classification=Classification.SINGULAR_SEED,
        t_detect=None,
        q=None,
        lyapunov=None,
        n_sign_events=0,
        C=math.nan if s0 is None else jacobi_constant(s0, mu),
        diagnostics={"reason": reason},
    )


def _joint_run(s0, mu, cfg, eta0, *, detect, on_event=None, extra=None):
    """monitor_run of the joint system from (s0, eta0) under cfg.

    With detect the g monitor watches for events and the Lyapunov estimate
    follows cfg; without it the run only estimates the Lyapunov exponent.
    """
    return monitor_run(
        joint_field(mu),
        s0,
        eta0,
        cfg.t_out,
        cfg.integrator,
        jacobi_constant(s0, mu),
        g_fn=_g_monitor(mu, cfg.integrator.rel_tol) if detect else None,
        on_event=on_event,
        guard_fn=_make_guard(mu, cfg.integrator),
        want_lyapunov=cfg.compute_lyapunov or not detect,
        extra=extra,
    )


def run_general(
    s0: State,
    mu: float,
    cfg: DetectorConfig,
    eta0: TangentVector | None = None,
) -> DetectionOutcome:
    """General-formulation detection from an arbitrary seed.

    Seeds where the foliation is degenerate are classified SingularSeed.
    g(0) = omega(xi, xi) = 0, so sign tracking arms once |g| first exceeds
    the arming threshold; every refined crossing with lambda(eta) >= 0 is
    counted but not terminal.
    """
    validate_mass_ratio(mu)
    degenerate, reason = foliation.is_degenerate(s0, mu)
    if degenerate:
        return _singular_outcome(s0, mu, reason)
    fol = foliation.evaluate(s0, mu)
    if eta0 is None:
        eta0 = fol.xi
    extra = {}
    if fol.lambda_of_xi <= 1e-10 * fol.xi_norm * fol.xi_norm:
        # xi parallel to V at the seed: nonexistence of transverse tori is
        # automatic there but the lambda test cannot certify it.
        extra["seed_xi_parallel_v"] = True
    qualify = _make_lambda_qualifier(mu)
    return _joint_run(s0, mu, cfg, eta0, detect=True, on_event=qualify, extra=extra)


def run_symmetric(s0: State, mu: float, cfg: DetectorConfig) -> DetectionOutcome:
    """Symmetric-formulation detection from a symmetry-plane seed.

    The seed tangent is antisymmetric, so any sign change of omega(eta, xi)
    fires without a lambda test.  The only singular seeds are equilibria
    (where no independent antisymmetric tangent exists).
    """
    validate_mass_ratio(mu)
    try:
        eta0 = antisymmetric_tangent(s0, mu)
    except foliation.SingularPointError:
        return _singular_outcome(s0, mu, "equilibrium")
    return _joint_run(s0, mu, cfg, eta0, detect=True)


def run_both(s0: State, mu: float, cfg: DetectorConfig) -> DetectionOutcome:
    """Run both formulations; nonexistence if either fires (earliest time)."""
    return combine_both(run_general(s0, mu, cfg), run_symmetric(s0, mu, cfg))


def combine_both(gen: DetectionOutcome, sym: DetectionOutcome) -> DetectionOutcome:
    """The `both` outcome of one seed (run_both's and the scan's).

    The earliest firing wins; without one, a seed singular for the general
    formulation alone keeps the symmetric outcome, so `both` never reports
    less than either formulation.  The diagnostics record both outcomes.
    """
    fired = [o for o in (sym, gen) if o.classification is Classification.NONEXISTENCE]
    diag = {
        "general": gen.classification.value,
        "symmetric": sym.classification.value,
        "t_detect_general": gen.t_detect,
        "t_detect_symmetric": sym.t_detect,
    }
    if gen.classification is Classification.SINGULAR_SEED:
        diag["general_reason"] = gen.diagnostics["reason"]
    if fired:
        base = min(fired, key=lambda o: o.t_detect)
    else:
        base = sym if gen.classification is Classification.SINGULAR_SEED else gen
    return replace(base, diagnostics={**base.diagnostics, **diag})


def lyapunov_estimate(
    s0: State,
    mu: float,
    cfg: DetectorConfig,
    eta0: TangentVector | None = None,
) -> DetectionOutcome:
    """Finite-time Lyapunov estimate from the evolved foliation tangent.

    Lambda = (sum of removed log norms + log|eta(t_end)| - log|eta(0)|) /
    t_end with eta(0) = xi(seed).  Collision or escape truncation is
    reported through the classification and reached time in diagnostics.
    """
    validate_mass_ratio(mu)
    degenerate, reason = foliation.is_degenerate(s0, mu)
    if degenerate:
        return _singular_outcome(s0, mu, reason)
    if eta0 is None:
        eta0 = foliation.evaluate(s0, mu).xi
    return _joint_run(s0, mu, cfg, eta0, detect=False)


def run(s0: State, mu: float, cfg: DetectorConfig) -> DetectionOutcome:
    """Dispatch a detection run on the configured formulation."""
    if cfg.formulation is Formulation.GENERAL:
        return run_general(s0, mu, cfg)
    if cfg.formulation is Formulation.SYMMETRIC:
        return run_symmetric(s0, mu, cfg)
    return run_both(s0, mu, cfg)
