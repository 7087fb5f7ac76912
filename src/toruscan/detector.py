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

Runs are pure functions of (seed, configuration) and safe to execute in
parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from typing import Callable, NamedTuple

from . import foliation
from .dynamics import (
    State,
    TangentVector,
    jacobi_constant,
    joint_field,
    validate_mass_ratio,
    vector_field,
)
from .integrate import (
    DopriDriver,
    IntegratorOptions,
    StepUnderflowError,
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
    "lyapunov_estimate",
]

_PLANE_TOL = 1e-9


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
    """Timeout, formulation and integrator settings for one detection run."""

    t_out: float = 40.0
    formulation: Formulation = Formulation.GENERAL
    integrator: IntegratorOptions = dc_field(default_factory=IntegratorOptions)
    compute_lyapunov: bool = False
    arming_rel: float = 1e-12
    refine_time_tol: float = 1e-11
    degeneracy_tol: float = 1e-8

    def __post_init__(self):
        if self.t_out <= 0.0:
            raise ValueError(f"t_out must be positive, got {self.t_out}")


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


def _make_g_monitor(mu: float) -> Callable[[tuple], tuple[float, float]]:
    """g = omega(eta, xi(s)) and the homogeneity scale |eta||xi|."""
    om = 1.0 - mu

    def g_fn(y):
        x, yy, vx, vy, ex, ey, evx, evy = y
        dx1 = x + mu
        r1s = dx1 * dx1 + yy * yy
        ir13 = 1.0 / (r1s * math.sqrt(r1s))
        ux = -x + om * dx1 * ir13
        uy = -yy + om * yy * ir13
        if mu > 0.0:
            dx2 = x - om
            r2s = dx2 * dx2 + yy * yy
            ir23 = 1.0 / (r2s * math.sqrt(r2s))
            ux += mu * dx2 * ir23
            uy += mu * yy * ir23
        gh2 = ux * ux + uy * uy + vx * vx + vy * vy
        if gh2 < 1e-28:
            return 0.0, 0.0
        glx, gly, glvx, glvy = vy + 2.0 * x, -vx + 2.0 * yy, -yy, x
        a = (glx * ux + gly * uy + glvx * vx + glvy * vy) / gh2
        xix = glx - a * ux
        xiy = gly - a * uy
        xivx = glvx - a * vx
        xivy = glvy - a * vy
        g = (
            ex * xivx
            - evx * xix
            + ey * xivy
            - evy * xiy
            - 2.0 * (ex * xiy - ey * xix)
        )
        scale = math.sqrt(
            (ex * ex + ey * ey + evx * evx + evy * evy)
            * (xix * xix + xiy * xiy + xivx * xivx + xivy * xivy)
        )
        return g, scale

    return g_fn


def _make_lambda_qualifier(mu: float) -> Callable[[tuple], bool]:
    """True iff lambda(eta) < 0 at the supplied joint state."""

    def qualify(y):
        try:
            lam = foliation.evaluate(State(*y[:4]), mu).lambda_coeffs
        except foliation.SingularPointError:
            return False
        return sum(c * e for c, e in zip(lam, y[4:])) < 0.0

    return qualify


def _make_guard(mu: float, opts: IntegratorOptions):
    """Collision / escape guard evaluated on each accepted step.

    Collision checks the full step chord against each massive body so a fast
    close passage inside the collision radius cannot slip between endpoints.
    """
    bodies = []
    if 1.0 - mu > 0.0:
        bodies.append(-mu)
    if mu > 0.0:
        bodies.append(1.0 - mu)
    r_col = opts.collision_radius
    r_esc_sq = opts.escape_radius * opts.escape_radius

    def guard(y0, y1):
        x1, yy1 = y1[0], y1[1]
        if x1 * x1 + yy1 * yy1 > r_esc_sq:
            return "escape"
        x0, yy0 = y0[0], y0[1]
        for bx in bodies:
            wx, wy = x1 - x0, yy1 - yy0
            px, py = bx - x0, -yy0
            w2 = wx * wx + wy * wy
            if w2 > 0.0:
                tt = (px * wx + py * wy) / w2
                if tt < 0.0:
                    tt = 0.0
                elif tt > 1.0:
                    tt = 1.0
            else:
                tt = 0.0
            dx, dy = px - tt * wx, py - tt * wy
            if dx * dx + dy * dy < r_col * r_col:
                return "collision"
        return None

    return guard


class MonitorResult(NamedTuple):
    """How a monitored run ended.

    status is 'fired', 'timeout', 'collision', 'escape' or 'step-underflow';
    truncation names what cut the integration short of t_out after or
    without a detection, and detail carries the step-underflow message.
    """

    status: str
    t_detect: float | None
    n_events: int
    t_end: float
    lyapunov: float | None
    detail: str | None
    truncation: str | None


def _tangent_norm(y, state_dim):
    return math.sqrt(sum(c * c for c in y[state_dim:]))


def monitor_run(
    field,
    y0: tuple,
    t_out: float,
    opts: IntegratorOptions,
    *,
    state_dim: int,
    g_fn=None,
    qualify_fn=None,
    guard_fn=None,
    want_lyapunov: bool = False,
    arming_rel: float = 1e-12,
    refine_time_tol: float = 1e-11,
) -> MonitorResult:
    """Shared detection loop: integrate, watch sign changes, refine, qualify.

    Returns the status, detection time, event count, reached time and the
    Lyapunov estimate when requested.

    The seed tangent is normalized to unit length before integration: every
    monitored quantity is degree-1 homogeneous in the tangent and the
    Lyapunov estimate is a ratio, so outcomes are unchanged while the step
    sequence becomes independent of the seed tangent's magnitude.
    """
    eta0_norm = _tangent_norm(y0, state_dim)
    if state_dim < len(y0):
        if eta0_norm <= 0.0:
            raise ValueError("seed tangent must be nonzero")
        inv = 1.0 / eta0_norm
        y0 = y0[:state_dim] + tuple(c * inv for c in y0[state_dim:])
        eta0_norm = 1.0
    drv = DopriDriver(field, opts).reset(0.0, y0)
    log_accum = 0.0
    n_events = 0
    t_detect = None
    status = "timeout"
    detection_done = g_fn is None
    thresh_sq = opts.renorm_threshold * opts.renorm_threshold

    armed = 0
    armed_t, armed_y = 0.0, y0
    if g_fn is not None:
        g0, scale0 = g_fn(y0)
        if scale0 > 0.0 and abs(g0) > arming_rel * scale0:
            armed = 1 if g0 > 0.0 else -1

    def g_value(y):
        return g_fn(y)[0]

    truncation = detail = None
    while drv.t < t_out:
        try:
            t0, y_start, t1, y1 = drv.step(t_out)
        except StepUnderflowError as exc:
            # A detection already made is final; the truncation only cuts
            # the Lyapunov accumulation short.
            if status != "fired":
                status = "step-underflow"
            truncation, detail = "step-underflow", str(exc)
            break
        if guard_fn is not None:
            flag = guard_fn(y_start, y1)
            if flag is not None:
                if status != "fired":
                    status = flag
                truncation = flag
                break
        if not detection_done:
            g_new, scale_new = g_fn(y1)
            live = scale_new > 0.0 and abs(g_new) > arming_rel * scale_new
            if live and armed != 0 and (g_new > 0.0) != (armed > 0):
                n_events += 1
                t_star, y_star = refine_event(
                    field,
                    opts,
                    armed_t,
                    armed_y,
                    t1,
                    g_value,
                    1.0 * armed,
                    g_new,
                    time_tol=refine_time_tol,
                )
                if qualify_fn is None or qualify_fn(y_star):
                    t_detect = t_star
                    status = "fired"
                    detection_done = True
                    if not want_lyapunov:
                        break
            if live:
                armed = 1 if g_new > 0.0 else -1
                armed_t, armed_y = t1, y1
        if state_dim < len(y1):
            tn_sq = 0.0
            for c in y1[state_dim:]:
                tn_sq += c * c
            if tn_sq > thresh_sq:
                norm = math.sqrt(tn_sq)
                inv = 1.0 / norm
                y_scaled = y1[:state_dim] + tuple(c * inv for c in y1[state_dim:])
                log_accum += math.log(norm)
                drv.y = y_scaled
                k1 = drv._k1
                if k1 is not None:
                    drv._k1 = k1[:state_dim] + tuple(c * inv for c in k1[state_dim:])
                if armed_t == t1:
                    armed_y = y_scaled

    lyap = None
    if want_lyapunov:
        lyap = _final_lyapunov(drv.y, state_dim, log_accum, eta0_norm, drv.t)
    return MonitorResult(status, t_detect, n_events, drv.t, lyap, detail, truncation)


def _final_lyapunov(y_end, state_dim, log_accum, eta0_norm, t_end):
    if t_end <= 0.0 or eta0_norm <= 0.0:
        return None
    end_norm = _tangent_norm(y_end, state_dim)
    if end_norm <= 0.0:
        return None
    return (log_accum + math.log(end_norm) - math.log(eta0_norm)) / t_end


def _singular_outcome(s0, mu, reason) -> DetectionOutcome:
    return DetectionOutcome(
        classification=Classification.SINGULAR_SEED,
        t_detect=None,
        q=None,
        lyapunov=None,
        n_sign_events=0,
        C=jacobi_constant(s0, mu),
        diagnostics={"reason": reason},
    )


_STATUS_TO_CLASS = {
    "fired": Classification.NONEXISTENCE,
    "timeout": Classification.UNDETERMINED,
    "collision": Classification.COLLISION,
    "escape": Classification.ESCAPE,
    # A numerical failure, not a physical outcome: the reason says which.
    "step-underflow": Classification.UNDETERMINED,
}


def _build_outcome(
    raw: MonitorResult, C: float, t_out: float, extra_diag=None
) -> DetectionOutcome:
    classification = _STATUS_TO_CLASS[raw.status]
    q = None
    if classification is Classification.NONEXISTENCE:
        q = raw.t_detect / t_out
    diagnostics = {"t_end": raw.t_end}
    if raw.status == "step-underflow":
        diagnostics["reason"] = "step-underflow"
        diagnostics["detail"] = raw.detail
    if raw.truncation:
        diagnostics["truncation"] = raw.truncation
    if extra_diag:
        diagnostics.update(extra_diag)
    return DetectionOutcome(
        classification=classification,
        t_detect=raw.t_detect,
        q=q,
        lyapunov=raw.lyapunov,
        n_sign_events=raw.n_events,
        C=C,
        diagnostics=diagnostics,
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
    degenerate, reason = foliation.is_degenerate(s0, mu, tol=cfg.degeneracy_tol)
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
    raw = monitor_run(
        joint_field(mu),
        tuple(s0) + tuple(eta0),
        cfg.t_out,
        cfg.integrator,
        state_dim=4,
        g_fn=_make_g_monitor(mu),
        qualify_fn=_make_lambda_qualifier(mu),
        guard_fn=_make_guard(mu, cfg.integrator),
        want_lyapunov=cfg.compute_lyapunov,
        arming_rel=cfg.arming_rel,
        refine_time_tol=cfg.refine_time_tol,
    )
    return _build_outcome(raw, jacobi_constant(s0, mu), cfg.t_out, extra)


def run_symmetric(
    s0: State,
    mu: float,
    cfg: DetectorConfig,
    eta0: TangentVector | None = None,
) -> DetectionOutcome:
    """Symmetric-formulation detection from a symmetry-plane seed.

    The seed tangent is antisymmetric, so any sign change of omega(eta, xi)
    fires without a lambda test.  The only singular seeds are equilibria
    (where no independent antisymmetric tangent exists).
    """
    validate_mass_ratio(mu)
    if eta0 is None:
        try:
            eta0 = antisymmetric_tangent(s0, mu)
        except foliation.SingularPointError:
            return _singular_outcome(s0, mu, "equilibrium")
    raw = monitor_run(
        joint_field(mu),
        tuple(s0) + tuple(eta0),
        cfg.t_out,
        cfg.integrator,
        state_dim=4,
        g_fn=_make_g_monitor(mu),
        qualify_fn=None,
        guard_fn=_make_guard(mu, cfg.integrator),
        want_lyapunov=cfg.compute_lyapunov,
        arming_rel=cfg.arming_rel,
        refine_time_tol=cfg.refine_time_tol,
    )
    return _build_outcome(raw, jacobi_constant(s0, mu), cfg.t_out)


def run_both(s0: State, mu: float, cfg: DetectorConfig) -> DetectionOutcome:
    """Run both formulations; nonexistence if either fires (earliest time)."""
    gen = run_general(s0, mu, cfg)
    sym = run_symmetric(s0, mu, cfg)
    fired = [
        o
        for o in (sym, gen)
        if o.classification is Classification.NONEXISTENCE
    ]
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
        # A seed singular for the general formulation alone keeps the
        # symmetric outcome, so `both` never reports less than symmetric does.
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
    degenerate, reason = foliation.is_degenerate(s0, mu, tol=cfg.degeneracy_tol)
    if degenerate:
        return _singular_outcome(s0, mu, reason)
    if eta0 is None:
        eta0 = foliation.evaluate(s0, mu).xi
    raw = monitor_run(
        joint_field(mu),
        tuple(s0) + tuple(eta0),
        cfg.t_out,
        cfg.integrator,
        state_dim=4,
        g_fn=None,
        guard_fn=_make_guard(mu, cfg.integrator),
        want_lyapunov=True,
        arming_rel=cfg.arming_rel,
    )
    return _build_outcome(raw, jacobi_constant(s0, mu), cfg.t_out)


def run(s0: State, mu: float, cfg: DetectorConfig) -> DetectionOutcome:
    """Dispatch a detection run on the configured formulation."""
    if cfg.formulation is Formulation.GENERAL:
        return run_general(s0, mu, cfg)
    if cfg.formulation is Formulation.SYMMETRIC:
        return run_symmetric(s0, mu, cfg)
    return run_both(s0, mu, cfg)
