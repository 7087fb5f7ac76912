"""Independent reference for the benchmark's output checks.

Everything here is written from the equations of the planar circular
restricted three-body problem, not from toruscan: rotating-frame velocity
coordinates (x, y, vx, vy), primary (1-mu) at (-mu, 0), secondary (mu) at
(1-mu, 0), effective potential U = -(x^2+y^2)/2 - (1-mu)/r1 - mu/r2 and
Jacobi constant C = -2H = 2*Omega - |v|^2 with Omega = -U.  Trajectories are
integrated with scipy's DOP853, never with toruscan's DOPRI5 integrator.

The reference's accuracy is judged by the reference itself: every quantity
is computed at two tolerances, and their disagreement is the tolerance a
toruscan value must meet.  Where the two disagree by more than SELF_LIMIT
the reference cannot judge, and the item counts as skipped, not passed.
"""

from __future__ import annotations

import math

import numpy as np

# (rtol, atol) pairs: a loose run and a tight run.  The loose run is a
# thousandfold looser than toruscan's default rel_tol 1e-10, so that its
# distance from the tight run bounds toruscan's own error with room to
# spare: at rtol 1e-8 the distance fell below toruscan's error on one long
# (t ~ 37) chaotic detection in about a hundred.
LOOSE = (1e-7, 1e-9)
TIGHT = (1e-12, 1e-14)
SELF_LIMIT = 1e-4  # reference self-disagreement above which it cannot judge
TIME_FLOOR = 1e-9  # absolute floor under the tolerance on an event time
SINGULAR_MARGIN = 1.1  # slack on the tests of singular_reason


def omega_plane(r, mu):
    """Omega(r, 0) = r^2/2 + (1-mu)/|r+mu| + mu/|r-1+mu| on the x-axis."""
    return 0.5 * r * r + (1.0 - mu) / abs(r + mu) + mu / abs(r - 1.0 + mu)


def plane_jacobi(r, L, mu):
    """C of the positive-plane seed (r, 0, 0, L/r - r)."""
    return 2.0 * omega_plane(r, mu) - (L / r - r) ** 2


def jacobi(s, mu):
    x, y, vx, vy = s
    r1 = math.hypot(x + mu, y)
    r2 = math.hypot(x - 1.0 + mu, y)
    return x * x + y * y + 2.0 * (1.0 - mu) / r1 + 2.0 * mu / r2 - vx * vx - vy * vy


def _grad_u(x, y, mu):
    """(Ux, Uy); works on floats and numpy arrays."""
    d1, d2 = x + mu, x - 1.0 + mu
    r1c = (d1 * d1 + y * y) ** 1.5
    r2c = (d2 * d2 + y * y) ** 1.5
    ux = -x + (1.0 - mu) * d1 / r1c + mu * d2 / r2c
    uy = -y + (1.0 - mu) * y / r1c + mu * y / r2c
    return ux, uy


def _hess_u(x, y, mu):
    """(Uxx, Uxy, Uyy)."""
    out = [-1.0, 0.0, -1.0]
    for m, bx in ((1.0 - mu, -mu), (mu, 1.0 - mu)):
        dx = x - bx
        rs = dx * dx + y * y
        r3 = rs**1.5
        r5 = r3 * rs
        out[0] = out[0] + m * (1.0 / r3 - 3.0 * dx * dx / r5)
        out[1] = out[1] - 3.0 * m * dx * y / r5
        out[2] = out[2] + m * (1.0 / r3 - 3.0 * y * y / r5)
    return tuple(out)


def flow(s, mu):
    x, y, vx, vy = s
    ux, uy = _grad_u(x, y, mu)
    return np.array([vx, vy, 2.0 * vy - ux, -2.0 * vx - uy])


def joint(s, mu):
    """Flow plus variational equations on (x, y, vx, vy, ex, ey, evx, evy)."""
    x, y, vx, vy, ex, ey, evx, evy = s
    ux, uy = _grad_u(x, y, mu)
    uxx, uxy, uyy = _hess_u(x, y, mu)
    return np.array(
        [
            vx,
            vy,
            2.0 * vy - ux,
            -2.0 * vx - uy,
            evx,
            evy,
            -uxx * ex - uxy * ey + 2.0 * evy,
            -uxy * ex - uyy * ey - 2.0 * evx,
        ]
    )


def _grad_h(s, mu):
    x, y, vx, vy = s[:4]
    ux, uy = _grad_u(x, y, mu)
    return np.array([ux, uy, vx, vy])


def _grad_l(s):
    x, y, vx, vy = s[:4]
    return np.array([vy + 2.0 * x, -vx + 2.0 * y, -y, x])


def xi(s, mu):
    """xi = grad L - a grad H with a = (grad L . grad H) / |grad H|^2."""
    gh, gl = _grad_h(s, mu), _grad_l(s)
    a = np.sum(gl * gh, axis=0) / np.sum(gh * gh, axis=0)
    return gl - a * gh


def symplectic(u, w):
    """omega(u, w) for omega = dx^dvx + dy^dvy - 2 dx^dy."""
    return u[0] * w[2] - u[2] * w[0] + u[1] * w[3] - u[3] * w[1] - 2.0 * (
        u[0] * w[1] - u[1] * w[0]
    )


def lam(s, mu):
    """lambda(eta) = (grad L - b V) . eta with b = (grad L . V) / |V|^2."""
    v = flow(s[:4], mu)
    gl = _grad_l(s)
    b = np.dot(gl, v) / np.dot(v, v)
    return float(np.dot(gl - b * v, s[4:8]))


def _parallel_gradients(r, L, mu):
    """det of (grad L, grad H) on the plane seed; 0 where xi vanishes.

    At (r, 0, 0, vy) both gradients have only their x and vy components,
    grad H = (Ux, vy) and grad L = (vy + 2r, r), so they are parallel
    exactly where (vy + 2r) vy - r Ux = 0.
    """
    vy = L / r - r
    ux = _grad_u(r, 0.0, mu)[0]
    return (vy + 2.0 * r) * vy - r * ux


def singular_reason(r, L, mu, formulation, exclusion_tol):
    """Why the pre-classification may call the seed (r, L) SingularSeed, or None.

    The seed is singular within exclusion_tol of the secondary (r = 1-mu).
    Under the general formulation it is also singular within exclusion_tol
    (in the (r, L) plane, to first order) of the curve where grad L and
    grad H are parallel, or where |xi| is below exclusion_tol relative to
    |grad L| + |a| |grad H| (nearly parallel gradients), or where |grad H| is
    below exclusion_tol; under the symmetric one where the vector field is
    below it.  Every test gets a factor SINGULAR_MARGIN, since the program's
    own estimates differ from these at second order.
    """
    tol = SINGULAR_MARGIN * exclusion_tol
    if abs(r - (1.0 - mu)) < tol:
        return "secondary"
    s = np.array([r, 0.0, 0.0, L / r - r])
    if formulation == "general":
        f = _parallel_gradients(r, L, mu)
        h = 1e-6
        fr = (_parallel_gradients(r + h, L, mu) - _parallel_gradients(r - h, L, mu)) / (2 * h)
        fl = (_parallel_gradients(r, L + h, mu) - _parallel_gradients(r, L - h, mu)) / (2 * h)
        if abs(f) < tol * math.hypot(fr, fl):
            return "xi-singularity"
        gh, gl = _grad_h(s, mu), _grad_l(s)
        gh_norm = float(np.linalg.norm(gh))
        if gh_norm < tol:
            return "equilibrium"
        a = float(np.dot(gl, gh)) / gh_norm**2
        if np.linalg.norm(xi(s, mu)) < tol * (np.linalg.norm(gl) + abs(a) * gh_norm):
            return "parallel-gradients"
    elif float(np.linalg.norm(flow(s, mu))) < tol:
        return "equilibrium"
    return None


def seed_tangent(r, L, mu, formulation):
    """General: eta = xi.  Symmetric: unit antisymmetric tangent orthogonal to V."""
    s = np.array([r, 0.0, 0.0, L / r - r])
    if formulation == "general":
        return xi(s, mu)
    v = flow(s, mu)  # on the plane V = (0, vy, 2vy - Ux, 0)
    return np.array([0.0, -v[2], v[1], 0.0]) / math.hypot(v[1], v[2])


def _g(y, mu):
    return symplectic(y[4:8], xi(y, mu))


def _solve(fun, y0, t_end, tol, **kw):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        fun,
        (0.0, t_end),
        y0,
        method="DOP853",
        rtol=tol[0],
        atol=tol[1],
        dense_output=True,
        **kw,
    )
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def _roots_near(sol, mu, t_lo, t_hi, t_mid, dt=2e-3, fine=1e-6, fine_half=5e-3):
    """Sign changes of omega(eta, xi) on [t_lo, t_hi], refined on the dense output.

    g is sampled every dt, every fine within fine_half of t_mid, and at the
    solver's own steps: close encounters can put two sign changes a fraction
    of dt apart, and a coarse grid alone would see neither.
    """
    from scipy.optimize import brentq

    ts = np.unique(
        np.concatenate(
            (
                np.linspace(t_lo, t_hi, max(2, int(math.ceil((t_hi - t_lo) / dt)) + 1)),
                np.linspace(
                    max(t_lo, t_mid - fine_half),
                    min(t_hi, t_mid + fine_half),
                    int(2 * fine_half / fine) + 1,
                ),
                sol.t[(sol.t >= t_lo) & (sol.t <= t_hi)],
            )
        )
    )
    g = _g(sol.sol(ts), mu)
    return [
        brentq(lambda t: _g(sol.sol(t), mu), ts[k], ts[k + 1], xtol=1e-14, rtol=1e-15)
        for k in np.nonzero(g[:-1] * g[1:] < 0.0)[0]
    ]


def check_detection(r, L, mu, formulation, t_detect, t_out):
    """Judge one Nonexistence cell: returns ('pass'|'fail'|'skip', detail).

    The reference evolves the seed and its tangent, finds the sign change
    of omega(eta, xi) nearest the reported t_detect at both tolerances and
    requires the reported time within their disagreement; for the general
    formulation lambda(eta) < 0 must hold there.
    """
    y0 = np.concatenate(([r, 0.0, 0.0, L / r - r], seed_tangent(r, L, mu, formulation)))
    t_end = min(t_out, t_detect + 0.25)
    t_lo = max(0.0, t_detect - 0.25)
    found = []
    for tol in (LOOSE, TIGHT):
        sol = _solve(lambda t, y: joint(y, mu), y0, t_end, tol)
        roots = _roots_near(sol, mu, t_lo, t_end, t_detect)
        if not roots:
            return "skip", f"no sign change near t={t_detect!r} at rtol {tol[0]}"
        t_ref = min(roots, key=lambda t: abs(t - t_detect))
        found.append((t_ref, sol.sol(t_ref)))
    (t_a, _), (t_b, y_b) = found
    spread = abs(t_a - t_b)
    if spread > SELF_LIMIT:
        return "skip", f"reference disagrees with itself by {spread:.2e}"
    err = abs(t_detect - t_b)
    if err > max(spread, TIME_FLOOR):
        return "fail", f"t_detect {t_detect!r} vs reference {t_b!r} (tol {spread:.2e})"
    if formulation == "general" and lam(y_b, mu) >= 0.0:
        return "fail", f"lambda(eta) >= 0 at t={t_b!r}"
    return "pass", f"|dt| {err:.2e} <= {max(spread, TIME_FLOOR):.2e}"


def section_crossings(r, L, mu, t_end, tol):
    """Downward crossings of p_r = 0 (dp_r/dt < 0) of one plane seed."""

    def p_r_sign(t, y):
        return y[0] * y[2] + y[1] * y[3]

    p_r_sign.direction = -1.0
    sol = _solve(lambda t, y: flow(y, mu), [r, 0.0, 0.0, L / r - r], t_end, tol, events=p_r_sign)
    # p_r = 0 at the seed itself; that is not a return.
    return [float(t) for t in sol.t_events[0] if t > 1e-6]


def check_section(r, L, mu, horizon, times):
    """Judge one orbit's crossing times up to horizon: (n_pass, n_skip, failures).

    Crossing k is compared while the two reference runs agree on it; from
    the first crossing where they do not, the rest are skipped.  Crossings
    in the last half time unit before the horizon are left out, so that the
    cut cannot split the lists differently.
    """
    cut = horizon - 0.5
    times = [t for t in times if t < cut]
    ref_a, ref_b = (
        [t for t in section_crossings(r, L, mu, horizon, tol) if t < cut] for tol in (LOOSE, TIGHT)
    )
    n_pass, failures = 0, []
    for k in range(max(len(times), len(ref_a), len(ref_b))):
        if k >= len(ref_a) or k >= len(ref_b):
            if len(ref_a) == len(ref_b):
                failures.append(f"crossing {k} at t={times[k]!r} that the reference does not have")
            break
        spread = abs(ref_a[k] - ref_b[k])
        if spread > SELF_LIMIT:
            break
        if k >= len(times):
            failures.append(f"missing crossing {k} at t={ref_b[k]!r}")
            break
        if abs(times[k] - ref_b[k]) > max(spread, TIME_FLOOR):
            failures.append(
                f"crossing {k}: t {times[k]!r} vs reference {ref_b[k]!r} (tol {spread:.2e})"
            )
            break
        n_pass += 1
    return n_pass, len(times) - n_pass - len(failures), failures
