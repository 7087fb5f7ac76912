"""Grid scans of the symmetry planes with per-cell detection outcomes.

Seeds live on the time-reversal symmetry planes (y = 0, vx = 0), which carry
coordinates (r, L): the positive-x plane maps (r, L) to (r, 0, 0, L/r - r)
and the negative-x plane to (-r, 0, 0, -L/r + r).  The grid is uniform and
cell-centred in (r, L).  Cells whose seed sits on a singularity of the
machinery being run are pre-classified SingularSeed: for the general
formulation these are the zeros of the transverse field (the singularity
curve plus parallel-gradient points), for the symmetric formulation only the
equilibria, and under `both` a seed singular for the general formulation
alone runs the symmetric one; cells within the exclusion tolerance of a body
radius are always excluded.

Cells are independent pure computations, so work is fanned out over a
process pool one row per task and merged by index; classifications do not
depend on the worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .detector import (
    Classification,
    DetectionOutcome,
    DetectorConfig,
    Formulation,
    run as run_detector,
)
from .dynamics import (
    State,
    effective_potential,
    validate_mass_ratio,
    vector_field,
)
from .foliation import (
    Plane,
    is_degenerate,
    singularity_curve_distance,
    singularity_function,
)
from .unperturbed import Curve, crossing_boundary, escape_boundary, resonance_curve

__all__ = [
    "PlaneSeedSpec",
    "ScanResult",
    "plane_point",
    "run_scan",
    "q_heatmap",
    "assemble_overlays",
]

Q_UNDETERMINED = -1.0
Q_SINGULAR = -2.0
Q_COLLISION = -3.0
Q_ESCAPE = -4.0


@dataclass(frozen=True)
class PlaneSeedSpec:
    """Cell-centred uniform grid on one symmetry plane."""

    plane: Plane
    r_min: float
    r_max: float
    n_r: int
    L_min: float
    L_max: float
    n_L: int
    mu: float

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.L_min >= self.L_max:
            raise ValueError("need L_min < L_max")
        if self.n_r < 2 or self.n_L < 2:
            raise ValueError("grid counts must be >= 2")

    def r_values(self) -> list[float]:
        dr = (self.r_max - self.r_min) / self.n_r
        return [self.r_min + (i + 0.5) * dr for i in range(self.n_r)]

    def L_values(self) -> list[float]:
        dl = (self.L_max - self.L_min) / self.n_L
        return [self.L_min + (j + 0.5) * dl for j in range(self.n_L)]


@dataclass
class ScanResult:
    """Per-cell outcomes plus overlays and run metadata."""

    spec: PlaneSeedSpec
    cells: list  # cells[i][j] -> DetectionOutcome
    overlays: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def plane_point(plane: Plane, r: float, L: float, mu: float) -> State:
    """Seed state for plane coordinates (r, L); p_r = 0 and L exact."""
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    if plane is Plane.THETA0:
        if mu > 0.0 and abs(r - (1.0 - mu)) < 1e-13:
            raise ValueError(f"seed r = {r} coincides with the secondary")
        return State(r, 0.0, 0.0, L / r - r)
    if mu > 0.0 and abs(r - mu) < 1e-13:
        raise ValueError(f"seed r = {r} coincides with the primary")
    return State(-r, 0.0, 0.0, -L / r + r)


def _plane_body_radii(plane: Plane, mu: float) -> list[float]:
    radii = []
    if plane is Plane.THETA0:
        if mu > 0.0 and 1.0 - mu > 0.0:
            radii.append(1.0 - mu)
        if mu >= 1.0:
            radii.append(0.0)  # secondary at the origin for mu = 1
    else:
        if mu > 0.0 and 1.0 - mu > 0.0:
            radii.append(mu)
    return radii


def _classify_cell(spec, cfg, exclusion_tol, r, L):
    plane, mu = spec.plane, spec.mu
    for rb in _plane_body_radii(plane, mu):
        if abs(r - rb) < exclusion_tol:
            return _singular(plane, r, L, mu, "body-radius")
    try:
        seed = plane_point(plane, r, L, mu)
    except ValueError:
        return _singular(plane, r, L, mu, "body-radius")

    form = cfg.formulation
    general_reason = None
    if form in (Formulation.GENERAL, Formulation.BOTH):
        general_reason = _xi_singularity(seed, r, L, mu, plane, exclusion_tol)
        if general_reason is not None and form is not Formulation.BOTH:
            return _singular(plane, r, L, mu, general_reason)
    if form in (Formulation.SYMMETRIC, Formulation.BOTH):
        v = vector_field(seed, mu)
        if math.sqrt(v.dx**2 + v.dy**2 + v.dvx**2 + v.dvy**2) < exclusion_tol:
            return _singular(plane, r, L, mu, "equilibrium")
    if general_reason is not None:
        # Singular for the general formulation only: `both` still runs the
        # symmetric one, so it never finds less than symmetric alone.
        cfg = replace(cfg, formulation=Formulation.SYMMETRIC)
    try:
        out = run_detector(seed, mu, cfg)
    except Exception as exc:  # per-cell failures never abort the scan
        out = _singular(plane, r, L, mu, "error")
        out.diagnostics["detail"] = repr(exc)
        return out
    if general_reason is not None:
        out.diagnostics.update(
            general=Classification.SINGULAR_SEED.value, general_reason=general_reason
        )
    return out


def _xi_singularity(seed, r, L, mu, plane, exclusion_tol):
    """Why the general formulation cannot seed here, or None if it can."""
    try:
        dist = singularity_curve_distance(r, L, mu, plane)
    except ValueError:
        dist = 0.0
    if dist < exclusion_tol:
        return "xi-singularity-curve"
    degenerate, reason = is_degenerate(seed, mu, tol=exclusion_tol)
    return reason if degenerate else None


def _singular(plane, r, L, mu, reason) -> DetectionOutcome:
    try:
        c = -2.0 * (
            0.5 * (L / r - r) ** 2
            + _plane_potential(plane, r, mu)
        )
    except ValueError:
        c = math.nan
    return DetectionOutcome(
        classification=Classification.SINGULAR_SEED,
        t_detect=None,
        q=None,
        lyapunov=None,
        n_sign_events=0,
        C=c,
        diagnostics={"reason": reason},
    )


def _plane_potential(plane, r, mu):
    x = r if plane is Plane.THETA0 else -r
    return effective_potential(x, 0.0, mu)


def _scan_row(args):
    spec, cfg, exclusion_tol, i = args
    r = spec.r_values()[i]
    return i, [_classify_cell(spec, cfg, exclusion_tol, r, L) for L in spec.L_values()]


def run_scan(
    spec: PlaneSeedSpec,
    cfg: DetectorConfig,
    workers: int = 1,
    exclusion_tol: float = 1e-3,
    progress=None,
) -> ScanResult:
    """Classify every grid cell; deterministic for any worker count.

    Per-cell errors are recorded in the cell rather than aborting the scan.
    """
    validate_mass_ratio(spec.mu)
    t_start = time.perf_counter()
    n_r = spec.n_r
    cells: list = [None] * n_r
    tasks = [(spec, cfg, exclusion_tol, i) for i in range(n_r)]

    def collect(rows):
        for done, (i, row) in enumerate(rows, start=1):
            cells[i] = row
            if progress is not None:
                progress(done, n_r)

    if workers <= 1:
        collect(map(_scan_row, tasks))
    else:
        workers = min(workers, n_r)
        # One row per task: a worker that finishes early takes the next row.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_scan_row, tasks, chunksize=1))
    runtime = time.perf_counter() - t_start
    counts: dict[str, int] = {}
    for row in cells:
        for out in row:
            counts[out.classification.value] = (
                counts.get(out.classification.value, 0) + 1
            )
    metadata = {
        "version": __version__,
        "mu": spec.mu,
        "plane": spec.plane.value,
        "formulation": cfg.formulation.value,
        "t_out": cfg.t_out,
        "workers": workers,
        "exclusion_tol": exclusion_tol,
        "runtime_s": runtime,
        "counts": counts,
    }
    return ScanResult(spec=spec, cells=cells, metadata=metadata)


def q_heatmap(result: ScanResult) -> np.ndarray:
    """q per Nonexistence cell; negative sentinels elsewhere.

    Sentinels: -1 undetermined, -2 singular seed, -3 collision, -4 escape.
    """
    spec = result.spec
    grid = np.empty((spec.n_r, spec.n_L), dtype=float)
    sentinel = {
        Classification.UNDETERMINED: Q_UNDETERMINED,
        Classification.SINGULAR_SEED: Q_SINGULAR,
        Classification.COLLISION: Q_COLLISION,
        Classification.ESCAPE: Q_ESCAPE,
    }
    for i, row in enumerate(result.cells):
        for j, out in enumerate(row):
            if out.classification is Classification.NONEXISTENCE:
                grid[i, j] = out.q
            else:
                grid[i, j] = sentinel[out.classification]
    return grid


def _boundary_curves(label, f_of_r, r_lo, r_hi, n):
    rs = np.linspace(r_lo, r_hi, n)
    upper = Curve(f"{label}(+)")
    lower = Curve(f"{label}(-)")
    for r in rs:
        L = math.sqrt(f_of_r(float(r)))
        upper.points.append((float(r), L))
        lower.points.append((float(r), -L))
    return [upper, lower]


def _singularity_contour(spec: PlaneSeedSpec, n: int) -> list[Curve]:
    """Trace L = +-sqrt(r^3 f(r, 0)) where defined, split at gaps/poles."""
    curves = []
    rs = np.linspace(spec.r_min, spec.r_max, n)
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        run: list = []
        segments = []
        for r in rs:
            r = float(r)
            try:
                l_sq = r**3 * singularity_function(r, 0.0, spec.mu, spec.plane)
            except ValueError:
                l_sq = -1.0
            if l_sq >= 0.0:
                run.append((r, sign * math.sqrt(l_sq)))
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for k, seg in enumerate(segments):
            if len(seg) < 2:
                continue
            suffix = f"#{k + 1}" if len(segments) > 1 else ""
            curves.append(Curve(f"xi-singularity({tag}){suffix}", seg))
    return curves


def assemble_overlays(
    spec: PlaneSeedSpec,
    winding_ratios: tuple = (),
    n: int = 512,
) -> list[Curve]:
    """Overlay curves for a scan: resonances, boundaries, singularity curve."""
    curves = []
    for p, q in winding_ratios:
        curves.append(resonance_curve(p, q, spec.r_min, spec.r_max, n))
    curves.extend(
        _boundary_curves(
            "crossing-boundary", crossing_boundary, spec.r_min, spec.r_max, n
        )
    )
    curves.extend(
        _boundary_curves("escape-boundary", escape_boundary, spec.r_min, spec.r_max, n)
    )
    curves.extend(_singularity_contour(spec, n))
    return curves
