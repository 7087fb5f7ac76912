"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy scans use every available core; on a
two-core machine the whole module takes about two minutes.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from toruscan.detector import (
    Classification,
    DetectorConfig,
    Formulation,
    run_general,
    run_symmetric,
)
from toruscan.dynamics import (
    State,
    TangentVector,
    effective_potential,
    flow_field,
    jacobi_constant,
    joint_field,
)
from toruscan.foliation import Plane, evaluate
from toruscan.integrate import DopriDriver, IntegratorOptions
from toruscan.output import scan_csv_text
from toruscan.pendulum import pendulum_detect, pendulum_energy
from toruscan.scan import PlaneSeedSpec, plane_point, run_scan
from toruscan.unperturbed import crossing_boundary

pytestmark = pytest.mark.slow

WORKERS = max(1, os.cpu_count() or 1)


def report(num, name, ok, detail):
    print(f"\ncriterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- shared heavy scans (computed once) ---

_REFERENCE_SPEC = PlaneSeedSpec(Plane.THETA0, 0.1, 4.0, 100, -2.5, 2.5, 100, 0.1)
_scan_cache = {}


def reference_scan(formulation):
    if formulation not in _scan_cache:
        cfg = DetectorConfig(t_out=40.0, formulation=formulation)
        t0 = time.perf_counter()
        res = run_scan(_REFERENCE_SPEC, cfg, workers=WORKERS)
        res.metadata["wall_s"] = time.perf_counter() - t0
        _scan_cache[formulation] = res
    return _scan_cache[formulation]


# --- criterion 1: pendulum oracle ---


def test_criterion_01_pendulum_oracle():
    t0 = time.perf_counter()
    opts = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-10, h_max=0.5)
    wrong = []
    for p0 in np.linspace(0.1, 3.0, 300):
        h = pendulum_energy(0.0, float(p0))
        if abs(h - 1.0) <= 0.01:
            continue
        out = pendulum_detect(0.0, float(p0), t_out=200.0, opts=opts)
        expect = (
            Classification.NONEXISTENCE if h < 0.99 else Classification.UNDETERMINED
        )
        if out.classification is not expect:
            wrong.append((float(p0), h, out.classification.value))
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 10.0
    assert report(
        1,
        "pendulum oracle",
        ok,
        f"300 seeds, 0 misclassified below H=0.99 / above H=1.01, "
        f"runtime {elapsed:.1f} s (< 10 s)" if ok else f"wrong={wrong[:4]} elapsed={elapsed:.1f}",
    )


# --- criterion 2: no false positives at mu = 0 ---

# 1e-8 keeps conserved quantities to ~1e-7 over t = 40, orders of magnitude
# below the O(0.1) margins of the sign tests, at 2.5x the throughput of the
# default tolerances.
_C2_CFG = DetectorConfig(
    t_out=40.0, integrator=IntegratorOptions(rel_tol=1e-8, abs_tol=1e-10)
)


def _c2_cell(args):
    r, L = args
    s = plane_point(Plane.THETA0, r, L, 0.0)
    gen = run_general(s, 0.0, _C2_CFG).classification
    sym = run_symmetric(s, 0.0, _C2_CFG).classification
    return r, L, gen.value, sym.value


def test_criterion_02_no_false_positives_unperturbed():
    # Radii start at 0.55: the tiny inner tori are an order of magnitude
    # more expensive to integrate (orbital frequency ~ a^{-3/2}) without
    # adding coverage of a different regime.
    t0 = time.perf_counter()
    spec = PlaneSeedSpec(Plane.THETA0, 0.55, 3.05, 50, -1.9, 1.9, 50, 0.0)
    # Euclidean distance in (r, L) to the circular-orbit curve r = L^2.
    ts = np.linspace(-2.0, 2.0, 4001)
    parabola = np.stack([ts * ts, ts], axis=1)
    eligible = []
    for r in spec.r_values():
        for L in spec.L_values():
            s = plane_point(Plane.THETA0, r, L, 0.0)
            C = jacobi_constant(s, 0.0)
            if not (2.0 * L < C < 2.0 * L + 1.0 / (L * L) if L != 0.0 else False):
                continue
            d = np.min(np.hypot(parabola[:, 0] - r, parabola[:, 1] - L))
            if d > 0.05:
                eligible.append((r, L))
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_c2_cell, eligible, chunksize=32))
    false_pos = [
        (r, L, g, s)
        for r, L, g, s in results
        if g == "Nonexistence" or s == "Nonexistence"
    ]
    elapsed = time.perf_counter() - t0
    ok = not false_pos and elapsed < 120.0
    assert report(
        2,
        "integrable case has zero false positives",
        ok,
        f"{len(eligible)} torus seeds x 2 formulations, 0 Nonexistence, "
        f"runtime {elapsed:.0f} s (< 120 s)" if ok else f"false={false_pos[:4]} elapsed={elapsed:.0f}",
    )


# --- criterion 3: Jacobi conservation over t = 120 ---

_C3_OPTS = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, escape_radius=50.0)


def _c3_seed(args):
    r, L = args
    mu = 0.1
    s = plane_point(Plane.THETA0, r, L, mu)
    c0 = jacobi_constant(s, mu)
    drv = DopriDriver(flow_field(mu), _C3_OPTS).reset(0.0, tuple(s))
    while drv.t < 120.0:
        drv.step(120.0)
        x, y = drv.y[0], drv.y[1]
        if min(math.hypot(x + mu, y), math.hypot(x - 1 + mu, y)) < 0.15:
            return None
    c1 = jacobi_constant(State(*drv.y), mu)
    return abs(c1 - c0) / max(1.0, abs(c0))


def test_criterion_03_jacobi_conservation():
    rng = np.random.default_rng(31)
    drifts = []
    batch = []
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        while len(drifts) < 100:
            while len(batch) < 100 - len(drifts):
                r = float(rng.uniform(1.3, 2.6))
                rm = float(rng.uniform(1.2, r))
                L = math.sqrt(2.0 * r * rm / (r + rm))
                batch.append((r, L))
            for d in pool.map(_c3_seed, batch, chunksize=8):
                if d is not None:
                    drifts.append(d)
            batch = []
    worst = max(drifts[:100])
    ok = worst <= 1e-9
    assert report(
        3,
        "Jacobi constant conservation",
        ok,
        f"100 seeds over t = 120: max relative drift {worst:.2e} (<= 1e-9)",
    )


# --- criterion 4: Jacobian correctness ---


def test_criterion_04_jacobian_matches_finite_differences():
    # Column k of DV is the joint field's tangent block at eta = e_k, which
    # is linear in eta: the Jacobian the detector integrates.
    rng = np.random.default_rng(41)
    h = 1e-5
    worst = 0.0
    n_checked = 0
    unit = np.eye(4)
    for mu in (0.0, 0.01, 0.1, 0.3):
        joint, flow = joint_field(mu), flow_field(mu)
        count = 0
        while count < 250:
            r = rng.uniform(0.3, 2.8)
            th = rng.uniform(0.0, 2.0 * np.pi)
            x, y = r * np.cos(th), r * np.sin(th)
            if math.hypot(x + mu, y) < 0.1 or math.hypot(x - 1 + mu, y) < 0.1:
                continue
            vx, vy = rng.uniform(-1.2, 1.2, 2)
            s = (float(x), float(y), float(vx), float(vy))
            count += 1
            n_checked += 1
            jac = np.empty((4, 4))
            fd = np.empty((4, 4))
            for k in range(4):
                jac[:, k] = joint(s + tuple(unit[k]))[4:]
                sp, sm = list(s), list(s)
                sp[k] += h
                sm[k] -= h
                diff = np.array(flow(tuple(sp))) - np.array(flow(tuple(sm)))
                fd[:, k] = diff / (2 * h)
            worst = max(worst, np.abs(jac - fd).max() / max(1.0, np.abs(jac).max()))
    ok = worst < 1e-6 and n_checked == 1000
    assert report(
        4,
        "integrated Jacobian vs central differences",
        ok,
        f"1000 states, 4 mass ratios: max relative error {worst:.2e} (< 1e-6)",
    )


# --- criteria 5 and 6: reference scan pattern and formulation comparison ---


def test_criterion_05_reference_scan_pattern():
    res = reference_scan(Formulation.GENERAL)
    rv, lv = _REFERENCE_SPEC.r_values(), _REFERENCE_SPEC.L_values()
    region_tot = region_red = strip_tot = strip_red = 0
    for i, r in enumerate(rv):
        for j, L in enumerate(lv):
            out = res.cells[i][j]
            if r >= 1.05 and L * L < crossing_boundary(r):
                if out.classification is not Classification.SINGULAR_SEED:
                    region_tot += 1
                    if out.classification is Classification.NONEXISTENCE:
                        region_red += 1
            if abs(r - 1.0) < 0.1:
                strip_tot += 1
                if out.classification is Classification.NONEXISTENCE:
                    strip_red += 1
    frac_region = region_red / region_tot
    frac_strip = strip_red / strip_tot
    wall = res.metadata["wall_s"]
    ok = frac_region >= 0.60 and frac_strip >= 0.80 and wall < 900.0
    assert report(
        5,
        "reference scan pattern",
        ok,
        f"crossing region {frac_region:.1%} red (>= 60%), "
        f"strip |r-1|<0.1 {frac_strip:.1%} red (>= 80%), "
        f"runtime {wall:.0f} s (target < 900 s)",
    )


def test_criterion_06_symmetric_finds_at_least_as_many():
    gen = reference_scan(Formulation.GENERAL)
    sym = reference_scan(Formulation.SYMMETRIC)
    n_gen = gen.metadata["counts"].get("Nonexistence", 0)
    n_sym = sym.metadata["counts"].get("Nonexistence", 0)
    ok = n_sym >= n_gen
    assert report(
        6,
        "symmetric >= general",
        ok,
        f"Nonexistence cells: symmetric {n_sym} vs general {n_gen}",
    )


# --- criterion 7: timeout nesting ---


def test_criterion_07_timeout_nesting():
    spec = PlaneSeedSpec(Plane.THETA0, 1.0, 4.0, 60, 0.0, 2.5, 60, 0.1)
    reds = {}
    for t_out in (40.0, 80.0, 120.0):
        res = run_scan(spec, DetectorConfig(t_out=t_out), workers=WORKERS)
        reds[t_out] = {
            (i, j)
            for i in range(spec.n_r)
            for j in range(spec.n_L)
            if res.cells[i][j].classification is Classification.NONEXISTENCE
        }
    nested = reds[40.0] <= reds[80.0] <= reds[120.0]
    inc1 = len(reds[80.0] - reds[40.0])
    inc2 = len(reds[120.0] - reds[80.0])
    ok = nested and inc2 < inc1
    assert report(
        7,
        "timeout nesting",
        ok,
        f"|red| = {len(reds[40.0])} < {len(reds[80.0])} < {len(reds[120.0])}, "
        f"nested={nested}, increments {inc1} -> {inc2} (shrinking)",
    )


# --- criterion 8: symmetric beats general on the C ~ 3.7 level ---


def test_criterion_08_symmetric_faster_on_reference_level():
    mu, C = 0.3, 3.7
    cfg = DetectorConfig(t_out=40.0)
    found = None
    tried = 0
    for i in range(56):
        r = 0.52 + 0.045 * i
        if abs(r - (1.0 - mu)) < 5e-3:
            continue
        w = -C - 2.0 * effective_potential(r, 0.0, mu)
        if w < 0.0:
            continue
        for sgn in (1.0, -1.0):
            L = r * r + sgn * r * math.sqrt(w)
            s = plane_point(Plane.THETA0, r, L, mu)
            tried += 1
            gen = run_general(s, mu, cfg)
            sym = run_symmetric(s, mu, cfg)
            if (
                gen.classification is Classification.NONEXISTENCE
                and sym.classification is Classification.NONEXISTENCE
                and sym.t_detect < gen.t_detect
            ):
                found = (r, L, sym.t_detect, gen.t_detect)
                break
        if found:
            break
    ok = found is not None
    detail = (
        f"seed r={found[0]:.3f}, L={found[1]:.4f}: t_sym={found[2]:.3f} < "
        f"t_gen={found[3]:.3f} (after {tried} seeds)"
        if found
        else f"no qualifying seed among {tried}"
    )
    assert report(8, "symmetric faster at C ~ 3.7", ok, detail)


# --- criterion 9: homogeneity and renormalization invariance ---


def test_criterion_09_homogeneity_and_renormalization():
    mu = 0.1
    seeds = [
        plane_point(Plane.THETA0, 1.5, 0.5, mu),
        plane_point(Plane.THETA0, 1.0945, -0.3, mu),
        plane_point(Plane.THETA0, 2.2, 0.9, mu),
    ]
    worst = 0.0
    for s in seeds:
        base = run_general(s, mu, DetectorConfig(t_out=40.0))
        if base.classification is not Classification.NONEXISTENCE:
            continue
        xi = evaluate(s, mu).xi
        scaled = run_general(
            s,
            mu,
            DetectorConfig(t_out=40.0),
            eta0=TangentVector(*(1e3 * c for c in xi)),
        )
        worst = max(worst, abs(scaled.t_detect - base.t_detect))
        for thresh in (1e3, 1e6):
            out = run_general(
                s,
                mu,
                DetectorConfig(
                    t_out=40.0, integrator=IntegratorOptions(renorm_threshold=thresh)
                ),
            )
            worst = max(worst, abs(out.t_detect - base.t_detect))
    ok = worst < 1e-6
    assert report(
        9,
        "homogeneity / renormalization invariance",
        ok,
        f"max detection-time deviation {worst:.2e} (< 1e-6)",
    )


# --- criterion 10: determinism ---


def test_criterion_10_determinism():
    spec = PlaneSeedSpec(Plane.THETA0, 0.5, 3.0, 8, -1.5, 1.5, 8, 0.1)
    cfg = DetectorConfig(t_out=5.0)
    seq = run_scan(spec, cfg, workers=1)
    par = run_scan(spec, cfg, workers=WORKERS)
    grids_equal = all(
        seq.cells[i][j].classification is par.cells[i][j].classification
        and seq.cells[i][j].t_detect == par.cells[i][j].t_detect
        for i in range(8)
        for j in range(8)
    )
    fixed_cfg = DetectorConfig(
        t_out=5.0, integrator=IntegratorOptions(fixed_step=True, h_init=0.02)
    )
    csv_1 = scan_csv_text(run_scan(spec, fixed_cfg, workers=1))
    csv_n = scan_csv_text(run_scan(spec, fixed_cfg, workers=WORKERS))
    csv_again = scan_csv_text(run_scan(spec, fixed_cfg, workers=1))
    bytes_equal = csv_1 == csv_n == csv_again
    ok = grids_equal and bytes_equal
    assert report(
        10,
        "determinism across worker counts",
        ok,
        f"adaptive grids equal: {grids_equal}; fixed-step CSV byte-identical: "
        f"{bytes_equal}",
    )


# --- criterion 11: Lyapunov comparison ---


def test_criterion_11_lyapunov_consistency():
    spec = PlaneSeedSpec(Plane.THETA0, 0.3, 3.5, 40, -2.2, 2.2, 40, 0.1)
    cfg = DetectorConfig(t_out=40.0, compute_lyapunov=True)
    res = run_scan(spec, cfg, workers=WORKERS)
    rv = spec.r_values()
    strip, far = [], []
    for i, r in enumerate(rv):
        for j in range(spec.n_L):
            out = res.cells[i][j]
            if out.lyapunov is None:
                continue
            if abs(r - 1.0) < 0.1 and out.classification is Classification.NONEXISTENCE:
                strip.append(out.lyapunov)
            elif r > 2.5 and out.classification is Classification.UNDETERMINED:
                far.append(out.lyapunov)
    med_strip = float(np.median(strip))
    med_far = float(np.median(far))
    ok = len(strip) > 10 and len(far) > 10 and med_strip > med_far
    assert report(
        11,
        "Lyapunov estimate agrees with detections",
        ok,
        f"median Lambda: strip r~1 ({len(strip)} cells) {med_strip:.3f} > "
        f"far undetermined ({len(far)} cells) {med_far:.3f}",
    )
