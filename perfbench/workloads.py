"""Workload inputs, generated from the workload seed alone.

A run repeats a cycle of rounds, fixed by the seed, until its time is up
and the whole cycle has run at least once; the metrics take, for each
position in the cycle, the median over its repeats and sum them over the
cycle, so that a slow stretch of a shared machine does not decide a run and
where the time ran out does not change the mix.

A scan round is one stride-aligned sub-grid of the 100x100 reference
recipe: every 5th r-column and every 20th L-row (20 x 5 = 100 cells).  The
cycle holds the five r-offsets a = 0..4 once each, with L-offsets
b_a = b_0 + 4a (mod 20) from one offset b_0 drawn from the seed, so a cycle
covers every r-column class of the reference grid and spreads evenly over
its L-rows.  Both scan workloads run the same cycle for the same seed.

A section round is two orbits on the Jacobi level C = 3.8 inside the
primary's Hill region (bounded, since C exceeds C(L1) ~ 3.597), one per sign
of vy.  The cycle has six rounds whose radii are spread by sixths of each
family's range from an offset drawn from the seed; orbit cost grows with
the radius, and the even spread keeps a run's mix alike across seeds.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

SCAN_RECIPE = os.path.join("recipes", "scan_mu01_reference.cfg")
R_STRIDE, L_STRIDE = 5, 20
SCAN_CYCLE = R_STRIDE  # one sub-grid per r-offset
PNG_SCALE = 4
EXCLUSION_TOL = 1e-3

SECTION_MU = 0.1
SECTION_C = 3.8
SECTION_T_OUT = 200.0
SECTION_N_RETURNS = 1000  # above any orbit's count: every orbit runs to t_out
# (sign of vy, r range): both families stay bounded and collision-free.
SECTION_FAMILIES = ((-1.0, 0.12, 0.34), (1.0, 0.12, 0.48))
SECTION_CYCLE = 6

WORKLOADS = {
    "ref-general-w2": ("scan", "general", 2),
    "ref-symmetric-w1": ("scan", "symmetric", 1),
    "section-orbits": ("section", None, 1),
}


@dataclass
class Round:
    argv: list
    prefix: str
    n_seeds: int
    position: int  # place in the cycle; rounds at one position repeat the same work
    seeds: tuple = ()  # section: the (r, L) seeds, in argv order


def read_recipe(path):
    """key = value pairs of a recipe file (# starts a comment)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    return values


class ScanPlan:
    kind = "scan"
    cycle = SCAN_CYCLE
    exclusion_tol, png_scale = EXCLUSION_TOL, PNG_SCALE

    def __init__(self, root, seed, formulation, workers):
        self.recipe_path = os.path.join(root, SCAN_RECIPE)
        rec = read_recipe(self.recipe_path)
        self.mu = float(rec["mu"])
        self.t_out = float(rec["t_out"])
        self.r_min, self.r_max = float(rec["r_min"]), float(rec["r_max"])
        self.L_min, self.L_max = float(rec["L_min"]), float(rec["L_max"])
        self.n_r, self.n_L = int(rec["n_r"]), int(rec["n_L"])
        self.grid = (self.n_r // R_STRIDE, self.n_L // L_STRIDE)
        self.formulation, self.workers = formulation, workers
        b0 = random.Random(f"scan:{seed}").randrange(L_STRIDE)
        self.b = [(b0 + a * L_STRIDE // SCAN_CYCLE) % L_STRIDE for a in range(SCAN_CYCLE)]

    def round(self, k, prefix):
        a = k % SCAN_CYCLE
        b = self.b[a]
        dr = (self.r_max - self.r_min) / self.n_r
        dl = (self.L_max - self.L_min) / self.n_L
        # Cell-centred sub-grid whose centres are the reference centres
        # r_min + (a + R_STRIDE*i + 1/2) dr (and likewise in L).
        r_lo = self.r_min + (a + 0.5 - 0.5 * R_STRIDE) * dr
        l_lo = self.L_min + (b + 0.5 - 0.5 * L_STRIDE) * dl
        n_r, n_L = self.grid
        argv = [
            "scan",
            "--config", self.recipe_path,
            "--r-min", repr(r_lo),
            "--r-max", repr(r_lo + n_r * R_STRIDE * dr),
            "--n-r", str(n_r),
            "--L-min", repr(l_lo),
            "--L-max", repr(l_lo + n_L * L_STRIDE * dl),
            "--n-L", str(n_L),
            "--formulation", self.formulation,
            "--workers", str(self.workers),
            "--exclusion-tol", repr(EXCLUSION_TOL),
            "--png", "--png-scale", str(PNG_SCALE),
            "--no-progress",
            "--out", prefix,
        ]  # fmt: skip
        return Round(argv, prefix, n_r * n_L, a)


def section_seed(sign, r):
    """(r, L) of the plane seed (r, 0, 0, vy) with Jacobi constant SECTION_C."""
    omega = 0.5 * r * r + (1.0 - SECTION_MU) / (r + SECTION_MU) + SECTION_MU / abs(
        r - 1.0 + SECTION_MU
    )
    vy = sign * math.sqrt(2.0 * omega - SECTION_C)
    return r, r * (r + vy)


class SectionPlan:
    kind = "section"
    cycle = SECTION_CYCLE
    mu, t_out = SECTION_MU, SECTION_T_OUT

    def __init__(self, seed):
        rng = random.Random(f"section:{seed}")
        self.u0 = [rng.random() for _ in SECTION_FAMILIES]

    def round(self, k, prefix):
        j = k % SECTION_CYCLE
        seeds = []
        for u0, (sign, lo, hi) in zip(self.u0, SECTION_FAMILIES):
            u = (u0 + j / SECTION_CYCLE) % 1.0
            seeds.append(section_seed(sign, lo + u * (hi - lo)))
        argv = [
            "section",
            "--mu", repr(self.mu),
            "--t-out", repr(self.t_out),
            "--n-returns", str(SECTION_N_RETURNS),
            "--seeds", ",".join(f"{r!r}:{L!r}" for r, L in seeds),
            "--out", prefix,
        ]  # fmt: skip
        return Round(argv, prefix, len(seeds), j, tuple(seeds))


def make_plan(workload, root, seed):
    kind, formulation, workers = WORKLOADS[workload]
    if kind == "scan":
        return ScanPlan(root, seed, formulation, workers)
    return SectionPlan(seed)
