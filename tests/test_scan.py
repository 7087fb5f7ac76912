import math
import warnings

import pytest

import toruscan.scan as scan
from toruscan.detector import Classification, DetectorConfig, Formulation, run_both
from toruscan.dynamics import State, angular_momentum
from toruscan.foliation import Plane
from toruscan.integrate import IntegratorOptions
from toruscan.scan import (
    PlaneSeedSpec,
    _classify_cell,
    assemble_overlays,
    plane_point,
    run_scan,
)
from toruscan.dynamics import jacobi_constant

from oracles import lagrange_points, torus_region_contains


class TestPlanePoint:
    def test_unit_circular_seed(self):
        assert plane_point(Plane.THETA0, 1.0, 1.0, 0.2) == State(1.0, 0.0, 0.0, 0.0)

    def test_construction_inverse(self, rng):
        for _ in range(20):
            r = float(rng.uniform(0.2, 3.5))
            L = float(rng.uniform(-2.0, 2.0))
            for plane in Plane:
                try:
                    s = plane_point(plane, r, L, 0.1)
                except ValueError:
                    continue
                assert angular_momentum(s) == pytest.approx(L, abs=1e-12)
                assert s.y == 0.0 and s.vx == 0.0
                assert math.hypot(s.x, s.y) == pytest.approx(r)

    def test_negative_plane_fixed_point(self):
        s = plane_point(Plane.THETA_PI, 1.0, 1.0, 0.1)
        assert s == State(-1.0, 0.0, 0.0, 0.0)

    def test_rejects_body_coincidence(self):
        with pytest.raises(ValueError):
            plane_point(Plane.THETA0, 0.9, 0.5, 0.1)
        with pytest.raises(ValueError):
            plane_point(Plane.THETA_PI, 0.1, 0.5, 0.1)


class TestSpec:
    def test_cell_centres(self):
        spec = PlaneSeedSpec(Plane.THETA0, 1.0, 2.0, 4, -1.0, 1.0, 2, 0.1)
        assert spec.r_values() == pytest.approx([1.125, 1.375, 1.625, 1.875])
        assert spec.L_values() == pytest.approx([-0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneSeedSpec(Plane.THETA0, -1.0, 2.0, 4, -1.0, 1.0, 4, 0.1)
        with pytest.raises(ValueError):
            PlaneSeedSpec(Plane.THETA0, 1.0, 2.0, 1, -1.0, 1.0, 4, 0.1)


class TestRunScan:
    def test_unperturbed_torus_cells_never_fire(self):
        spec = PlaneSeedSpec(Plane.THETA0, 1.1, 2.3, 7, 0.85, 1.35, 7, 0.0)
        res = run_scan(spec, DetectorConfig(t_out=15.0))
        for i, r in enumerate(spec.r_values()):
            for j, L in enumerate(spec.L_values()):
                out = res.cells[i][j]
                if (
                    torus_region_contains(L, out.C)
                    and abs(r - L * L) > 0.05
                    and out.classification is not Classification.SINGULAR_SEED
                ):
                    assert out.classification is Classification.UNDETERMINED

    def test_deterministic_across_worker_counts(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.5, 3.0, 6, -1.5, 1.5, 6, 0.1)
        cfg = DetectorConfig(t_out=5.0)
        calls = {1: [], 2: []}
        seq = run_scan(spec, cfg, workers=1, progress=lambda *a: calls[1].append(a))
        par = run_scan(spec, cfg, workers=2, progress=lambda *a: calls[2].append(a))
        assert calls[1] == calls[2] == [(k, 6) for k in range(1, 7)]
        for i in range(6):
            for j in range(6):
                a, b = seq.cells[i][j], par.cells[i][j]
                assert a.classification is b.classification
                assert a.t_detect == b.t_detect
                assert a.C == b.C

    def test_singular_cells_follow_formulation(self):
        mu = 0.1
        x1 = lagrange_points(mu)[0][0]
        # Odd counts put the middle cell centre exactly on the eta-singular
        # point (x_L1, x_L1^2), where the flow vanishes.
        spec = PlaneSeedSpec(
            Plane.THETA0, x1 - 0.15, x1 + 0.15, 3, x1 * x1 - 0.15, x1 * x1 + 0.15, 3, mu
        )
        sym = run_scan(
            spec, DetectorConfig(t_out=2.0, formulation=Formulation.SYMMETRIC)
        )
        reasons = {
            out.diagnostics.get("reason")
            for row in sym.cells
            for out in row
            if out.classification is Classification.SINGULAR_SEED
        }
        assert "equilibrium" in reasons
        # General formulation on a grid straddling the singularity curve.
        spec2 = PlaneSeedSpec(Plane.THETA0, 1.05, 1.6, 12, 1.1, 1.6, 12, 0.0)
        gen = run_scan(spec2, DetectorConfig(t_out=2.0))
        gen_reasons = {
            out.diagnostics.get("reason")
            for row in gen.cells
            for out in row
            if out.classification is Classification.SINGULAR_SEED
        }
        assert {"xi-singularity-curve", "parallel-gradients"} & gen_reasons

    def test_per_cell_metadata_counts(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.5, 3.0, 5, -1.5, 1.5, 5, 0.1)
        res = run_scan(spec, DetectorConfig(t_out=3.0))
        assert sum(res.metadata["counts"].values()) == 25
        assert res.metadata["mu"] == 0.1
        assert res.metadata["t_out"] == 3.0

    def test_detector_exception_stays_in_its_cell(self, monkeypatch):
        spec = PlaneSeedSpec(Plane.THETA0, 0.5, 3.0, 4, -1.5, 1.5, 4, 0.1)
        cfg = DetectorConfig(t_out=2.0)
        ref = run_scan(spec, cfg)
        assert ref.cells[1][2].classification is not Classification.SINGULAR_SEED
        bad = plane_point(Plane.THETA0, spec.r_values()[1], spec.L_values()[2], 0.1)
        real = scan.run_detector

        def flaky(seed, mu, cfg):
            if seed == bad:
                raise RuntimeError("injected failure")
            return real(seed, mu, cfg)

        monkeypatch.setattr(scan, "run_detector", flaky)
        res = run_scan(spec, cfg)
        for i in range(4):
            for j in range(4):
                out, want = res.cells[i][j], ref.cells[i][j]
                if (i, j) == (1, 2):
                    assert out.classification is Classification.SINGULAR_SEED
                    assert out.diagnostics["reason"] == "error"
                    assert "injected failure" in out.diagnostics["detail"]
                    assert out.C == want.C
                else:
                    assert out == want

    def test_negative_plane_matches_mirrored_positive_plane(self):
        # Scanning the negative-x plane at mu equals scanning the
        # positive-x plane at 1 - mu, cell by cell (0.25/0.75 is an exact
        # float pair).
        mu = 0.25
        cfg = DetectorConfig(t_out=12.0)
        kw = dict(r_min=1.05, r_max=2.65, n_r=20, L_min=0.7, L_max=2.1, n_L=20)
        a = run_scan(PlaneSeedSpec(plane=Plane.THETA_PI, mu=mu, **kw), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = run_scan(PlaneSeedSpec(plane=Plane.THETA0, mu=1.0 - mu, **kw), cfg)
        for i in range(20):
            for j in range(20):
                assert (
                    a.cells[i][j].classification is b.cells[i][j].classification
                )


class TestMirrorSymmetry:
    """Rotation by pi maps the system at mu to the system at 1 - mu, so a
    scan of the negative-x plane at mu = 0.1 equals a scan of the positive-x
    plane at 0.9 (its mirrored system, which warns), cell by cell.  0.1 and
    0.9 are not an exact float pair (1 - 0.9 != 0.1), so the located times
    agree to a tolerance, not bit for bit."""

    SPEC = dict(r_min=0.1, r_max=4.0, n_r=12, L_min=-2.5, L_max=2.5, n_L=12)

    @pytest.mark.parametrize(
        "formulation", [Formulation.GENERAL, Formulation.SYMMETRIC], ids=str.lower
    )
    def test_thetapi_scan_equals_theta0_scan_of_the_mirrored_system(self, formulation):
        cfg = DetectorConfig(t_out=10.0, formulation=formulation)
        a = run_scan(PlaneSeedSpec(plane=Plane.THETA_PI, mu=0.1, **self.SPEC), cfg)
        with pytest.warns(UserWarning, match="mirrored system"):
            b = run_scan(PlaneSeedSpec(plane=Plane.THETA0, mu=0.9, **self.SPEC), cfg)
        fired = 0
        for row_a, row_b in zip(a.cells, b.cells):
            for out_a, out_b in zip(row_a, row_b):
                assert out_a.classification is out_b.classification
                if out_a.t_detect is None:
                    assert out_b.t_detect is None
                    continue
                fired += 1
                scale = max(1.0, out_a.t_detect)
                assert abs(out_a.t_detect - out_b.t_detect) <= 1e-8 * scale
        assert fired > 10


class TestBothFormulation:
    """`both` never finds less than either formulation alone."""

    @staticmethod
    def _nonexistence(spec, t_out, formulation):
        res = run_scan(spec, DetectorConfig(t_out=t_out, formulation=formulation))
        return res, {
            (i, j)
            for i, row in enumerate(res.cells)
            for j, out in enumerate(row)
            if out.classification is Classification.NONEXISTENCE
        }

    def test_general_singular_cells_keep_symmetric_detection(self):
        # Cells (4, 9) and (10, 10) of the 12 x 12 grid are parallel-gradient
        # points for the general formulation; symmetric fires on both.
        spec = PlaneSeedSpec(Plane.THETA0, 0.1, 4.0, 12, -2.5, 2.5, 12, 0.1)
        r, L = spec.r_values(), spec.L_values()
        cfg = DetectorConfig(t_out=40.0, formulation=Formulation.BOTH)
        for (i, j), t_sym in (((4, 9), 2.83), ((10, 10), 22.1)):
            out = _classify_cell(spec, cfg, 1e-3, r[i], L[j])
            assert out.classification is Classification.NONEXISTENCE
            assert out.t_detect == pytest.approx(t_sym, abs=0.01)
            assert out.diagnostics["general"] == "SingularSeed"
            assert out.diagnostics["general_reason"] == "parallel-gradients"

    def test_general_singular_cell_has_the_shape_of_run_both(self):
        # A circular mu = 0 orbit (r = L^2): the scan finds it on the xi
        # singularity curve, run_both finds parallel gradients; both keep
        # the symmetric outcome and describe it with the same keys.
        spec = PlaneSeedSpec(Plane.THETA0, 1.0, 2.0, 2, 0.5, 1.5, 2, 0.0)
        cfg = DetectorConfig(t_out=10.0, formulation=Formulation.BOTH)
        cell = _classify_cell(spec, cfg, 1e-3, 1.44, 1.2)
        direct = run_both(plane_point(Plane.THETA0, 1.44, 1.2, 0.0), 0.0, cfg)
        assert cell.diagnostics.keys() == direct.diagnostics.keys()
        assert cell.classification is direct.classification
        assert cell.t_detect == direct.t_detect
        assert cell.diagnostics["general"] == "SingularSeed"
        assert cell.diagnostics["general_reason"] == "xi-singularity-curve"

    def test_both_contains_symmetric_and_general_cell_by_cell(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.1, 4.0, 8, -2.5, 2.5, 8, 0.1)
        _, ne_gen = self._nonexistence(spec, 4.0, Formulation.GENERAL)
        _, ne_sym = self._nonexistence(spec, 4.0, Formulation.SYMMETRIC)
        both, ne_both = self._nonexistence(spec, 4.0, Formulation.BOTH)
        assert ne_both >= ne_sym | ne_gen
        # The grid holds general-singular cells where symmetric fires.
        assert any(
            both.cells[i][j].diagnostics.get("general") == "SingularSeed"
            for i, j in ne_sym
        )


class TestOverlays:
    def test_reference_ratio_family(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.1, 4.0, 10, -2.5, 2.5, 10, 0.1)
        ratios = ((9, 4), (13, 4), (17, 4), (21, 4))
        curves = assemble_overlays(spec, ratios)
        labels = [c.label for c in curves]
        for p, q in ratios:
            assert f"resonance {p}/{q}" in labels
        assert "crossing-boundary(+)" in labels
        assert "escape-boundary(-)" in labels
        assert any(lbl.startswith("xi-singularity(+)") for lbl in labels)

    def test_boundary_curves_satisfy_their_equations(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.5, 4.0, 10, -2.5, 2.5, 10, 0.1)
        curves = {c.label: c for c in assemble_overlays(spec, ())}
        for r, L in curves["crossing-boundary(+)"].points[::50]:
            assert L * L == pytest.approx(2.0 * r / (r + 1.0), rel=1e-12)
        for r, L in curves["escape-boundary(-)"].points[::50]:
            assert L * L == pytest.approx(2.0 * r, rel=1e-12)

    def test_unperturbed_singularity_contour_is_circular_curve(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.2, 3.0, 10, -2.0, 2.0, 10, 0.0)
        curves = [
            c
            for c in assemble_overlays(spec, ())
            if c.label.startswith("xi-singularity")
        ]
        assert curves
        for c in curves:
            for r, L in c.points[::25]:
                assert r == pytest.approx(L * L, rel=1e-10)

    def test_perturbed_contour_splits_at_gap(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.1, 4.0, 10, -2.5, 2.5, 10, 0.1)
        labels = [
            c.label
            for c in assemble_overlays(spec, ())
            if c.label.startswith("xi-singularity(+)")
        ]
        # inner arc (r < ~0.65) and outer branch (r > 0.9)
        assert len(labels) == 2
