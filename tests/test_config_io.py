import json
import math
import os
import re
import struct
import zlib
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from toruscan.config import (
    ConfigError,
    RunConfig,
    computation_config,
    config_hash,
    make_config,
    parse_config,
    provenance,
    serialize_config,
    to_detector_config,
    to_plane_spec,
)
from toruscan.detector import DetectorConfig, Formulation, _singular_outcome
from toruscan.dynamics import validate_mass_ratio
from toruscan.foliation import Plane
from toruscan.integrate import IntegratorOptions
from toruscan.output import (
    curves_csv_text,
    encode_png,
    outcome_to_dict,
    outcomes_json_text,
    scan_csv_text,
    scan_json_text,
    scan_png_bytes,
    section_csv_text,
    write_text_atomic,
)
from toruscan.pendulum import pendulum_detect
from toruscan.scan import PlaneSeedSpec, assemble_overlays, run_scan

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def small_scan(fixed_step=False, workers=1):
    spec = PlaneSeedSpec(Plane.THETA0, 0.5, 3.0, 10, -1.5, 1.5, 10, 0.1)
    integrator = IntegratorOptions(fixed_step=fixed_step, h_init=0.02)
    cfg = DetectorConfig(t_out=3.0, integrator=integrator)
    return run_scan(spec, cfg, workers=workers)


class TestParseAndValidate:
    def test_minimal_scan_config_resolves_defaults(self):
        cfg = parse_config("command = scan\nmu = 0.1\n")
        assert cfg.t_out == 40.0
        assert cfg.formulation == "general"
        assert cfg.n_r == 100 and cfg.n_L == 100
        assert cfg.rel_tol == 1e-10

    def test_negative_timeout_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = scan\nt_out = -4\n")
        assert any("t_out" in m for m in err.value.errors)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = detect\nt_out = inf\nseeds = 1.5:nan\n")
        joined = "\n".join(err.value.errors)
        assert "'t_out'" in joined and "'seeds'" in joined
        with pytest.raises(ConfigError) as err:
            make_config({"rel_tol": float("nan")})
        assert any("rel_tol" in m for m in err.value.errors)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = scan\nbogus = 1\n")
        assert any("unknown key" in m for m in err.value.errors)

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = scan\nbogus = 1\nt_out = -4\nworkers = 0\n")
        joined = "\n".join(err.value.errors)
        assert "bogus" in joined and "t_out" in joined and "workers" in joined

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full line comment\n\ncommand = detect # trailing\nseeds = 1.5:0.5\n")
        assert cfg.command == "detect"
        assert cfg.seeds == ((1.5, 0.5),)

    def test_seed_required_for_detect(self):
        with pytest.raises(ConfigError):
            make_config({"command": "detect"})

    def test_roundtrip_identity(self):
        configs = [
            RunConfig(),
            RunConfig(
                command="detect",
                mu=0.25,
                seeds=((1.5, 0.5), (2.0, -0.3)),
                formulation="symmetric",
                t_out=80.0,
            ),
            RunConfig(
                command="overlays",
                ratios=((9, 4), (2, 1), (-3, 2)),
                coord_mode="rbar",
                bar_m=7.5,
            ),
            RunConfig(command="pendulum", p0_min=0.1, p0_max=3.0, n_p0=300),
        ]
        for cfg in configs:
            assert parse_config(serialize_config(cfg)) == cfg

    def test_hash_stability_and_sensitivity(self):
        a = RunConfig()
        b = RunConfig(t_out=41.0)
        assert config_hash(a) == config_hash(RunConfig())
        assert config_hash(a) != config_hash(b)

    def test_adapters(self):
        cfg = RunConfig(mu=0.2, plane="thetapi", formulation="symmetric", t_out=10.0)
        spec = to_plane_spec(cfg)
        assert spec.plane is Plane.THETA_PI and spec.mu == 0.2
        dcfg = to_detector_config(cfg)
        assert dcfg.formulation is Formulation.SYMMETRIC
        assert dcfg.t_out == 10.0


NAN = float("nan")
GRID = dict(
    plane=Plane.THETA0, mu=0.1, r_min=0.1, r_max=4.0, n_r=100,
    L_min=-2.5, L_max=2.5, n_L=100,
)
INTEGRATOR_KEYS = {f.name for f in dataclass_fields(IntegratorOptions)}


def names(key, messages):
    """The messages that name key as a word."""
    return [m for m in messages if re.search(rf"\b{key}\b", m)]


def owner_door(key, value):
    """Build the settings type that owns key's rule, with key set to value."""
    if key in INTEGRATOR_KEYS:
        return IntegratorOptions(**{key: value})
    if key == "t_out":
        return DetectorConfig(t_out=value)
    if key == "mu":
        return validate_mass_ratio(value)
    return PlaneSeedSpec(**{**GRID, key: value})


# One out-of-range value per key of a rule that a settings type owns; every
# float key is also tried with NaN.
OWNED = [
    ("t_out", -1.0),
    ("rel_tol", 1.5),
    ("abs_tol", -1e-12),
    ("h_init", 1.0),
    ("h_min", 0.0),
    ("h_max", 1e-4),
    ("renorm_threshold", 0.5),
    ("collision_radius", -1.0),
    ("escape_radius", -1.0),
    ("r_min", 5.0),
    ("r_max", 0.05),
    ("L_min", 3.0),
    ("L_max", -3.0),
    ("n_r", 1),
    ("n_L", 0),
    ("mu", 1.5),
]
OWNED_CASES = OWNED + [(k, NAN) for k, v in OWNED if isinstance(v, float)]


class TestOwnedRules:
    """Each rule is stated by the type that consumes the setting, and
    make_config reports it with the key named."""

    @pytest.mark.parametrize("key,value", OWNED_CASES)
    def test_make_config_names_the_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            make_config({key: value})
        assert names(key, err.value.errors), err.value.errors

    @pytest.mark.parametrize("key,value", OWNED_CASES)
    def test_owning_type_raises(self, key, value):
        with pytest.raises(ValueError):
            owner_door(key, value)

    def test_defaults_pass_every_owner(self):
        for key, _ in OWNED:
            owner_door(key, getattr(RunConfig(), key))

    @pytest.mark.parametrize("key", ["exclusion_tol", "bar_m", "p0_min", "p0_max"])
    def test_config_own_rules_refuse_nan(self, key):
        with pytest.raises(ConfigError) as err:
            make_config({key: NAN})
        assert names(key, err.value.errors), err.value.errors

    def test_pendulum_refuses_nan_timeout(self):
        with pytest.raises(ValueError, match="t_out"):
            pendulum_detect(0.0, 0.5, t_out=NAN)

    def test_detector_refuses_infinite_timeout(self):
        # A run on a torus would never end.
        with pytest.raises(ConfigError, match="t_out"):
            DetectorConfig(t_out=math.inf)
        with pytest.raises(ConfigError) as err:
            make_config({"t_out": math.inf})
        assert names("t_out", err.value.errors), err.value.errors

    def test_config_refuses_nan_q0(self):
        with pytest.raises(ConfigError) as err:
            make_config({"command": "pendulum", "q0": NAN})
        assert names("q0", err.value.errors), err.value.errors

    @pytest.mark.parametrize("seed", [(1.5, NAN), (NAN, 0.5), (math.inf, 0.5)])
    def test_config_refuses_non_finite_seed(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            make_config({"command": "detect", "seeds": (seed,)})

    @pytest.mark.parametrize("q0, p0", [(NAN, 0.5), (0.0, NAN), (math.inf, 0.5)])
    def test_pendulum_refuses_non_finite_seed(self, q0, p0):
        # ConfigError, never a step-underflow outcome for an invalid input.
        with pytest.raises(ConfigError, match="seed"):
            pendulum_detect(q0, p0, t_out=5.0)

    def test_options_check_every_rule_of_their_own(self):
        with pytest.raises(ValueError) as err:
            IntegratorOptions(
                renorm_threshold=0.5, escape_radius=-1.0, collision_radius=NAN
            )
        assert len(err.value.errors) == 3

    def test_every_owner_reports_at_once(self):
        # One key of each owner: the mass ratio, the grid, the detector, the
        # integrator and the configuration itself.
        keys = ("mu", "L_min", "t_out", "escape_radius", "bar_m")
        with pytest.raises(ConfigError) as err:
            make_config(dict.fromkeys(keys, NAN))
        errors = err.value.errors
        assert len(errors) == len(keys)
        for key in keys:
            assert len(names(key, errors)) == 1, errors


class TestGoldenRecipe:
    def test_reference_scan_recipe(self):
        cfg = parse_config((RECIPES / "scan_mu01_reference.cfg").read_text())
        assert cfg.command == "scan"
        assert cfg.mu == 0.1
        assert cfg.plane == "theta0"
        assert (cfg.r_min, cfg.r_max, cfg.n_r) == (0.1, 4.0, 100)
        assert (cfg.L_min, cfg.L_max, cfg.n_L) == (-2.5, 2.5, 100)
        assert cfg.t_out == 40.0
        assert cfg.formulation == "general"
        assert cfg.ratios == ((9, 4), (13, 4), (17, 4), (21, 4))

    def test_all_recipes_parse(self):
        for path in sorted(RECIPES.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            assert cfg.command in (
                "scan",
                "detect",
                "section",
                "pendulum",
                "overlays",
                "lyapunov",
            )


class TestOutputs:
    def test_scan_csv_shape(self):
        res = small_scan()
        text = scan_csv_text(res)
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,r,L,classification,t_detect,q,lyapunov,C"
        assert len(lines) == 1 + 100

    def test_fixed_step_csv_bytes_identical(self):
        a = scan_csv_text(small_scan(fixed_step=True, workers=1))
        b = scan_csv_text(small_scan(fixed_step=True, workers=2))
        assert a == b

    def test_json_envelope_is_rerunnable(self):
        res = small_scan()
        cfg = RunConfig(n_r=10, n_L=10, t_out=3.0)
        text = scan_json_text(res, provenance(cfg))
        data = json.loads(text)
        assert data["format"] == "toruscan.scan.v1"
        assert data["config_hash"] == config_hash(cfg)
        assert parse_config(data["config_text"]) == cfg
        assert len(data["classification"]) == 10
        assert len(data["classification"][0]) == 10

    def test_json_is_strict_with_null_for_non_finite_values(self):
        # The middle r-column sits on the secondary (r = 1 - mu): no seed,
        # so its cells carry C = NaN.
        spec = PlaneSeedSpec(Plane.THETA0, 0.8, 1.0, 3, -1.0, 1.0, 2, 0.1)
        res = run_scan(spec, DetectorConfig(t_out=1.0))
        assert all(math.isnan(out.C) for out in res.cells[1])
        text = scan_json_text(res, provenance(RunConfig(n_r=3, n_L=2, t_out=1.0)))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads(text, parse_constant=reject)
        assert data["C"][1] == [None, None]
        assert data["C"][0] == [out.C for out in res.cells[0]]

    def test_outcomes_json_is_strict_with_null_for_non_finite_values(self):
        # A seed on a body has no state: its SingularSeed outcome has C = NaN.
        out = _singular_outcome(None, 0.1, "body")
        assert math.isnan(out.C)
        item = {"r": 0.9, "L": 0.5, **outcome_to_dict(out)}
        text = outcomes_json_text("detect", [item], provenance(RunConfig()))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        (result,) = json.loads(text, parse_constant=reject)["results"]
        assert result["classification"] == "SingularSeed"
        assert result["C"] is None
        assert result["diagnostics"] == {"reason": "body"}

    def test_csv_provenance_comments_are_rerunnable(self):
        res = small_scan()
        cfg = RunConfig(n_r=10, n_L=10, t_out=3.0, workers=7, out="somewhere")
        text = scan_csv_text(res, provenance(cfg))
        lines = text.strip().splitlines()
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert len(data_lines) == 1 + 100
        config_line = next(ln for ln in lines if ln.startswith("# config:"))
        recovered = parse_config(
            config_line[len("# config:") :].strip().replace(";", "\n")
        )
        # execution-only fields are canonicalized away
        assert recovered == computation_config(cfg)
        assert recovered.workers == 1 and recovered.out == ""

    def test_provenance_independent_of_execution_fields(self):
        a = provenance(RunConfig(workers=1, png=False))
        b = provenance(RunConfig(workers=8, png=True, out="x"))
        assert a == b

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "sub" / "file.csv"
        write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["file.csv"]

    def test_curves_csv_blocks(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.1, 4.0, 10, -2.5, 2.5, 10, 0.1)
        curves = assemble_overlays(spec, ((9, 4),), n=32)
        text = curves_csv_text(curves)
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == len(curves)
        for block, curve in zip(blocks, curves):
            assert block.startswith(f"# curve: {curve.label}")
            assert block.splitlines()[1] == "r,L"

    def test_curves_csv_compact_coordinates(self):
        spec = PlaneSeedSpec(Plane.THETA0, 0.5, 4.0, 10, -2.5, 2.5, 10, 0.1)
        curves = assemble_overlays(spec, (), n=16)
        text = curves_csv_text(curves, coord_mode="rbar", bar_m=5.0)
        assert "r_bar,L_bar" in text

    def test_section_csv_header(self):
        text = section_csv_text([("r=1.5 L=0.5", [])])
        assert "t,x,y,v_x,v_y,r,L" in text


class TestPng:
    @staticmethod
    def _decode(data):
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        w, h = struct.unpack(">II", data[16:24])
        # concatenate IDAT payloads
        pos = 8
        idat = b""
        while pos < len(data):
            (length,) = struct.unpack(">I", data[pos : pos + 4])
            tag = data[pos + 4 : pos + 8]
            if tag == b"IDAT":
                idat += data[pos + 8 : pos + 8 + length]
            pos += 12 + length
        raw = zlib.decompress(idat)
        stride = 1 + 3 * w
        rows = [raw[k * stride + 1 : (k + 1) * stride] for k in range(h)]
        return w, h, rows

    def test_encoder_roundtrip(self):
        rows = [bytes((255, 0, 0, 0, 0, 255)), bytes((0, 255, 0, 10, 20, 30))]
        w, h, decoded = self._decode(encode_png(2, 2, rows))
        assert (w, h) == (2, 2)
        assert decoded == rows

    def test_scan_raster_dimensions_and_colors(self):
        res = small_scan()
        data = scan_png_bytes(res, scale=3)
        w, h, rows = self._decode(data)
        assert (w, h) == (30, 30)
        # top-left pixel block corresponds to cell (i=0, j=n_L-1)
        out = res.cells[0][9]
        from toruscan.output import _cell_color

        assert tuple(rows[0][:3]) == _cell_color(out)

    def test_compact_coordinate_raster(self):
        res = small_scan()
        data = scan_png_bytes(res, scale=2, coord_mode="rbar", bar_m=5.0)
        w, h, _ = self._decode(data)
        assert (w, h) == (20, 20)

    def test_provenance_text_chunk(self):
        res = small_scan()
        data = scan_png_bytes(res, scale=1, prov=provenance(RunConfig()))
        assert b"tEXt" in data
        assert b"toruscan-config" in data
        assert b"config-hash" in data
