"""Run configuration: parsing, validation, serialization and hashing.

Configurations are flat ``key = value`` text files (``#`` starts a comment).
Lists are comma separated: winding ratios as integer fractions such as
``9/4,13/4`` and seeds as ``r:L`` pairs such as ``1.5:0.5,2.0:-0.3``.
Serialization emits every field with defaults resolved, so a parsed
round-trip reproduces the configuration exactly and the hash of the
serialized text identifies the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .detector import DetectorConfig, Formulation
from .foliation import Plane
from .integrate import IntegratorOptions
from .scan import PlaneSeedSpec

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "parse_value",
    "serialize_config",
    "config_hash",
    "to_integrator_options",
    "to_detector_config",
    "to_plane_spec",
]

_COMMANDS = ("scan", "detect", "section", "pendulum", "overlays", "lyapunov")
_FORMULATIONS = tuple(f.value for f in Formulation)
_PLANES = tuple(p.value for p in Plane)
_COORD_MODES = ("rL", "rbar")


class ConfigError(ValueError):
    """Carries every violated constraint, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    command: str = "scan"
    mu: float = 0.1
    plane: str = "theta0"
    r_min: float = 0.1
    r_max: float = 4.0
    n_r: int = 100
    L_min: float = -2.5
    L_max: float = 2.5
    n_L: int = 100
    t_out: float = 40.0
    formulation: str = "general"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.1
    fixed_step: bool = False
    renorm_threshold: float = 1e6
    collision_radius: float = 1e-3
    escape_radius: float = 20.0
    compute_lyapunov: bool = False
    workers: int = 1
    exclusion_tol: float = 1e-3
    coord_mode: str = "rL"
    bar_m: float = 5.0
    ratios: tuple = ()
    seeds: tuple = ()
    n_returns: int = 20
    q0: float = 0.0
    p0_min: float = 0.5
    p0_max: float = 0.5
    n_p0: int = 1
    curve_samples: int = 512
    out: str = ""
    png: bool = False
    png_scale: int = 4
    progress: bool = False


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_ratios(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    out = []
    for item in text.split(","):
        item = item.strip()
        if "/" in item:
            p_str, q_str = item.split("/", 1)
            p, q = int(p_str), int(q_str)
        else:
            p, q = int(item), 1
        if p == 0 or q == 0:
            raise ValueError(f"winding ratio must be nonzero: {item!r}")
        out.append((p, q))
    return tuple(out)


def _parse_seeds(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    out = []
    for item in text.split(","):
        item = item.strip()
        r_str, l_str = item.split(":", 1)
        out.append((float(r_str), float(l_str)))
    return tuple(out)


def _format_ratios(ratios) -> str:
    return ",".join(f"{p}/{q}" if q != 1 else str(p) for p, q in ratios)


def _format_seeds(seeds) -> str:
    return ",".join(f"{r!r}:{L!r}" for r, L in seeds)


_PARSERS = {
    str: lambda t: t.strip(),
    float: lambda t: float(t),
    int: lambda t: int(t),
    bool: _parse_bool,
}

_DEFAULTS = RunConfig()


def parse_value(key: str, text: str):
    """Parse one value of a configuration key, typed by the key's default."""
    if key == "ratios":
        return _parse_ratios(text)
    if key == "seeds":
        return _parse_seeds(text)
    return _PARSERS[type(getattr(_DEFAULTS, key))](text)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a key-value configuration.

    Unknown keys are rejected; all violations are reported together with
    line context.
    """
    field_map = {f.name: f for f in fields(RunConfig)}
    values: dict = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in field_map:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = parse_value(key, val)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if errors:
        # Still validate whatever parsed cleanly, so one failure reports
        # every problem in the file.
        errors.extend(validate_config(RunConfig(**values)))
        raise ConfigError(errors)
    return make_config(values)


def make_config(values: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain dict of overrides."""
    field_names = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(values) - field_names)
    if unknown:
        raise ConfigError([f"unknown key {k!r}" for k in unknown])
    cfg = RunConfig(**values)
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Every violated constraint, empty when the configuration is valid."""
    e: list[str] = []
    if cfg.command not in _COMMANDS:
        e.append(f"command must be one of {_COMMANDS}, got {cfg.command!r}")
    if not (0.0 <= cfg.mu <= 1.0):
        e.append(f"mu must lie in [0, 1], got {cfg.mu}")
    if cfg.plane not in _PLANES:
        e.append(f"plane must be one of {_PLANES}, got {cfg.plane!r}")
    if not (0.0 < cfg.r_min < cfg.r_max):
        e.append(f"need 0 < r_min < r_max, got ({cfg.r_min}, {cfg.r_max})")
    if cfg.L_min >= cfg.L_max:
        e.append(f"need L_min < L_max, got ({cfg.L_min}, {cfg.L_max})")
    if cfg.n_r < 2 or cfg.n_L < 2:
        e.append(f"grid counts must be >= 2, got ({cfg.n_r}, {cfg.n_L})")
    if cfg.t_out <= 0.0:
        e.append(f"t_out must be positive, got {cfg.t_out}")
    if cfg.formulation not in _FORMULATIONS:
        e.append(
            f"formulation must be one of {_FORMULATIONS}, got {cfg.formulation!r}"
        )
    if cfg.rel_tol <= 0.0 or cfg.abs_tol <= 0.0:
        e.append("tolerances must be positive")
    if not (0.0 < cfg.h_min <= cfg.h_init <= cfg.h_max):
        e.append(
            f"need 0 < h_min <= h_init <= h_max, got "
            f"({cfg.h_min}, {cfg.h_init}, {cfg.h_max})"
        )
    if cfg.renorm_threshold <= 1.0:
        e.append(f"renorm_threshold must exceed 1, got {cfg.renorm_threshold}")
    if cfg.collision_radius < 0.0:
        e.append(f"collision_radius must be >= 0, got {cfg.collision_radius}")
    if cfg.escape_radius <= 0.0:
        e.append(f"escape_radius must be positive, got {cfg.escape_radius}")
    if cfg.workers < 1:
        e.append(f"workers must be >= 1, got {cfg.workers}")
    if cfg.exclusion_tol < 0.0:
        e.append(f"exclusion_tol must be >= 0, got {cfg.exclusion_tol}")
    if cfg.coord_mode not in _COORD_MODES:
        e.append(f"coord_mode must be one of {_COORD_MODES}, got {cfg.coord_mode!r}")
    if cfg.bar_m <= 0.0:
        e.append(f"bar_m must be positive, got {cfg.bar_m}")
    if cfg.n_returns < 1:
        e.append(f"n_returns must be >= 1, got {cfg.n_returns}")
    if cfg.n_p0 < 1:
        e.append(f"n_p0 must be >= 1, got {cfg.n_p0}")
    if cfg.p0_min > cfg.p0_max:
        e.append(f"need p0_min <= p0_max, got ({cfg.p0_min}, {cfg.p0_max})")
    if cfg.n_p0 > 1 and cfg.p0_min == cfg.p0_max:
        e.append("p0 sweep needs p0_min < p0_max")
    if cfg.curve_samples < 2:
        e.append(f"curve_samples must be >= 2, got {cfg.curve_samples}")
    if cfg.png_scale < 1:
        e.append(f"png_scale must be >= 1, got {cfg.png_scale}")
    for r, L in cfg.seeds:
        if r <= 0.0:
            e.append(f"seed radius must be positive, got {r}:{L}")
    if cfg.command in ("detect", "section", "lyapunov") and not cfg.seeds:
        e.append(f"command {cfg.command!r} requires at least one seed")
    return e


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if f.name == "ratios":
            text = _format_ratios(v)
        elif f.name == "seeds":
            text = _format_seeds(v)
        elif isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short stable identifier of the serialized configuration."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


# Fields that select how or where a run executes without affecting any
# computed number; provenance embedded in output files ignores them so that
# reruns with a different worker count or output path stay byte-identical.
_EXECUTION_FIELDS = ("workers", "progress", "out", "png", "png_scale")


def computation_config(cfg: RunConfig) -> RunConfig:
    """The configuration with execution-only fields reset to defaults."""
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for name in _EXECUTION_FIELDS:
        values[name] = getattr(_DEFAULTS, name)
    return RunConfig(**values)


def provenance(cfg: RunConfig) -> dict:
    """version / hash / config text identifying the computation."""
    from . import __version__

    canonical = computation_config(cfg)
    return {
        "version": __version__,
        "config_hash": config_hash(canonical),
        "config_text": serialize_config(canonical),
    }


def to_integrator_options(cfg: RunConfig) -> IntegratorOptions:
    return IntegratorOptions(
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        h_init=cfg.h_init,
        h_min=cfg.h_min,
        h_max=cfg.h_max,
        renorm_threshold=cfg.renorm_threshold,
        collision_radius=cfg.collision_radius,
        escape_radius=cfg.escape_radius,
        fixed_step=cfg.fixed_step,
    )


def to_detector_config(cfg: RunConfig) -> DetectorConfig:
    return DetectorConfig(
        t_out=cfg.t_out,
        formulation=Formulation(cfg.formulation),
        integrator=to_integrator_options(cfg),
        compute_lyapunov=cfg.compute_lyapunov,
    )


def to_plane_spec(cfg: RunConfig) -> PlaneSeedSpec:
    return PlaneSeedSpec(
        plane=Plane(cfg.plane),
        r_min=cfg.r_min,
        r_max=cfg.r_max,
        n_r=cfg.n_r,
        L_min=cfg.L_min,
        L_max=cfg.L_max,
        n_L=cfg.n_L,
        mu=cfg.mu,
    )
