"""Command-line front end.

Subcommands: scan, detect, section, pendulum, overlays, lyapunov.  Flags
mirror the configuration keys; ``--config FILE`` loads a key-value file
first and explicit flags override it.  On success the exit code is 0; any
failure writes a machine-readable JSON object to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    make_config,
    parse_config,
    parse_value,
    provenance,
    to_detector_config,
    to_integrator_options,
    to_plane_spec,
)
from .detector import lyapunov_estimate, run as run_detector
from .output import (
    curves_csv_text,
    outcome_to_dict,
    outcomes_json_text,
    scan_csv_text,
    scan_json_text,
    scan_png_bytes,
    section_csv_text,
    write_bytes_atomic,
    write_text_atomic,
)
from .pendulum import pendulum_detect
from .scan import assemble_overlays, linspace, plane_point, run_scan
from .section import return_map

# Every configuration key is a flag; each flag's value is parsed like the
# same key in a configuration file.
_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command")
# A word that begins like a negative number is a flag's value.  argparse's
# own pattern (-1, -.5) takes -1e-3 and -inf for flags.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub._negative_number_matcher = _NEGATIVE_NUMBER
    sub.add_argument("--config", help="key = value configuration file")
    for key in _KEYS:
        flag = f"--{key.replace('_', '-')}"
        if isinstance(getattr(RunConfig, key), bool):
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            sub.add_argument(flag, default=None)


def _build_config(command: str, args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = parse_config(fh.read())
        values = {f.name: getattr(base, f.name) for f in fields(RunConfig)}
    values["command"] = command
    errors = []
    for key in _KEYS:
        given = getattr(args, key)
        if given is None:
            continue
        try:
            values[key] = given if isinstance(given, bool) else parse_value(key, given)
        except ValueError as exc:
            errors.append(f"bad value for {key!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    return make_config(values)


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def cb(done, total):
        print(f"\rrows {done}/{total}", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)

    return cb


def _emit(text: str, path: str | None) -> None:
    if path:
        write_text_atomic(path, text)
    else:
        sys.stdout.write(text)


def _cmd_scan(cfg: RunConfig) -> int:
    spec = to_plane_spec(cfg)
    dcfg = to_detector_config(cfg)
    result = run_scan(
        spec,
        dcfg,
        workers=cfg.workers,
        exclusion_tol=cfg.exclusion_tol,
        progress=_progress_printer(cfg.progress),
    )
    result.overlays = assemble_overlays(spec, cfg.ratios, n=cfg.curve_samples)
    prov = provenance(cfg)
    if cfg.out:
        write_text_atomic(cfg.out + ".csv", scan_csv_text(result, prov))
        write_text_atomic(cfg.out + ".json", scan_json_text(result, prov))
        if cfg.png:
            write_bytes_atomic(
                cfg.out + ".png",
                scan_png_bytes(result, cfg.png_scale, cfg.coord_mode, cfg.bar_m, prov),
            )
        counts = result.metadata["counts"]
        print(
            f"scan {prov['config_hash']}: {spec.n_r}x{spec.n_L} cells -> "
            f"{cfg.out}.csv/.json" + ("/.png" if cfg.png else "") + f" {counts}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(scan_json_text(result, prov))
    return 0


def _emit_results(cfg: RunConfig, items: list) -> int:
    text = outcomes_json_text(cfg.command, items, provenance(cfg)) + "\n"
    _emit(text, cfg.out + ".json" if cfg.out else None)
    return 0


def _cmd_seeds(cfg: RunConfig) -> int:
    """detect or lyapunov: one outcome per configured seed."""
    dcfg = to_detector_config(cfg)
    runner = run_detector if cfg.command == "detect" else lyapunov_estimate
    plane = to_plane_spec(cfg).plane
    items = []
    for r, L in cfg.seeds:
        seed = plane_point(plane, r, L, cfg.mu)
        item = {"r": r, "L": L, "state": list(seed)}
        item.update(outcome_to_dict(runner(seed, cfg.mu, dcfg)))
        items.append(item)
    return _emit_results(cfg, items)


def _cmd_section(cfg: RunConfig) -> int:
    dcfg = to_detector_config(cfg)
    plane = to_plane_spec(cfg).plane
    blocks = []
    summary = []
    for r, L in cfg.seeds:
        seed = plane_point(plane, r, L, cfg.mu)
        res = return_map(seed, cfg.mu, cfg.n_returns, dcfg)
        blocks.append((f"r={r!r} L={L!r}", res.crossings))
        summary.append(
            {
                "r": r,
                "L": L,
                "status": res.status,
                "n_crossings": len(res.crossings),
                "n_ambiguous": res.n_ambiguous,
                "t_end": res.t_end,
            }
        )
    prov = provenance(cfg)
    csv_text = section_csv_text(blocks, prov)
    if cfg.out:
        write_text_atomic(cfg.out + ".csv", csv_text)
    else:
        sys.stdout.write(csv_text)
    print(outcomes_json_text("section", summary, prov), file=sys.stderr)
    return 0


def _cmd_pendulum(cfg: RunConfig) -> int:
    opts = to_integrator_options(cfg)
    items = []
    for p0 in linspace(cfg.p0_min, cfg.p0_max, cfg.n_p0):
        out = pendulum_detect(cfg.q0, p0, cfg.t_out, opts)
        item = {"q0": cfg.q0, "p0": p0, "H": out.C}
        item.update(outcome_to_dict(out))
        items.append(item)
    return _emit_results(cfg, items)


def _cmd_overlays(cfg: RunConfig) -> int:
    spec = to_plane_spec(cfg)
    curves = assemble_overlays(spec, cfg.ratios, n=cfg.curve_samples)
    text = curves_csv_text(curves, cfg.coord_mode, cfg.bar_m, provenance(cfg))
    _emit(text, cfg.out + ".csv" if cfg.out else None)
    return 0


_HANDLERS = {
    "scan": _cmd_scan,
    "detect": _cmd_seeds,
    "section": _cmd_section,
    "pendulum": _cmd_pendulum,
    "overlays": _cmd_overlays,
    "lyapunov": _cmd_seeds,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toruscan",
        description=(
            "Nonexistence tests for invariant tori in the planar circular "
            "restricted three-body problem"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args.command, args)
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        json.dump({"error": "ConfigError", "messages": exc.errors}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, OSError) as exc:
        json.dump(
            {"error": type(exc).__name__, "messages": [str(exc)]}, sys.stderr
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
