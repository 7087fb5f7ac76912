"""Serialization of results: CSV, JSON envelopes and raster heatmaps.

Column order and the JSON schema are frozen (schema tag in the "format"
key); downstream plotting reads these files, so changes must bump the tag.
All files are written atomically (temp file + rename).  The PNG writer is a
minimal self-contained encoder: each grid cell becomes a square pixel block
with a fixed colormap:

    Nonexistence   dark red (fast, q ~ 0) fading to light blue (q ~ 1)
    Undetermined   deep blue
    SingularSeed   black
    Collision      dark grey
    Escape         light grey
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib

from .detector import Classification, DetectionOutcome
from .scan import ScanResult
from .unperturbed import compact_coords

__all__ = [
    "write_text_atomic",
    "write_bytes_atomic",
    "scan_csv_text",
    "scan_json_text",
    "curves_csv_text",
    "section_csv_text",
    "outcomes_json_text",
    "outcome_to_dict",
    "scan_png_bytes",
    "encode_png",
]

_COLOR_FAST = (139, 0, 0)
_COLOR_SLOW = (173, 216, 230)
_COLORS = {
    Classification.UNDETERMINED: (0, 0, 139),
    Classification.SINGULAR_SEED: (0, 0, 0),
    Classification.COLLISION: (90, 90, 90),
    Classification.ESCAPE: (190, 190, 190),
}
_COLOR_OUTSIDE = (255, 255, 255)


def write_text_atomic(path: str, text: str) -> None:
    write_bytes_atomic(path, text.encode())


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _provenance_comments(prov) -> list:
    """Trailing comment lines that make a data file re-runnable."""
    if not prov:
        return []
    config_line = ";".join(
        line for line in prov["config_text"].splitlines() if line.strip()
    )
    return [
        f"# toruscan-version: {prov['version']}",
        f"# config-hash: {prov['config_hash']}",
        f"# config: {config_line}",
    ]


def scan_csv_text(result: ScanResult, prov: dict | None = None) -> str:
    """One row per cell: i,j,r,L,classification,t_detect,q,lyapunov,C.

    When provenance is given it is appended as trailing ``#`` comment lines
    (data rows and header are unaffected).
    """
    r_vals = result.spec.r_values()
    l_vals = result.spec.L_values()
    lines = ["i,j,r,L,classification,t_detect,q,lyapunov,C"]
    for i, row in enumerate(result.cells):
        for j, out in enumerate(row):
            lines.append(
                ",".join(
                    (
                        str(i),
                        str(j),
                        repr(r_vals[i]),
                        repr(l_vals[j]),
                        out.classification.value,
                        _fmt(out.t_detect),
                        _fmt(out.q),
                        _fmt(out.lyapunov),
                        _fmt(out.C),
                    )
                )
            )
    lines.extend(_provenance_comments(prov))
    return "\n".join(lines) + "\n"


def outcome_to_dict(out: DetectionOutcome) -> dict:
    return {
        "classification": out.classification.value,
        "t_detect": out.t_detect,
        "q": out.q,
        "lyapunov": out.lyapunov,
        "n_sign_events": out.n_sign_events,
        "C": out.C,
        "diagnostics": out.diagnostics,
    }


def _strict(value):
    """value with every non-finite float, nested ones too, replaced by None."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json_grid(result: ScanResult, attr: str) -> list:
    """One float field per cell; a non-finite value is written as null."""
    return [[_strict(getattr(out, attr)) for out in row] for row in result.cells]


def scan_json_text(result: ScanResult, prov: dict) -> str:
    """Self-describing envelope: config, metadata, grid data, overlays.

    Strict JSON: non-finite grid values (the C of a cell whose seed sits on
    a body) are null.
    """
    envelope = {
        "format": "toruscan.scan.v1",
        "version": prov["version"],
        "config_hash": prov["config_hash"],
        "config_text": prov["config_text"],
        "metadata": result.metadata,
        "r_values": result.spec.r_values(),
        "L_values": result.spec.L_values(),
        "classification": [
            [out.classification.value for out in row] for row in result.cells
        ],
        "t_detect": _json_grid(result, "t_detect"),
        "q": _json_grid(result, "q"),
        "lyapunov": _json_grid(result, "lyapunov"),
        "C": _json_grid(result, "C"),
        "n_sign_events": [
            [out.n_sign_events for out in row] for row in result.cells
        ],
        "overlays": [
            {"label": c.label, "points": [[p[0], p[1]] for p in c.points]}
            for c in result.overlays
        ],
    }
    return json.dumps(envelope, allow_nan=False)


def outcomes_json_text(command: str, items: list, prov: dict) -> str:
    """Envelope of per-seed results; strict JSON, non-finite floats as null."""
    return json.dumps(
        {
            "format": f"toruscan.{command}.v1",
            "version": prov["version"],
            "config_hash": prov["config_hash"],
            "config_text": prov["config_text"],
            "results": _strict(items),
        },
        allow_nan=False,
    )


def curves_csv_text(
    curves,
    coord_mode: str = "rL",
    bar_m: float = 5.0,
    prov: dict | None = None,
) -> str:
    """Labelled CSV blocks, one per curve, blank-line separated."""
    blocks = []
    for curve in curves:
        lines = [f"# curve: {curve.label}"]
        if coord_mode == "rbar":
            lines.append("r_bar,L_bar")
            for r, L in curve.points:
                if r <= 0.0:
                    continue
                rb, lb = compact_coords(r, L, bar_m)
                lines.append(f"{rb!r},{lb!r}")
        else:
            lines.append("r,L")
            for r, L in curve.points:
                lines.append(f"{r!r},{L!r}")
        blocks.append("\n".join(lines))
    comments = _provenance_comments(prov)
    if comments:
        blocks.append("\n".join(comments))
    return "\n\n".join(blocks) + "\n"


def section_csv_text(blocks: list, prov: dict | None = None) -> str:
    """Crossing lists per seed: labelled blocks of t,x,y,v_x,v_y,r,L rows."""
    parts = []
    for label, crossings in blocks:
        lines = [f"# seed: {label}", "t,x,y,v_x,v_y,r,L"]
        for c in crossings:
            lines.append(
                ",".join(
                    repr(v)
                    for v in (
                        c.t,
                        c.s.x,
                        c.s.y,
                        c.s.vx,
                        c.s.vy,
                        c.polar.r,
                        c.polar.p_theta,
                    )
                )
            )
        parts.append("\n".join(lines))
    comments = _provenance_comments(prov)
    if comments:
        parts.append("\n".join(comments))
    return "\n\n".join(parts) + "\n"


def _cell_color(out: DetectionOutcome) -> tuple:
    if out.classification is Classification.NONEXISTENCE:
        q = min(max(out.q, 0.0), 1.0)
        return tuple(
            round(a + q * (b - a)) for a, b in zip(_COLOR_FAST, _COLOR_SLOW)
        )
    return _COLORS[out.classification]


def encode_png(width: int, height: int, rows, texts: dict | None = None) -> bytes:
    """Minimal 8-bit RGB PNG encoder (filter 0 on every scanline).

    texts maps latin-1 keywords to strings, embedded as tEXt chunks.
    """

    def chunk(tag: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    raw = b"".join(b"\x00" + bytes(row) for row in rows)
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    text_chunks = b""
    for key, value in (texts or {}).items():
        text_chunks += chunk(
            b"tEXt", key.encode("latin-1") + b"\x00" + value.encode("latin-1")
        )
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + text_chunks
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def scan_png_bytes(
    result: ScanResult,
    scale: int = 4,
    coord_mode: str = "rL",
    bar_m: float = 5.0,
    prov: dict | None = None,
) -> bytes:
    """Raster heatmap of a scan; cell (i, j) -> scale x scale pixel block.

    Rows run from L_max (top) to L_min (bottom).  In "rbar" mode the image
    is resampled onto a uniform grid in the compactified plot coordinates
    (r/(r+m), L/sqrt(r)); pixels outside the scanned grid are white.
    """
    spec = result.spec
    width, height = spec.n_r * scale, spec.n_L * scale
    colors = [[_cell_color(out) for out in row] for row in result.cells]
    texts = None
    if prov:
        texts = {
            "Software": f"toruscan {prov['version']}",
            "Comment": f"config-hash {prov['config_hash']}",
            "toruscan-config": prov["config_text"],
        }
    rows = []
    if coord_mode == "rL":
        for py in range(height):
            j = spec.n_L - 1 - py // scale
            row = bytearray()
            for i in range(spec.n_r):
                row.extend(bytes(colors[i][j]) * scale)
            rows.append(bytes(row))
        return encode_png(width, height, rows, texts)

    rb_lo, _ = compact_coords(spec.r_min, 0.0, bar_m)
    rb_hi, _ = compact_coords(spec.r_max, 0.0, bar_m)
    lb_candidates = [
        L / math.sqrt(r)
        for L in (spec.L_min, spec.L_max)
        for r in (spec.r_min, spec.r_max)
    ]
    lb_lo, lb_hi = min(lb_candidates), max(lb_candidates)
    dr = (spec.r_max - spec.r_min) / spec.n_r
    dl = (spec.L_max - spec.L_min) / spec.n_L
    for py in range(height):
        lb = lb_hi - (py + 0.5) / height * (lb_hi - lb_lo)
        row = bytearray()
        for px in range(width):
            rb = rb_lo + (px + 0.5) / width * (rb_hi - rb_lo)
            r = bar_m * rb / (1.0 - rb)
            L = lb * math.sqrt(r)
            i = int((r - spec.r_min) / dr)
            j = int((L - spec.L_min) / dl)
            if 0 <= i < spec.n_r and 0 <= j < spec.n_L:
                row.extend(bytes(colors[i][j]))
            else:
                row.extend(bytes(_COLOR_OUTSIDE))
        rows.append(bytes(row))
    return encode_png(width, height, rows, texts)
