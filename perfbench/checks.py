"""Property checks on toruscan's output files, read back from disk.

Each check returns a list of problems (empty when the output is right).
The files are parsed here from their documented formats (CSV columns, the
JSON envelope, PNG chunks) rather than through toruscan's own readers, and
the expected values come from the equations in oracle.py.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

from oracle import flow, jacobi, plane_jacobi, singular_reason

SCAN_HEADER = "i,j,r,L,classification,t_detect,q,lyapunov,C"
SECTION_HEADER = "t,x,y,v_x,v_y,r,L"
CLASSES = ("Nonexistence", "Undetermined", "Collision", "Escape", "SingularSeed")

# Documented colormap of the scan PNG.
COLOR_FAST, COLOR_SLOW = (139, 0, 0), (173, 216, 230)
COLORS = {
    "Undetermined": (0, 0, 139),
    "SingularSeed": (0, 0, 0),
    "Collision": (90, 90, 90),
    "Escape": (190, 190, 190),
}

C_REL_TOL = 1e-12
# Jacobi drift allowed per unit of time, relative: the default rel_tol 1e-10
# times ~100 accepted steps per time unit, what the step-size control lets
# accumulate.  Measured on the benchmark's orbits: up to 1e-9 per time unit
# on the eccentric inner ones (1.8e-7 by t = 200), so a flat 1e-9 holds only
# for the first time unit there.
JACOBI_REL_RATE = 1e-8
# A crossing is located in time to toruscan's refine_time_tol (1e-11 relative
# to max(1, t)), so |p_r| may reach |dp_r/dt| times that; fast passes near
# the primary reach |dp_r/dt| ~ 1e3.  P_R_TIME_TOL allows ten times it.
P_R_TIME_TOL = 1e-10
STRIP_MIN, REGION_MIN = 0.80, 0.60


def _num(text):
    return None if text == "" else float(text)


def read_scan_csv(path):
    """Cells keyed by (i, j): dict of r, L, cls, t_detect, q, C."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != SCAN_HEADER:
        raise ValueError(f"{path}: bad header {lines[:1]!r}")
    cells = {}
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 9:
            raise ValueError(f"{path}: bad row {ln!r}")
        cells[(int(f[0]), int(f[1]))] = {
            "r": float(f[2]),
            "L": float(f[3]),
            "cls": f[4],
            "t_detect": _num(f[5]),
            "q": _num(f[6]),
            "C": _num(f[8]),
        }
    return cells


def decode_png(data):
    """(width, height, rows) of an 8-bit RGB PNG; rows are bytes per scanline."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG signature")
    pos, idat, ihdr = 8, b"", None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC in {tag!r} chunk")
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    if ihdr is None or ihdr[2:] != (8, 2, 0, 0, 0):
        raise ValueError(f"unsupported PNG header {ihdr}")
    width, height = ihdr[0], ihdr[1]
    raw = zlib.decompress(idat)
    stride = 3 * width
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG image data has the wrong length")
    rows, prev = [], bytearray(stride)
    for y in range(height):
        ftype = raw[y * (stride + 1)]
        line = bytearray(raw[y * (stride + 1) + 1 : (y + 1) * (stride + 1)])
        for x in range(stride):
            a = line[x - 3] if x >= 3 else 0
            b = prev[x]
            c = prev[x - 3] if x >= 3 else 0
            if ftype == 1:
                line[x] = (line[x] + a) & 0xFF
            elif ftype == 2:
                line[x] = (line[x] + b) & 0xFF
            elif ftype == 3:
                line[x] = (line[x] + (a + b) // 2) & 0xFF
            elif ftype == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                line[x] = (line[x] + pred) & 0xFF
            elif ftype != 0:
                raise ValueError(f"unknown PNG filter {ftype}")
        rows.append(bytes(line))
        prev = line
    return width, height, rows


def expected_color(cell):
    if cell["cls"] == "Nonexistence":
        q = min(max(cell["q"], 0.0), 1.0)
        return tuple(a + q * (b - a) for a, b in zip(COLOR_FAST, COLOR_SLOW))
    return COLORS[cell["cls"]]


def _same(a, b):
    """Equal floats, with NaN equal to NaN and to a missing value."""
    if a is None or b is None:
        return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
    return a == b or (math.isnan(a) and math.isnan(b))


def check_scan(prefix, grid, mu, t_out, exclusion_tol, png_scale):
    """Problems with one scan's CSV, JSON and PNG; grid is (n_r, n_L)."""
    problems = []
    try:
        cells = read_scan_csv(prefix + ".csv")
        with open(prefix + ".json", encoding="utf-8") as fh:
            env = json.load(fh)
        with open(prefix + ".png", "rb") as fh:
            png = decode_png(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        return [f"{prefix}: unreadable output: {exc!r}"]
    n_r, n_L = grid
    if sorted(cells) != [(i, j) for i in range(n_r) for j in range(n_L)]:
        return [f"{prefix}: CSV does not hold exactly the {n_r}x{n_L} cells"]
    counts = {}
    for (i, j), c in sorted(cells.items()):
        where = f"{prefix} cell ({i},{j})"
        counts[c["cls"]] = counts.get(c["cls"], 0) + 1
        if c["cls"] not in CLASSES:
            problems.append(f"{where}: unknown class {c['cls']!r}")
            continue
        r, L = c["r"], c["L"]
        near_body = abs(r - (1.0 - mu)) < exclusion_tol
        if near_body and c["cls"] != "SingularSeed":
            problems.append(f"{where}: r={r!r} within exclusion_tol of the secondary")
        if not near_body:
            want = plane_jacobi(r, L, mu)
            if c["C"] is None or not abs(c["C"] - want) <= C_REL_TOL * max(1.0, abs(want)):
                problems.append(f"{where}: C={c['C']!r}, expected {want!r}")
        if c["cls"] == "Nonexistence":
            t = c["t_detect"]
            if t is None or not 0.0 < t <= t_out:
                problems.append(f"{where}: t_detect={t!r} outside (0, {t_out}]")
            elif c["q"] != t / t_out:
                problems.append(f"{where}: q={c['q']!r} != t_detect/t_out")
        elif c["t_detect"] is not None or c["q"] is not None:
            problems.append(f"{where}: {c['cls']} cell carries t_detect/q")
    # JSON agrees cell by cell.
    try:
        if env["format"] != "toruscan.scan.v1":
            problems.append(f"{prefix}.json: format {env['format']!r}")
        if any(v != cells[(0, j)]["L"] for j, v in enumerate(env["L_values"])) or any(
            v != cells[(i, 0)]["r"] for i, v in enumerate(env["r_values"])
        ):
            problems.append(f"{prefix}.json: grid values differ from the CSV")
        for (i, j), c in cells.items():
            if env["classification"][i][j] != c["cls"] or not all(
                _same(env[k][i][j], c[k]) for k in ("t_detect", "q", "C")
            ):
                problems.append(f"{prefix}.json: cell ({i},{j}) differs from the CSV")
        if env["metadata"]["counts"] != counts:
            problems.append(f"{prefix}.json: counts {env['metadata']['counts']} != CSV {counts}")
    except (KeyError, IndexError, TypeError) as exc:
        problems.append(f"{prefix}.json: malformed envelope: {exc!r}")
    # PNG agrees cell by cell: every pixel of a cell's block has its colour.
    width, height, rows = png
    if (width, height) != (n_r * png_scale, n_L * png_scale):
        problems.append(f"{prefix}.png: size {width}x{height}")
    else:
        for (i, j), c in cells.items():
            want = expected_color(c)
            y0 = (n_L - 1 - j) * png_scale  # rows run from L_max down
            block = [
                tuple(rows[y][3 * x : 3 * x + 3])
                for y in range(y0, y0 + png_scale)
                for x in range(i * png_scale, (i + 1) * png_scale)
            ]
            # A pixel holds the colour rounded to integers.
            bad = [px for px in block if any(abs(g - w) > 0.5 + 1e-9 for g, w in zip(px, want))]
            if bad:
                problems.append(f"{prefix}.png: cell ({i},{j}) pixel {bad[0]} != {want}")
    return problems


def unexplained_singular(cells, mu, formulation, exclusion_tol):
    """(i, j) of the SingularSeed cells that no singularity of the seed explains.

    toruscan also writes SingularSeed for a cell whose detector raised, and
    its output files do not say which cells those are.  A SingularSeed cell
    away from every singularity the pre-classification tests for (see
    oracle.singular_reason) is such a crashed cell: a failed seed.
    """
    return sorted(
        ij
        for ij, c in cells.items()
        if c["cls"] == "SingularSeed"
        and singular_reason(c["r"], c["L"], mu, formulation, exclusion_tol) is None
    )


def pattern_fractions(cells):
    """Nonexistence shares (strip |r-1| < 0.1, crossing region) as in the paper.

    The crossing region is r >= 1.05 with L^2 < 2r/(r+1), SingularSeed cells
    left out, as acceptance criterion 5 defines it.
    """
    strip = [c["cls"] == "Nonexistence" for c in cells if abs(c["r"] - 1.0) < 0.1]
    region = [
        c["cls"] == "Nonexistence"
        for c in cells
        if c["r"] >= 1.05
        and c["L"] ** 2 < 2.0 * c["r"] / (c["r"] + 1.0)
        and c["cls"] != "SingularSeed"
    ]
    share = lambda xs: sum(xs) / len(xs) if xs else float("nan")  # noqa: E731
    return share(strip), share(region), len(strip), len(region)


def check_pattern(cells):
    """The paper's pattern on a sample of the reference grid's cells.

    Acceptance criterion 5 asks, on the full 100x100 grid, for at least
    STRIP_MIN Nonexistence in the strip and REGION_MIN in the crossing
    region.  A run sees a sub-sample, whose share scatters around the full
    grid's (85% in the strip, general formulation), so a share counts as
    contradicting the criterion only when it lies more than three binomial
    standard errors of the sample's size below the threshold.
    """
    strip, region, n_strip, n_region = pattern_fractions(cells)
    problems = []
    for name, share, n, need in (
        ("strip |r-1|<0.1", strip, n_strip, STRIP_MIN),
        ("crossing region", region, n_region, REGION_MIN),
    ):
        if n == 0:
            problems.append(f"pattern: no cells in the {name}")
        elif share < need - 3.0 * math.sqrt(need * (1.0 - need) / n):
            problems.append(
                f"pattern: {share:.1%} Nonexistence in the {name} ({n} cells), need {need:.0%}"
            )
    return problems


def read_section_csv(path):
    """[(label, [row tuples of 7 floats])] in file order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    blocks = []
    for part in text.split("\n\n"):
        lines = part.strip("\n").splitlines()
        if not lines or not lines[0].startswith("# seed: "):
            continue
        if len(lines) < 2 or lines[1] != SECTION_HEADER:
            raise ValueError(f"{path}: bad block header {lines[:2]!r}")
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
        if any(len(row) != 7 for row in rows):
            raise ValueError(f"{path}: bad row in block {lines[0]!r}")
        blocks.append((lines[0][len("# seed: ") :], rows))
    return blocks


def check_section(path, seeds, mu, t_out):
    """Problems with one section CSV for the given (r, L) seeds."""
    try:
        blocks = read_section_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable output: {exc!r}"]
    if len(blocks) != len(seeds):
        return [f"{path}: {len(blocks)} blocks for {len(seeds)} seeds"]
    problems = []
    for (label, rows), (r0, L0) in zip(blocks, seeds):
        if label != f"r={r0!r} L={L0!r}":
            problems.append(f"{path}: block {label!r} for seed {r0!r}:{L0!r}")
        c0 = plane_jacobi(r0, L0, mu)
        t_prev = 0.0
        for k, (t, x, y, vx, vy, r, L) in enumerate(rows):
            where = f"{path} [{label}] crossing {k}"
            if not t_prev < t <= t_out:
                problems.append(f"{where}: t={t!r} not in ({t_prev!r}, {t_out}]")
            t_prev = t
            drift = abs(jacobi((x, y, vx, vy), mu) - c0) / abs(c0)
            if drift > JACOBI_REL_RATE * max(1.0, t):
                problems.append(f"{where}: Jacobi constant drifted by {drift:.2e} from {c0!r}")
            rr = math.hypot(x, y)
            L_state = x * vy - y * vx + rr * rr
            if abs(r - rr) > 1e-12 * rr or abs(L - L_state) > 1e-12 * max(1.0, abs(L)):
                problems.append(f"{where}: r, L columns disagree with the state")
            p_r = (x * vx + y * vy) / rr
            v = flow((x, y, vx, vy), mu)
            rate = (vx * vx + vy * vy + x * v[2] + y * v[3]) / rr - p_r * p_r / rr
            if abs(p_r) > P_R_TIME_TOL * max(1.0, t) * abs(rate) + 1e-12 * math.hypot(vx, vy):
                problems.append(f"{where}: p_r={p_r!r} is not 0 (dp_r/dt={rate!r})")
            if not rate < 0.0:
                problems.append(f"{where}: dp_r/dt={rate!r} is not negative")
    return problems
