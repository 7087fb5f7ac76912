"""Each output check passes on a real toruscan output and fails on a corrupted copy.

Run with: python3 -m pytest perfbench/tests -q
"""

import io
import json
import math
import shutil
import struct
import zlib
from contextlib import redirect_stderr

import numpy as np
import pytest

import checks
import oracle
import tracing
import toruscan.cli as cli

MU, T_OUT_SCAN, T_OUT_SECTION = 0.1, 10.0, 30.0
# Six r-columns: 0.9005 sits within exclusion_tol of the secondary, 0.9005 and
# 1.0005 in the strip |r-1| < 0.1, and 1.1005, 1.2005 in the crossing region.
GRID = (6, 4)
SCAN_ARGV = [
    "scan", "--mu", "0.1", "--r-min", "0.6505", "--r-max", "1.2505", "--n-r", "6",
    "--L-min", "-0.5", "--L-max", "0.5", "--n-L", "4", "--t-out", "10",
    "--formulation", "general", "--exclusion-tol", "0.001", "--png", "--png-scale", "2",
]  # fmt: skip
SECTION_SEEDS = ((0.25, -0.2647),)


def _run(argv):
    with redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    d = tmp_path_factory.mktemp("real")
    _run(SCAN_ARGV + ["--out", str(d / "scan")])
    seeds = ",".join(f"{r!r}:{L!r}" for r, L in SECTION_SEEDS)
    _run(["section", "--mu", "0.1", "--t-out", "30", "--n-returns", "1000",
          "--seeds", seeds, "--out", str(d / "sec")])  # fmt: skip
    return d


@pytest.fixture
def copy(real, tmp_path):
    for f in real.iterdir():
        shutil.copy(f, tmp_path / f.name)
    return tmp_path


def scan_problems(d):
    return checks.check_scan(str(d / "scan"), GRID, MU, T_OUT_SCAN, 1e-3, 2)


def edit_first_row(path, pred, change):
    """Apply change to the fields of the first CSV data row that pred accepts."""
    lines = path.read_text().splitlines()
    k = next(
        n for n, ln in enumerate(lines) if n and not ln.startswith("#") and pred(ln.split(","))
    )
    lines[k] = ",".join(change(lines[k].split(",")))
    path.write_text("\n".join(lines) + "\n")


def test_real_scan_passes(real):
    assert scan_problems(real) == []
    cells = checks.read_scan_csv(str(real / "scan.csv"))
    assert checks.check_pattern(cells.values()) == []
    assert {c["cls"] for c in cells.values()} >= {"Nonexistence", "SingularSeed"}


def test_wrong_jacobi_constant_fails(copy):
    edit_first_row(copy / "scan.csv", lambda f: f[4] != "SingularSeed",
                   lambda f: f[:8] + [repr(float(f[8]) * (1 + 1e-9))])
    assert any("C=" in p for p in scan_problems(copy))


def test_t_detect_outside_timeout_fails(copy):
    edit_first_row(copy / "scan.csv", lambda f: f[4] == "Nonexistence",
                   lambda f: f[:5] + [repr(T_OUT_SCAN + 1.0)] + f[6:])
    assert any("outside (0" in p for p in scan_problems(copy))


def test_q_not_t_detect_over_t_out_fails(copy):
    edit_first_row(copy / "scan.csv", lambda f: f[4] == "Nonexistence",
                   lambda f: f[:6] + [repr(float(f[6]) * (1 + 1e-15) + 1e-15)] + f[7:])
    assert any("q=" in p for p in scan_problems(copy))


def test_cell_at_the_secondary_must_be_singular(copy):
    edit_first_row(copy / "scan.csv", lambda f: abs(float(f[2]) - 0.9) < 1e-3,
                   lambda f: f[:4] + ["Undetermined"] + f[5:])
    assert any("exclusion_tol" in p for p in scan_problems(copy))


def test_json_disagreeing_with_csv_fails(copy):
    path = copy / "scan.json"
    env = json.loads(path.read_text())
    i, j = next(
        (i, j)
        for i, row in enumerate(env["t_detect"])
        for j, t in enumerate(row)
        if t is not None
    )
    env["t_detect"][i][j] += 1e-6
    path.write_text(json.dumps(env))
    assert any(f"cell ({i},{j}) differs" in p for p in scan_problems(copy))


def _png_chunks(data):
    pos, out = 8, []
    while pos < len(data):
        (n,) = struct.unpack(">I", data[pos : pos + 4])
        out.append((data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + n]))
        pos += 12 + n
    return out


def _chunk(tag, payload):
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(
        ">I", zlib.crc32(tag + payload) & 0xFFFFFFFF
    )


def test_png_pixel_disagreeing_with_csv_fails(copy):
    path = copy / "scan.png"
    data = path.read_bytes()
    chunks = _png_chunks(data)
    raw = bytearray(zlib.decompress(b"".join(p for t, p in chunks if t == b"IDAT")))
    raw[1] ^= 0x40  # red channel of the top-left pixel, behind the filter byte
    rebuilt = data[:8] + b"".join(
        _chunk(t, zlib.compress(bytes(raw)) if t == b"IDAT" else p) for t, p in chunks
    )
    path.write_bytes(rebuilt)
    assert any(".png: cell (0,3)" in p for p in scan_problems(copy))


def test_png_with_bad_crc_fails(copy):
    path = copy / "scan.png"
    data = bytearray(path.read_bytes())
    data[-20] ^= 0xFF
    path.write_bytes(bytes(data))
    assert any("unreadable" in p for p in scan_problems(copy))


def test_png_decoder_undoes_every_filter():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    raw = bytearray()
    prev = np.zeros(15, dtype=int)
    for y, ftype in enumerate((1, 2, 3, 4)):
        line = img[y].reshape(-1).astype(int)
        enc = []
        for x in range(15):
            a = line[x - 3] if x >= 3 else 0
            b, c = prev[x], prev[x - 3] if x >= 3 else 0
            p = a + b - c
            paeth = a if abs(p - a) <= abs(p - b) and abs(p - a) <= abs(p - c) else (
                b if abs(p - b) <= abs(p - c) else c)
            pred = {1: a, 2: b, 3: (a + b) // 2, 4: paeth}[ftype]
            enc.append((line[x] - pred) & 0xFF)
        raw += bytes([ftype] + enc)
        prev = line
    header = struct.pack(">IIBBBBB", 5, 4, 8, 2, 0, 0, 0)
    data = (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", header)
            + _chunk(b"IDAT", zlib.compress(bytes(raw))) + _chunk(b"IEND", b""))  # fmt: skip
    width, height, rows = checks.decode_png(data)
    assert (width, height) == (5, 4)
    assert [bytes(img[y].reshape(-1)) for y in range(4)] == rows


def test_pattern_fails_without_nonexistence_in_the_strip(real):
    cells = list(checks.read_scan_csv(str(real / "scan.csv")).values())
    for c in cells:
        if abs(c["r"] - 1.0) < 0.1:
            c["cls"] = "Undetermined"
    assert any("strip" in p for p in checks.check_pattern(cells))


def test_pattern_fails_without_nonexistence_in_the_crossing_region(real):
    cells = list(checks.read_scan_csv(str(real / "scan.csv")).values())
    for c in cells:
        if c["r"] >= 1.05 and c["cls"] == "Nonexistence":
            c["cls"] = "Undetermined"
    assert any("crossing region" in p for p in checks.check_pattern(cells))


def _fired(real):
    cells = checks.read_scan_csv(str(real / "scan.csv")).values()
    return [c for c in cells if c["cls"] == "Nonexistence"]


def test_reference_confirms_real_detection_and_rejects_a_shifted_one(real):
    c = _fired(real)[0]
    verdict, detail = oracle.check_detection(
        c["r"], c["L"], MU, "general", c["t_detect"], T_OUT_SCAN
    )
    assert verdict == "pass", detail
    verdict, detail = oracle.check_detection(
        c["r"], c["L"], MU, "general", c["t_detect"] + 1e-3, T_OUT_SCAN
    )
    assert verdict == "fail", detail


def section_problems(d):
    return checks.check_section(str(d / "sec.csv"), SECTION_SEEDS, MU, T_OUT_SECTION)


def edit_section_row(path, k, edit):
    parts = path.read_text().split("\n")
    rows = [n for n, ln in enumerate(parts) if ln and ln[0] not in "#t"]
    f = [float(v) for v in parts[rows[k]].split(",")]
    parts[rows[k]] = ",".join(repr(v) for v in edit(f))
    path.write_text("\n".join(parts))


def test_real_section_passes(real):
    assert section_problems(real) == []
    (_, rows), = checks.read_section_csv(str(real / "sec.csv"))
    assert len(rows) > 20


def test_section_times_out_of_order_fail(copy):
    edit_section_row(copy / "sec.csv", 3, lambda f: [f[0] - 10.0] + f[1:])
    assert any("not in (" in p for p in section_problems(copy))


def test_section_jacobi_drift_fails(copy):
    edit_section_row(copy / "sec.csv", 3, lambda f: f[:3] + [f[3] * (1 + 1e-6)] + f[4:])
    assert any("Jacobi" in p for p in section_problems(copy))


def test_section_nonzero_p_r_fails(copy):
    # Rotate the velocity a little: |v| and C stay, p_r does not.
    def edit(f):
        t, x, y, vx, vy, r, L = f
        c, s = math.cos(1e-4), math.sin(1e-4)
        return [t, x, y, c * vx - s * vy, s * vx + c * vy, r, L]

    edit_section_row(copy / "sec.csv", 3, edit)
    assert any("p_r=" in p for p in section_problems(copy))


def test_section_rising_crossing_fails(copy):
    # The pericentre state of the same orbit family: p_r = 0 but dp_r/dt > 0.
    r = 0.06
    omega = oracle.omega_plane(r, MU)
    c0 = oracle.plane_jacobi(*SECTION_SEEDS[0], MU)
    vy = math.sqrt(2.0 * omega - c0)
    edit_section_row(copy / "sec.csv", 3, lambda f: [f[0], r, 0.0, 0.0, vy, r, r * vy + r * r])
    assert any("dp_r/dt" in p for p in section_problems(copy))


def test_section_column_mismatch_fails(copy):
    edit_section_row(copy / "sec.csv", 3, lambda f: f[:5] + [f[5] * 1.001, f[6]])
    assert any("columns disagree" in p for p in section_problems(copy))


def test_reference_confirms_real_crossings_and_rejects_a_shifted_one(real):
    (_, rows), = checks.read_section_csv(str(real / "sec.csv"))
    r, L = SECTION_SEEDS[0]
    times = [row[0] for row in rows]
    n_pass, _, failures = oracle.check_section(r, L, MU, T_OUT_SECTION, times)
    assert failures == [] and n_pass > 10
    times[5] += 1e-3
    _, _, failures = oracle.check_section(r, L, MU, T_OUT_SECTION, times)
    assert failures


def test_reference_variational_equations_match_finite_differences():
    y = np.array([0.7, 0.3, -0.2, 0.5, 0.3, -0.4, 0.2, 0.1])
    h = 1e-6
    jv = sum(
        y[4 + k] * (oracle.flow(y[:4] + h * e, MU) - oracle.flow(y[:4] - h * e, MU)) / (2 * h)
        for k, e in enumerate(np.eye(4))
    )
    assert np.allclose(oracle.joint(y, MU)[4:], jv, rtol=1e-7, atol=1e-8)


def test_trace_counts_match_outputs_and_leave_them_unchanged(tmp_path):
    import toruscan.integrate as integrate

    original_step = integrate.DopriDriver.step
    for workers in ("1", "2"):
        _run(SCAN_ARGV + ["--workers", workers, "--out", str(tmp_path / f"u{workers}")])
        tracer = tracing.Tracer().install()
        try:
            _run(SCAN_ARGV + ["--workers", workers, "--out", str(tmp_path / f"t{workers}")])
        finally:
            tracer.uninstall()
        untraced, traced = (tmp_path / f"{t}{workers}.csv" for t in "ut")
        assert untraced.read_text() == traced.read_text()
        m = tracing.layer_metrics(tracer)
        cells = checks.read_scan_csv(str(tmp_path / f"t{workers}.csv")).values()
        assert m["detector.runs"] == sum(c["cls"] != "SingularSeed" for c in cells)
        assert m["detector.nonexistence_cells"] == sum(c["cls"] == "Nonexistence" for c in cells)
        assert m["integrate.steps"] > 0 and m["dynamics.field_evals"] > 6 * m["integrate.steps"]
        assert 0.0 < m["scan.parallel_efficiency"] <= 1.0
    assert integrate.DopriDriver.step is original_step


def test_trace_install_fails_on_a_missing_hook_and_patches_nothing(monkeypatch):
    import toruscan.integrate as integrate

    original_step = integrate.DopriDriver.step
    monkeypatch.delattr(cli, "return_map")
    with pytest.raises(AttributeError):
        tracing.Tracer().install()
    assert integrate.DopriDriver.step is original_step
    assert tracing._active is None


def test_singular_cell_away_from_every_singularity_counts_as_failed(copy):
    cells = checks.read_scan_csv(str(copy / "scan.csv"))
    assert checks.unexplained_singular(cells, MU, "general", 1e-3) == []
    edit_first_row(copy / "scan.csv", lambda f: f[4] in ("Nonexistence", "Undetermined"),
                   lambda f: f[:4] + ["SingularSeed", "", "", ""] + f[8:])
    cells = checks.read_scan_csv(str(copy / "scan.csv"))
    bad = checks.unexplained_singular(cells, MU, "general", 1e-3)
    assert len(bad) == 1 and cells[bad[0]]["cls"] == "SingularSeed"
