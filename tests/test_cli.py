import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import toruscan
import toruscan.cli as cli
from toruscan.cli import main
from toruscan.config import RunConfig


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDetect:
    def test_single_seed_json(self, capsys):
        code, out, _ = run_cli(
            ["detect", "--mu", "0.1", "--seeds", "1.5:0.5", "--t-out", "10"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "toruscan.detect.v1"
        r = data["results"][0]
        assert r["classification"] == "Nonexistence"
        assert 0.0 < r["t_detect"] <= 10.0
        assert r["q"] == pytest.approx(r["t_detect"] / 10.0)

    def test_symmetric_formulation_flag(self, capsys):
        code, out, _ = run_cli(
            [
                "detect",
                "--mu",
                "0.1",
                "--seeds",
                "1.5:0.5",
                "--formulation",
                "symmetric",
                "--t-out",
                "10",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"][0]["classification"] == "Nonexistence"

    def test_missing_seeds_is_config_error(self, capsys):
        code, _, err = run_cli(["detect", "--mu", "0.1"], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert any("seed" in m for m in payload["messages"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seeds", "1.5:0.5", "--t-out", "nan"],
            ["--seeds", "3.5:1.87", "--t-out", "inf"],
            ["--seeds", "nan:0.5"],
            ["--seeds", "1.5:-inf"],
            ["--seeds", "1.5:0.5", "--rel-tol", "nan"],
            ["--seeds", "1.5:0.5", "--rel-tol", "1e200"],
        ],
    )
    def test_non_finite_or_out_of_range_setting_is_config_error(self, flags, capsys):
        code, out, err = run_cli(["detect", "--mu", "0.1", *flags], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"


class TestScan:
    def test_writes_csv_json_png(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code, _, _ = run_cli(
            [
                "scan",
                "--mu",
                "0.1",
                "--n-r",
                "5",
                "--n-L",
                "5",
                "--t-out",
                "2",
                "--out",
                prefix,
                "--png",
                "--ratios",
                "9/4",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()
        assert (tmp_path / "run.png").exists()
        lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert len(data_lines) == 26
        assert any(ln.startswith("# config:") for ln in lines)
        data = json.loads((tmp_path / "run.json").read_text())
        assert any(o["label"] == "resonance 9/4" for o in data["overlays"])

    def test_fixed_step_csv_identical_across_worker_flags(self, tmp_path, capsys):
        texts = []
        for k, workers in enumerate(("1", "2")):
            prefix = str(tmp_path / f"w{k}")
            code, _, _ = run_cli(
                [
                    "scan",
                    "--mu",
                    "0.1",
                    "--n-r",
                    "4",
                    "--n-L",
                    "4",
                    "--t-out",
                    "2",
                    "--fixed-step",
                    "--h-init",
                    "0.02",
                    "--workers",
                    workers,
                    "--out",
                    prefix,
                ],
                capsys,
            )
            assert code == 0
            texts.append((tmp_path / f"w{k}.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_stdout_json_without_out(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--n-r", "3", "--n-L", "3", "--t-out", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["format"] == "toruscan.scan.v1"

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "command = scan\nmu = 0.1\nn_r = 4\nn_L = 4\nt_out = 5\n"
        )
        code, out, _ = run_cli(
            ["scan", "--config", str(cfgfile), "--t-out", "1"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["metadata"]["t_out"] == 1.0
        assert len(data["r_values"]) == 4


class TestOtherCommands:
    def test_pendulum_sweep(self, capsys):
        code, out, _ = run_cli(
            [
                "pendulum",
                "--p0-min",
                "0.5",
                "--p0-max",
                "2.5",
                "--n-p0",
                "3",
                "--t-out",
                "60",
                "--rel-tol",
                "1e-8",
                "--abs-tol",
                "1e-10",
            ],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["classification"] for r in results] == [
            "Nonexistence",
            "Nonexistence",
            "Undetermined",
        ]

    def test_overlays_blocks(self, capsys):
        code, out, _ = run_cli(
            ["overlays", "--mu", "0.0", "--ratios", "2,9/4", "--curve-samples", "16"],
            capsys,
        )
        assert code == 0
        assert "# curve: resonance 2" in out
        assert "# curve: resonance 9/4" in out
        assert "# curve: crossing-boundary(+)" in out

    def test_section_csv(self, tmp_path, capsys):
        prefix = str(tmp_path / "sec")
        code, _, err = run_cli(
            [
                "section",
                "--mu",
                "0.0",
                "--seeds",
                "1.2:1.0",
                "--n-returns",
                "2",
                "--t-out",
                "40",
                "--out",
                prefix,
            ],
            capsys,
        )
        assert code == 0
        text = (tmp_path / "sec.csv").read_text()
        assert text.startswith("# seed: r=1.2 L=1.0")
        assert "t,x,y,v_x,v_y,r,L" in text
        summary = json.loads(err)
        assert summary["results"][0]["n_crossings"] == 2

    def test_lyapunov(self, capsys):
        code, out, _ = run_cli(
            ["lyapunov", "--mu", "0.1", "--seeds", "1.05:-0.5", "--t-out", "20"],
            capsys,
        )
        assert code == 0
        r = json.loads(out)["results"][0]
        assert r["lyapunov"] is not None

    def test_invalid_flag_value(self, capsys):
        code, _, err = run_cli(["scan", "--plane", "sideways"], capsys)
        assert code == 2
        assert "plane" in json.loads(err)["messages"][0]

    def test_invalid_number_is_config_error(self, capsys):
        code, _, err = run_cli(["scan", "--mu", "abc", "--n-r", "2.5"], capsys)
        assert code == 2
        messages = json.loads(err)["messages"]
        assert len(messages) == 2
        assert "'mu'" in messages[0] and "'n_r'" in messages[1]

    def test_pendulum_honours_h_max(self, monkeypatch, capsys):
        seen = []
        real_detect = cli.pendulum_detect

        def fake_detect(q0, p0, t_out, opts):
            seen.append(opts)
            return real_detect(q0, p0, 0.1, opts)

        monkeypatch.setattr(cli, "pendulum_detect", fake_detect)
        code, _, _ = run_cli(["pendulum", "--h-max", "0.1"], capsys)
        assert code == 0
        assert [o.h_max for o in seen] == [0.1]


class TestFlags:
    def test_one_flag_per_config_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
        keys = [f for f in fields(RunConfig) if f.name != "command"]
        expected = {"--help", "--config"}
        for f in keys:
            expected.add("--" + f.name.replace("_", "-"))
            if isinstance(f.default, bool):
                expected.add("--no-" + f.name.replace("_", "-"))
        assert flags == expected

    @pytest.mark.parametrize(
        "words,key,value",
        [
            (["overlays", "--curve-samples", "8", "--L-min", "-1e-3"], "L_min", -1e-3),
            (["pendulum", "--t-out", "1", "--q0", "-1e-1"], "q0", -0.1),
            (
                ["pendulum", "--t-out", "1", "--p0-max", "1", "--p0-min", "-2E-1"],
                "p0_min",
                -0.2,
            ),
        ],
    )
    def test_negative_value_in_exponent_form(self, words, key, value, capsys):
        # A spaced negative value parses as the joined form and as in a file.
        code, out, err = run_cli(words, capsys)
        assert (code, err) == (0, "")
        assert f"{key} = {value!r}" in out
        *head, flag, text = words
        assert run_cli([*head, f"{flag}={text}"], capsys) == (0, out, "")


def run_python(*args):
    # The child imports the package under test, installed or not.
    src = str(Path(toruscan.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_python("-m", "toruscan.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.2.0"

    def test_import_does_not_load_numpy(self):
        # The package promises the standard library only: every top-level
        # module the import adds is stdlib or toruscan (multiprocessing
        # registers __mp_main__).
        proc = run_python(
            "-c",
            "import sys; before = set(sys.modules); import toruscan.cli; "
            "print('numpy' in sys.modules); "
            "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(added - sys.stdlib_module_names"
            " - {'toruscan', '__mp_main__'}))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "[]"]
