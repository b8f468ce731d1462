import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from entspec import cli
from entspec.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateCommand:
    def test_ghz_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "ghz.json"
        code, out, _ = run_cli(
            capsys, "state", "--kind", "ghz", "--n", "3", "--out", str(out_file)
        )
        assert code == 0 and out == ""
        data = json.loads(out_file.read_text())
        assert data["n"] == 3
        assert data["amplitudes"][0][0] == pytest.approx(1 / math.sqrt(2))
        assert data["amplitudes"][7][0] == pytest.approx(1 / math.sqrt(2))

    def test_basis_needs_index_default_zero(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--kind", "basis", "--n", "2")
        assert code == 0
        assert json.loads(out)["amplitudes"][0] == [1.0, 0.0]

    def test_golden_bytes_basis_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "state", "--kind", "basis", "--n", "1", "--index", "1"
        )
        assert code == 0
        assert out == '{"n": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}\n'


class TestPurityCommand:
    def test_ghz_cut(self, capsys):
        code, out, _ = run_cli(
            capsys, "purity", "--kind", "ghz", "--n", "3", "--mask", "0x1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["mask"] == "0x1"
        assert data["purity"] == pytest.approx(0.5, abs=1e-12)
        assert data["participation"] == pytest.approx(2.0, abs=1e-12)

    def test_state_file_source(self, capsys, tmp_path):
        out_file = tmp_path / "w.json"
        run_cli(capsys, "state", "--kind", "w", "--n", "3", "--out", str(out_file))
        code, out, _ = run_cli(
            capsys, "purity", "--state-file", str(out_file), "--mask", "0x1"
        )
        assert code == 0
        assert json.loads(out)["participation"] == pytest.approx(1.8, abs=1e-12)

    def test_golden_bytes_exact_case(self, capsys):
        # every quantity is an exactly representable float here
        code, out, _ = run_cli(
            capsys, "purity", "--kind", "basis", "--n", "2", "--index", "0",
            "--mask", "0x1",
        )
        assert code == 0
        assert out == (
            '{"n": 2, "mask": "0x1", "n_A": 1, "n_B": 1, "purity": 1.0, '
            '"participation": 1.0, "effective_spins": 0.0}\n'
        )


class TestSpectrumCommand:
    def test_ghz6_balanced_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--kind", "ghz", "--n", "6", "--family", "balanced"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mask_hex,n_A,purity,participation"
        assert len(lines) == 21
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(2.0, abs=1e-9)

    def test_summary_and_histogram_formats(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--kind", "w", "--n", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 10
        assert data["mean_participation"] == pytest.approx(25 / 13, abs=1e-10)

        code, out, _ = run_cli(
            capsys, "spectrum", "--kind", "cluster", "--n", "6", "--format", "tsv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "bin_center\tdensity\tcount"
        total = sum(int(ln.split("\t")[2]) for ln in lines[1:])
        assert total == 20

    def test_cluster13_within_runtime_budget(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "cluster", "--n", "13")
        elapsed = time.monotonic() - start
        assert code == 0
        assert len(out.strip().split("\n")) == 1717  # C(13,6) masks + header
        assert elapsed < 60.0


class TestSampleCommand:
    def test_fixed_mask_rows_and_determinism(self, capsys):
        args = (
            "sample", "--kind", "haar", "--n", "4", "--count", "5",
            "--seed", "9", "--mask", "0x3",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        lines = out1.strip().split("\n")
        assert lines[0] == "sample,purity,participation"
        assert len(lines) == 6
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_family_summary_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--kind", "phase-sphere", "--n", "3", "--count", "3",
            "--seed", "1", "--family", "balanced",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sample,mean_participation,var_population,var_sample,min,max"
        assert len(lines) == 4


class TestTheoryCommand:
    def test_participation_curve_peak(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--model", "asymptotic", "--n", "12",
            "--pdf", "participation", "--points", "401",
        )
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 401
        xs, ys = zip(*(map(float, ln.split("\t")) for ln in lines))
        peak_x = xs[int(np.argmax(ys))]
        assert abs(peak_x - 4096 / 127) / (4096 / 127) < 0.01

    def test_purity_curve_explicit_split(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--model", "exact-sphere", "--na", "1", "--nb", "2",
            "--pdf", "purity", "--xmin", "0.3", "--xmax", "1.0", "--points", "11",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 12

    def test_too_wide_model_needs_range(self, capsys):
        code, _, err = run_cli(
            capsys, "theory", "--model", "asymptotic", "--n", "4",
            "--pdf", "participation",
        )
        assert code == 2
        assert "range" in err


class TestMeasuresCommand:
    def test_w3_report(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--kind", "w", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["Q"] == pytest.approx(8 / 9, abs=1e-10)
        assert data["R"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)


class TestTable1Command:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--nmin", "5", "--nmax", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,ghz,w,cluster,random"
        n5 = [float(v) for v in lines[1].split(",")]
        assert n5[1] == pytest.approx(2.0, abs=1e-9)
        assert n5[2] == pytest.approx(25 / 13, abs=1e-9)
        assert n5[3] == pytest.approx(3.6, abs=1e-9)
        assert n5[4] == pytest.approx(32 / 11, abs=1e-12)

    def test_haar_column_deterministic(self, capsys):
        args = ("table1", "--nmin", "5", "--nmax", "5", "--haar-seed", "4")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1.startswith("n,ghz,w,cluster,random,haar")
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestErrorsAndDeterminism:
    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["state", "--kind", "ginibre", "--n", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_mask_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "purity", "--kind", "ghz", "--n", "3", "--mask", "zz"
        )
        assert code == 2 and "mask" in err

    def test_full_mask_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "purity", "--kind", "ghz", "--n", "3", "--mask", "0x7"
        )
        assert code == 2 and "empty" in err

    def test_size_guard_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "purity", "--kind", "ghz", "--n", "30", "--mask", "0x1"
        )
        assert code == 2 and "guard" in err

    @pytest.mark.parametrize(
        "args, named",
        [
            (("spectrum", "--kind", "w", "--n", "6", "--family", "fixed-size"), "size"),
            (("theory", "--model", "asymptotic", "--na", "2"), "--nb"),
            (("theory", "--model", "asymptotic"), "--n"),
            (("table1", "--nmin", "7", "--nmax", "5"), "nmin"),
            (
                ("sample", "--kind", "haar", "--n", "3", "--count", "-1",
                 "--seed", "1", "--mask", "0x1"),
                "count",
            ),
            (("spectrum", "--kind", "ghz", "--n", "4", "--family", "balanced",
              "--size", "2"), "size"),
            (("sample", "--kind", "haar", "--n", "4", "--count", "3", "--seed", "1",
              "--family", "balanced", "--size", "1"), "size"),
            (("sample", "--kind", "haar", "--n", "4", "--count", "3", "--seed", "1",
              "--mask", "0x1", "--size", "2"), "--size"),
            (("purity", "--kind", "w", "--n", "4", "--index", "3", "--mask", "0x1"),
             "--index"),
            (("state", "--kind", "ghz", "--n", "3", "--index", "1"), "--index"),
            (("theory", "--model", "asymptotic", "--n", "8", "--pdf", "purity",
              "--points", "0"), "--points"),
            (("theory", "--model", "asymptotic", "--n", "8", "--pdf", "purity",
              "--points", "-1"), "--points"),
        ],
    )
    def test_invalid_option_combinations_exit_2(self, capsys, args, named):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert named in err

    def test_sample_checks_cut_before_drawing(self, capsys, monkeypatch):
        def refuse(*_args):
            raise AssertionError("states drawn before the cut was checked")

        monkeypatch.setattr(cli, "sample_haar", refuse)
        for cut in (("--mask", "0x0"), ("--family", "fixed-size", "--size", "8")):
            code, out, _ = run_cli(
                capsys, "sample", "--kind", "haar", "--n", "8", "--count", "20000",
                "--seed", "1", *cut,
            )
            assert code == 2 and out == ""

    def test_nan_amplitude_in_state_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, "spectrum", "--state-file", str(path))
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("option, value", [("--xmin", "nan"), ("--xmax", "inf")])
    def test_non_finite_curve_range_exits_2(self, capsys, option, value):
        code, out, err = run_cli(
            capsys, "theory", "--model", "asymptotic", "--n", "10",
            "--pdf", "purity", option, value,
        )
        assert code == 2 and out == ""
        assert option in err

    def test_missing_state_file_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "purity", "--state-file", "/nonexistent.json", "--mask", "0x1"
        )
        assert code == 2

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "table1", "--nmin", "5", "--nmax", "7")
        out_file = tmp_path / "t.csv"
        code2, _, _ = run_cli(
            capsys, "table1", "--nmin", "5", "--nmax", "7", "--out", str(out_file)
        )
        assert code == code2 == 0
        assert out_file.read_text() == out

    def test_module_entry_point(self, tmp_path):
        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "entspec", "purity", "--kind", "ghz", "--n", "2",
             "--mask", "0x1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["participation"] == pytest.approx(2.0)
