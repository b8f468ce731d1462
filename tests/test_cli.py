import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entspec import cli, state_to_dict
from entspec.cli import main
from entspec.states import BLOCK_BYTES, MAX_QUBITS
from helpers import blas_core, haar_states, path_balanced_mean, path_cut_rank


# stand for a GHZ(3) and a W(18) state file written to the test's tmp_path
GHZ3_FILE = "<ghz3.json>"
W18_FILE = "<w18.json>"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pinned(by_core: dict[str, str]) -> str:
    """The bytes that a pin of the BLAS kernels records for the OpenBLAS core
    this process runs (`blas_core`), or its SkylakeX bytes where the BLAS
    cannot name its core.  A core with no recorded bytes fails the test and
    names the core, whose bytes are then to be recorded here."""
    core = blas_core() or "SkylakeX"
    if core not in by_core:
        pytest.fail(f"no pinned bytes recorded for the OpenBLAS core {core!r}")
    return by_core[core]


def run_module(args, **env):
    """`python -m entspec args` in a child that imports the same package as
    this process, installed or not, with `env` added to its environment."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "entspec", *args.split()],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **env},
    )


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


class TestJsonBytes:
    """Literal JSON text: separators, float repr, null and nested triples."""

    def test_measures_ghz3(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--kind", "ghz", "--n", "3")
        assert code == 0
        assert out == (
            '{"n": 3, "Q": 1.0, "tau1": [1.0, 1.0, 1.0], "tau2": [0.0, 0.0, 0.0], '
            '"R": [0.0, 0.0, 0.0], "concurrence": [[0, 1, 0.0], [0, 2, 0.0], '
            '[1, 2, 0.0]]}\n'
        )
        # each qubit's purity is 1/2, so tau1 = 2 (1 - 1/2) = 1; a GHZ pair is
        # an even mixture of |00> and |11>, separable
        data, tau1 = json.loads(out), float(2 * (1 - Fraction(1, 2)))
        assert data["tau1"] == [tau1] * 3 and data["Q"] == tau1

    def test_measures_w4(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--kind", "w", "--n", "4")
        assert code == 0
        assert out == (
            '{"n": 4, "Q": 0.75, "tau1": [0.75, 0.75, 0.75, 0.75], '
            '"tau2": [0.75, 0.75, 0.75, 0.75], "R": [1.0, 1.0, 1.0, 1.0], '
            '"concurrence": [[0, 1, 0.5], [0, 2, 0.5], [0, 3, 0.5], [1, 2, 0.5], '
            '[1, 3, 0.5], [2, 3, 0.5]]}\n'
        )

    def test_purity_cluster5(self, capsys):
        code, out, _ = run_cli(
            capsys, "purity", "--kind", "cluster", "--n", "5", "--mask", "0x3"
        )
        assert code == 0
        assert out == (
            '{"n": 5, "mask": "0x3", "n_A": 2, "n_B": 3, '
            '"purity": 0.5, "participation": 2.0, "effective_spins": 1.0}\n'
        )
        # one chain edge crosses the cut: rank 1, purity exactly 1/2
        assert json.loads(out)["purity"] == float(Fraction(1, 2 ** path_cut_rank(5, 0x3)))

    def test_state_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        code, _, _ = run_cli(
            capsys, "state", "--kind", "basis", "--n", "2", "--index", "2",
            "--out", str(path),
        )
        assert code == 0
        assert path.read_text() == (
            '{"n": 2, "amplitudes": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}\n'
        )
        code, out, _ = run_cli(capsys, "measures", "--state-file", str(path))
        assert code == 0
        assert out == (
            '{"n": 2, "Q": 0.0, "tau1": [0.0, 0.0], "tau2": [0.0, 0.0], '
            '"R": [null, null], "concurrence": [[0, 1, 0.0]]}\n'
        )

    def test_measures_complex_haar6_state_file(self, capsys, tmp_path):
        # a complex state with two entangled pairs, (0, 1) and (3, 4); its
        # last digits follow the OpenBLAS core
        (state,) = haar_states(6, 1, 179)
        path = tmp_path / "haar6.json"
        path.write_text(json.dumps(state_to_dict(state)))
        code, out, _ = run_cli(capsys, "measures", "--state-file", str(path))
        assert code == 0
        assert out == pinned({
            "SkylakeX": (
                '{"n": 6, "Q": 0.9177587068587606, "tau1": [0.9536908804109623, '
                '0.9049027201278961, 0.8944704894558804, 0.9076399181831236, '
                '0.9665434698781943, 0.8793047630965065], "tau2": [4.179248279714122e-06, '
                '4.179248279714122e-06, 0.0, 0.0014941530124749555, 0.0014941530124749555, '
                '0.0], "R": [4.382183331682075e-06, 4.618450344721519e-06, 0.0, '
                '0.0016461957903591215, 0.0015458725438011098, 0.0], "concurrence": '
                '[[0, 1, 0.002044320982554873], [0, 2, 0.0], [0, 3, 0.0], [0, 4, 0.0], '
                '[0, 5, 0.0], [1, 2, 0.0], [1, 3, 0.0], [1, 4, 0.0], [1, 5, 0.0], '
                '[2, 3, 0.0], [2, 4, 0.0], [2, 5, 0.0], [3, 4, 0.03865427547471244], '
                '[3, 5, 0.0], [4, 5, 0.0]]}\n'
            ),
            "Haswell": (
                '{"n": 6, "Q": 0.9177587068587605, "tau1": [0.9536908804109621, '
                '0.9049027201278954, 0.8944704894558804, 0.9076399181831238, '
                '0.9665434698781938, 0.8793047630965072], "tau2": [4.1792482797144054e-06, '
                '4.1792482797144054e-06, 0.0, 0.0014941530124749716, '
                '0.0014941530124749716, 0.0], "R": [4.382183331682373e-06, '
                '4.618450344721836e-06, 0.0, 0.0016461957903591388, 0.0015458725438011272, '
                '0.0], "concurrence": [[0, 1, 0.0020443209825549424], [0, 2, 0.0], '
                '[0, 3, 0.0], [0, 4, 0.0], [0, 5, 0.0], [1, 2, 0.0], [1, 3, 0.0], '
                '[1, 4, 0.0], [1, 5, 0.0], [2, 3, 0.0], [2, 4, 0.0], [2, 5, 0.0], '
                '[3, 4, 0.038654275474712646], [3, 5, 0.0], [4, 5, 0.0]]}\n'
            ),
            "Sandybridge": (
                '{"n": 6, "Q": 0.9177587068587605, "tau1": [0.9536908804109621, '
                '0.9049027201278954, 0.8944704894558801, 0.9076399181831238, '
                '0.9665434698781938, 0.8793047630965072], "tau2": [4.179248279714065e-06, '
                '4.179248279714065e-06, 0.0, 0.0014941530124749662, 0.0014941530124749662, '
                '0.0], "R": [4.3821833316820165e-06, 4.61845034472146e-06, 0.0, '
                '0.0016461957903591328, 0.0015458725438011215, 0.0], '
                '"concurrence": [[0, 1, 0.002044320982554859], [0, 2, 0.0], [0, 3, 0.0], '
                '[0, 4, 0.0], [0, 5, 0.0], [1, 2, 0.0], [1, 3, 0.0], [1, 4, 0.0], '
                '[1, 5, 0.0], [2, 3, 0.0], [2, 4, 0.0], [2, 5, 0.0], '
                '[3, 4, 0.03865427547471258], [3, 5, 0.0], [4, 5, 0.0]]}\n'
            ),
            "Nehalem": (
                '{"n": 6, "Q": 0.9177587068587604, "tau1": [0.9536908804109621, '
                '0.9049027201278954, 0.8944704894558801, 0.9076399181831238, '
                '0.9665434698781936, 0.8793047630965072], "tau2": [4.179248279713384e-06, '
                '4.179248279713384e-06, 0.0, 0.0014941530124749501, 0.0014941530124749501, '
                '0.0], "R": [4.382183331681302e-06, 4.618450344720707e-06, 0.0, '
                '0.0016461957903591152, 0.0015458725438011053, 0.0], '
                '"concurrence": [[0, 1, 0.0020443209825546926], [0, 2, 0.0], [0, 3, 0.0], '
                '[0, 4, 0.0], [0, 5, 0.0], [1, 2, 0.0], [1, 3, 0.0], [1, 4, 0.0], '
                '[1, 5, 0.0], [2, 3, 0.0], [2, 4, 0.0], [2, 5, 0.0], '
                '[3, 4, 0.03865427547471237], [3, 5, 0.0], [4, 5, 0.0]]}\n'
            ),
        })


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

    def test_golden_bytes_csv_json_tsv(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--kind", "w", "--n", "3", "--family", "all-sizes"
        )
        assert code == 0
        assert out == (
            "mask_hex,n_A,purity,participation\n"
            "0x1,1,0.55555555555555558,1.7999999999999998\n"
            "0x2,1,0.55555555555555558,1.7999999999999998\n"
            "0x3,2,0.55555555555555558,1.7999999999999998\n"
            "0x4,1,0.55555555555555558,1.7999999999999998\n"
            "0x5,2,0.55555555555555558,1.7999999999999998\n"
            "0x6,2,0.55555555555555558,1.7999999999999998\n"
        )
        # each purity is W's (k^2 + (n - k)^2) / n^2, rounded once
        for row in out.split("\n")[1:-1]:
            _, k, purity, _ = row.split(",")
            k = int(k)
            assert float(purity) == float(Fraction(k * k + (3 - k) ** 2, 9))
        code, out, _ = run_cli(
            capsys, "spectrum", "--kind", "cluster", "--n", "4", "--format", "json"
        )
        assert code == 0
        assert out == (
            '{"n": 4, "family": "balanced", "count": 6, '
            '"mean_participation": 3.3333333333333335, '
            '"var_population": 0.8888888888888888, "var_sample": 1.0666666666666667, '
            '"min": 2.0, "max": 4.0}\n'
        )
        code, out, _ = run_cli(
            capsys, "spectrum", "--kind", "w", "--n", "4", "--family", "all-sizes",
            "--format", "tsv",
        )
        assert code == 0
        assert out == (
            "bin_center\tdensity\tcount\n"
            "1.6000000000000001\t1.4285714285714288\t8\n"
            "2\t1.0714285714285712\t6\n"
        )

    def test_cluster13_within_runtime_budget(self, capsys, tmp_path):
        # from a state file, so the sweep runs the purity kernel, not the rule
        path = str(tmp_path / "cluster13.json")
        assert run_cli(capsys, "state", "--kind", "cluster", "--n", "13", "--out", path)[0] == 0
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "spectrum", "--state-file", path)
        elapsed = time.monotonic() - start
        assert code == 0
        assert len(out.strip().split("\n")) == 1717  # C(13,6) masks + header
        assert elapsed < 60.0

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_summary_holds_no_more_than_the_rule(self, tmp_path, fmt):
        # balanced n = 22 has C(22, 11) masks; the cluster rule holds the
        # masks and two more int64 arrays of that size, and a summary then
        # keeps only the participations, taken in place of the purities, so
        # the peak stays under 3.5 mask-sized arrays (about 17.6 MiB here, and
        # 21.7 MiB for JSON and 27.6 MiB for TSV while the masks, the purities
        # and the participations were all held)
        def peak():
            gc.collect()
            tracemalloc.start()
            try:
                code = main([
                    "spectrum", "--kind", "cluster", "--n", "22", "--format", fmt,
                    "--out", str(tmp_path / "out.txt"),
                ])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # first-call allocations are not the sweep's
        code, held = peak()
        assert code == 0
        assert held <= 3.5 * 8 * math.comb(22, 11)

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_w_summary_holds_no_more_than_the_cluster_bound(self, tmp_path, fmt):
        # the W rule works in place on two float64 arrays of the masks' size,
        # so its summaries peak at 3.0 (json) and 3.1 (tsv) mask-sized arrays,
        # 16.2 and 16.9 MiB; a rule of four int64 temporaries reads 4.0
        args = [
            "spectrum", "--kind", "w", "--n", "22", "--format", fmt,
            "--out", str(tmp_path / "out.txt"),
        ]
        main(args)  # first-call allocations are not the sweep's
        gc.collect()
        tracemalloc.start()
        try:
            code = main(args)
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert held <= 3.5 * 8 * math.comb(22, 11)


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

    def test_golden_bytes_mask_and_family(self, capsys):
        # Haar and phase-sphere purities of the complex Gram: the last digits
        # follow the OpenBLAS core
        code, out, _ = run_cli(
            capsys, "sample", "--kind", "haar", "--n", "3", "--count", "3",
            "--seed", "5", "--mask", "0x1",
        )
        assert code == 0
        assert out == pinned({
            "SkylakeX": (
                "sample,purity,participation\n"
                "0,0.78027499602613282,1.2815994426233135\n"
                "1,0.73301229430487203,1.3642335984941656\n"
                "2,0.84768793036626522,1.1796794128800729\n"
            ),
            "Haswell": (
                "sample,purity,participation\n"
                "0,0.78027499602613293,1.2815994426233133\n"
                "1,0.73301229430487203,1.3642335984941656\n"
                "2,0.84768793036626533,1.1796794128800729\n"
            ),
            "Sandybridge": (
                "sample,purity,participation\n"
                "0,0.78027499602613293,1.2815994426233133\n"
                "1,0.73301229430487203,1.3642335984941656\n"
                "2,0.84768793036626522,1.1796794128800729\n"
            ),
            "Nehalem": (
                "sample,purity,participation\n"
                "0,0.78027499602613293,1.2815994426233133\n"
                "1,0.73301229430487203,1.3642335984941656\n"
                "2,0.84768793036626511,1.1796794128800732\n"
            ),
        })
        code, out, _ = run_cli(
            capsys, "sample", "--kind", "phase-sphere", "--n", "3", "--count", "2",
            "--seed", "5", "--family", "all-sizes",
        )
        assert code == 0
        assert out == pinned({
            "SkylakeX": (
                "sample,mean_participation,var_population,var_sample,min,max\n"
                "0,1.2172281751757066,0.008490874041001328,0.010189048849201594,"
                "1.088020104172424,1.2965041857390078\n"
                "1,1.3293793445964559,0.0029080997207097162,0.0034897196648516595,"
                "1.2557136502428798,1.3833052806578987\n"
            ),
            "Haswell": (
                "sample,mean_participation,var_population,var_sample,min,max\n"
                "0,1.2172281751757066,0.0084908740410013384,0.010189048849201606,"
                "1.0880201041724238,1.2965041857390078\n"
                "1,1.3293793445964559,0.0029080997207097214,0.0034897196648516655,"
                "1.2557136502428798,1.3833052806578989\n"
            ),
            "Sandybridge": (
                "sample,mean_participation,var_population,var_sample,min,max\n"
                "0,1.2172281751757066,0.0084908740410013384,0.010189048849201606,"
                "1.0880201041724238,1.2965041857390078\n"
                "1,1.3293793445964559,0.0029080997207097162,0.0034897196648516595,"
                "1.2557136502428798,1.3833052806578987\n"
            ),
            "Nehalem": (
                "sample,mean_participation,var_population,var_sample,min,max\n"
                "0,1.2172281751757066,0.0084908740410013193,0.010189048849201583,"
                "1.088020104172424,1.2965041857390078\n"
                "1,1.3293793445964559,0.002908099720709724,0.003489719664851669,"
                "1.2557136502428798,1.3833052806578989\n"
            ),
        })

    @pytest.mark.parametrize("cut", [("--mask", "0x3"), ("--family", "balanced")])
    def test_zero_count_prints_the_header_only(self, capsys, cut):
        code, out, err = run_cli(
            capsys, "sample", "--kind", "haar", "--n", "6", "--count", "0",
            "--seed", "1", *cut,
        )
        assert (code, err) == (0, "")
        assert out == {
            "--mask": "sample,purity,participation\n",
            "--family": "sample,mean_participation,var_population,var_sample,min,max\n",
        }[cut[0]]

    def test_family_rows_do_not_depend_on_count(self, capsys):
        # 8 rows of Haar n = 11 fill a sampled block, so 20 samples span three
        # blocks; sample i's statistics row reads the same at any count past i
        def rows(count):
            code, out, _ = run_cli(
                capsys, "sample", "--kind", "haar", "--n", "11", "--count", str(count),
                "--seed", "1", "--family", "balanced",
            )
            assert code == 0
            return out.splitlines()[1:]

        assert BLOCK_BYTES // (16 << 11) == 8
        full = rows(20)
        assert [line.split(",")[0] for line in full] == [str(i) for i in range(20)]
        for i in range(20):
            assert rows(i + 1)[i] == full[i]

    @pytest.mark.parametrize("cut", [("--mask", "0x1f"), ("--family", "max-unbalanced")])
    def test_state_memory_does_not_grow_with_count(self, tmp_path, cut):
        # at n = 10 a state is 16 KiB and an output row about 100 B; the
        # states are drawn and evaluated one block at a time, so from C to 4C
        # samples the peak may grow by the output text but not by 3C states
        def peak(count):
            gc.collect()
            tracemalloc.start()
            try:
                code = main([
                    "sample", "--kind", "haar", "--n", "10", "--count", str(count),
                    "--seed", "3", *cut, "--out", str(tmp_path / "out.csv"),
                ])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        count = 64
        peak(count)  # first-call allocations are not the states
        (code, small), (code4, large) = peak(count), peak(4 * count)
        assert code == code4 == 0
        assert large - small <= 3 * count * 1024


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

    @pytest.mark.parametrize("pdf", ["purity", "participation"])
    def test_exact_sphere_sixty_qubits(self, capsys, pdf):
        code, out, _ = run_cli(
            capsys, "theory", "--model", "exact-sphere", "--n", "60",
            "--pdf", pdf, "--points", "21",
        )
        assert code == 0
        densities = [float(ln.split("\t")[1]) for ln in out.strip().split("\n")[1:]]
        assert len(densities) == 21
        assert all(math.isfinite(d) and d > 0 for d in densities)

    def test_explicit_wide_range_at_two_hundred_qubits(self, capsys):
        # the default mu +/- 8 sigma range is narrower than one ulp here
        code, out, _ = run_cli(
            capsys, "theory", "--model", "exact-sphere", "--n", "200",
            "--xmin", "1", "--xmax", "1e31", "--points", "5",
        )
        assert code == 0
        xs = [float(ln.split("\t")[0]) for ln in out.strip().split("\n")[1:]]
        assert len(set(xs)) == len(xs) == 5

    def test_golden_bytes_purity_and_participation(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--model", "exact-sphere", "--na", "1", "--nb", "2",
            "--pdf", "purity", "--xmin", "0.3", "--xmax", "1.0", "--points", "4",
        )
        assert code == 0
        assert out == (
            "x\tdensity\n"
            "0.29999999999999999\t0.009430736278305268\n"
            "0.53333333333333333\t1.2306763818040181\n"
            "0.76666666666666661\t2.9072657799105484\n"
            "1\t0.12432778935104874\n"
        )
        code, out, _ = run_cli(
            capsys, "theory", "--model", "asymptotic", "--n", "10", "--points", "3"
        )
        assert code == 0
        assert out == (
            "x\tdensity\n"
            "13.779422675615621\t1.9266798686891153e-14\n"
            "16.795626139026297\t0.36484768657236855\n"
            "19.811829602436969\t9.3201399911786418e-15\n"
        )

    @pytest.mark.parametrize(
        "pdf, xmin, xmax, expected",
        [
            # 1/y overflows and y^2 underflows at the first point
            ("participation", "1e-200", "1",
             "9.9999999999999998e-201\t0\n0.5\t0\n1\t0\n"),
            # y^2 overflows at the last point
            ("participation", "1", "1e300",
             "1\t0\n5.0000000000000003e+299\t0\n1.0000000000000001e+300\t0\n"),
            # (x - mu)^2 overflows at both ends
            ("purity", "-1e300", "1e300",
             "-1.0000000000000001e+300\t0\n0\t0\n1.0000000000000001e+300\t0\n"),
        ],
    )
    def test_far_tails_read_zero_without_warnings(self, capsys, pdf, xmin, xmax,
                                                  expected):
        # pytest turns a numpy RuntimeWarning into an error here
        code, out, err = run_cli(
            capsys, "theory", "--model", "asymptotic", "--n", "10", "--pdf", pdf,
            f"--xmin={xmin}", f"--xmax={xmax}", "--points", "3",
        )
        assert code == 0 and err == ""
        assert out == "x\tdensity\n" + expected

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

    def test_golden_bytes_with_and_without_haar_column(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--nmin", "4", "--nmax", "5")
        assert code == 0
        assert out == (
            "n,ghz,w,cluster,random\n"
            "4,2,2,3.3333333333333335,2.2857142857142856\n"
            "5,2,1.9230769230769229,3.6000000000000001,2.9090909090909092\n"
        )
        # GHZ and cluster participations are powers of two, so their means are
        # the exact means rounded once; each W cut's purity is rounded once,
        # and the mean of its equal participations is their reciprocal
        for row in out.split("\n")[1:-1]:
            n, ghz, w, cluster, _ = row.split(",")
            n = int(n)
            assert float(ghz) == 2.0
            assert float(cluster) == float(path_balanced_mean(n))
            k = n // 2
            assert float(w) == 1.0 / float(Fraction(k * k + (n - k) ** 2, n * n))
        code, out, _ = run_cli(
            capsys, "table1", "--nmin", "4", "--nmax", "5", "--haar-seed", "3"
        )
        assert code == 0
        # one Haar state's complex Gram sweep: its last digits follow the
        # OpenBLAS core
        skylakex = (
            "n,ghz,w,cluster,random,haar\n"
            "4,2,2,3.3333333333333335,2.2857142857142856,2.3661362544369786\n"
            "5,2,1.9230769230769229,3.6000000000000001,2.9090909090909092,"
            "2.944529329091103\n"
        )
        assert out == pinned({
            "SkylakeX": skylakex, "Haswell": skylakex, "Sandybridge": skylakex,
            "Nehalem": (
                "n,ghz,w,cluster,random,haar\n"
                "4,2,2,3.3333333333333335,2.2857142857142856,2.3661362544369782\n"
                "5,2,1.9230769230769229,3.6000000000000001,2.9090909090909092,"
                "2.944529329091103\n"
            ),
        })

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

    @pytest.mark.parametrize("text", ["3", "0x3", "0X3", "0x03", "03"])
    def test_hex_mask_spellings(self, capsys, text):
        code, out, _ = run_cli(
            capsys, "purity", "--kind", "cluster", "--n", "4", "--mask", text
        )
        assert code == 0 and json.loads(out)["mask"] == "0x3"

    def test_bad_mask_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "purity", "--kind", "ghz", "--n", "3", "--mask", "zz"
        )
        assert code == 2 and "mask" in err

    def test_full_mask_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "purity", "--kind", "ghz", "--n", "3", "--mask", "0x7"
        )
        assert code == 2 and "mask 0x7 is not a cut of 3 qubits" in err

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
            (("theory", "--model", "exact-sphere", "--n", "1"), "--n"),
            (("theory", "--model", "asymptotic", "--n", "-1"), "--n"),
            (("theory", "--model", "delta", "--na", "0", "--nb", "3"), "--na"),
            (("theory", "--model", "delta", "--na", "3", "--nb", "-2"), "--nb"),
            (("theory", "--model", "asymptotic", "--n", "600"), "--n"),
            (("theory", "--model", "delta", "--n", "200000"), "--n"),
            (("theory", "--model", "exact-sphere", "--na", "300", "--nb", "300"),
             "--na + --nb"),
            (("spectrum", "--kind", "w", "--n", "4", "--format", "json", "--bins", "0"),
             "--bins"),
            (("spectrum", "--kind", "w", "--n", "4", "--bins", "5"), "--bins"),
            (("spectrum", "--kind", "w", "--n", "4", "--format", "tsv", "--bins", "0"),
             "--bins"),
            (("table1", "--nmin", "5", "--nmax", "27"), "nmax"),
            (("theory", "--model", "exact-sphere", "--n", "200", "--points", "5"),
             "--xmin/--xmax"),
            (("theory", "--model", "delta", "--n", "96"), "--xmin/--xmax"),
            (("theory", "--model", "asymptotic", "--n", "8", "--pdf", "purity",
              "--xmin", "0.5", "--xmax", "0.5", "--points", "3"), "--xmin/--xmax"),
            (("theory", "--model", "delta", "--n", "6", "--na", "2", "--nb", "3"),
             "--n does not"),
            (("purity", "--state-file", GHZ3_FILE, "--n", "7", "--mask", "0x1"), "--n"),
            (("spectrum", "--state-file", GHZ3_FILE, "--n", "7"), "--n"),
            (("measures", "--state-file", GHZ3_FILE, "--n", "3"), "--n"),
            (("theory", "--model", "asymptotic", "--n", "6", "--xmin", "5",
              "--xmax", "1", "--points", "3"), "--xmin/--xmax"),
            (("theory", "--model", "asymptotic", "--n", "6", "--pdf", "participation",
              "--xmin", "0"), "--xmin"),
            (("theory", "--model", "asymptotic", "--n", "10",
              "--points", "100000000000"), "--points must be at most 1000000"),
            (("spectrum", "--kind", "w", "--n", "4", "--format", "tsv",
              "--bins", "100000000000"), "--bins must be at most 1000000"),
            # the width overflows a double, which linspace would turn into nan
            (("theory", "--model", "asymptotic", "--n", "10", "--pdf", "purity",
              "--xmin=-1.7e308", "--xmax=1.7e308", "--points", "3"),
             "--xmin/--xmax range [-1.6999999999999999e+308"),
            # a mask is an optional 0x and ASCII hex digits, nothing int() also takes
            (("purity", "--kind", "ghz", "--n", "4", "--mask", "+3"), "mask '+3'"),
            (("purity", "--kind", "ghz", "--n", "4", "--mask", " 3"), "mask ' 3'"),
            (("purity", "--kind", "ghz", "--n", "4", "--mask", "0x_3"), "mask '0x_3'"),
            (("purity", "--kind", "ghz", "--n", "4", "--mask", "\u0663"),
             "mask '\u0663'"),
            (("purity", "--kind", "ghz", "--n", "5", "--mask", "1_0"), "mask '1_0'"),
            (("sample", "--kind", "haar", "--n", "4", "--count", "3", "--seed", "1",
              "--mask", "+3"), "mask '+3'"),
            # a mask that is not a cut of the qubits is refused by the purity kernel
            *((("purity", "--kind", "ghz", "--n", "3", "--mask", mask),
               f"mask {mask} is not a cut of 3 qubits") for mask in ("0x0", "0x7", "0x8")),
            *((("sample", "--kind", "haar", "--n", "3", "--count", "2", "--seed", "1",
                "--mask", mask), f"mask {mask} is not a cut of 3 qubits")
              for mask in ("0x0", "0x7", "0x8")),
        ],
    )
    def test_invalid_option_combinations_exit_2(self, capsys, tmp_path, args, named):
        if GHZ3_FILE in args:
            path = str(tmp_path / "ghz3.json")
            run_cli(capsys, "state", "--kind", "ghz", "--n", "3", "--out", path)
            args = tuple(path if a == GHZ3_FILE else a for a in args)
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert named in err

    @pytest.mark.parametrize(
        "source",
        [
            ("--kind", "ghz", "--n", "1"),
            ("--kind", "cluster", "--n", "0"),
            ("--kind", "basis", "--n", "0"),
            ("--kind", "w", "--n", str(MAX_QUBITS + 1)),
            ("--kind", "basis", "--n", "2", "--index", "4"),
            ("--kind", "basis", "--n", "2", "--index", "-1"),
            ("--kind", "w", "--n", "3", "--index", "0"),
            ("--kind", "cluster"),
        ],
    )
    def test_named_source_refused_as_its_constructor_refuses_it(self, capsys, source):
        # `purity`, `spectrum` and `measures` take the rule path, which checks
        # the source without building it; `state` builds it (its parser
        # requires --n)
        commands = (("purity", "--mask", "0x1"), ("spectrum",), ("measures",))
        (refused,) = {run_cli(capsys, c[0], *source, *c[1:]) for c in commands}
        code, out, built = refused
        assert code == 2 and out == "" and built
        if "--n" in source:
            assert run_cli(capsys, "state", *source) == refused

    # svd runs on every pair; qr only once the pair's partner side exceeds 4
    # columns, first at n = 5.  A --kind source takes its measures by rule,
    # so LAPACK is reached through a state file
    @pytest.mark.parametrize("solver, n", [("svd", "3"), ("qr", "5")])
    def test_eigensolver_failure_exits_3(self, capsys, monkeypatch, tmp_path, solver, n):
        path = str(tmp_path / f"w{n}.json")
        assert run_cli(capsys, "state", "--kind", "w", "--n", n, "--out", path)[0] == 0

        def fail(*_args, **_kwargs):
            raise np.linalg.LinAlgError(f"{solver} did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        code, out, err = run_cli(capsys, "measures", "--state-file", path)
        assert code == 3 and out == ""
        assert "numerical failure" in err

    def test_sample_checks_cut_before_drawing(self, capsys, monkeypatch):
        def refuse(*_args):
            raise AssertionError("states drawn before the cut was checked")

        monkeypatch.setattr(cli, "sample_blocks", refuse)
        for cut in (("--mask", "0x0"), ("--family", "fixed-size", "--size", "8")):
            code, out, _ = run_cli(
                capsys, "sample", "--kind", "haar", "--n", "8", "--count", "20000",
                "--seed", "1", *cut,
            )
            assert code == 2 and out == ""

    def test_table1_checks_seed_before_sweeping(self, capsys, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a sweep ran before the seed was checked")

        monkeypatch.setattr(cli, "purities", refuse)
        for seed in ("-1", str(2**64)):
            code, out, err = run_cli(
                capsys, "table1", "--nmin", "13", "--nmax", "13", "--haar-seed", seed
            )
            assert code == 2 and out == ""
            assert "seed" in err

    def test_nan_amplitude_in_state_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, "spectrum", "--state-file", str(path))
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", [("purity", "--mask", "0x1"), ("measures",)],
                             ids=["purity", "measures"])
    @pytest.mark.parametrize(
        "record",
        [
            '{"n": 2.7, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n": 2.0, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n": "2", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n": true, "amplitudes": [[1, 0], [0, 0]]}',
            '{"n": 2, "amplitudes": [["1", 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n": 2, "amplitudes": [[true, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"n": 2, "amplitudes": [[1, null], [0, 0], [0, 0], [0, 0]]}',
        ],
        ids=["n-float", "n-float-whole", "n-string", "n-bool", "re-string", "re-bool",
             "im-null"],
    )
    def test_non_numeric_state_file_exits_2(self, capsys, tmp_path, command, record):
        path = tmp_path / "state.json"
        path.write_text(record)
        code, out, err = run_cli(capsys, command[0], "--state-file", str(path),
                                 *command[1:])
        assert code == 2 and out == ""
        assert "must be" in err

    def test_integer_beyond_the_double_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n": 1, "amplitudes": [[1' + "0" * 400 + ', 0], [0, 0]]}')
        code, out, err = run_cli(capsys, "purity", "--state-file", str(path),
                                 "--mask", "0x1")
        assert code == 2 and out == ""
        assert "amplitude components must fit in a double" in err

    def test_integer_state_file_components_load(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n": 2, "amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]]}')
        code, out, _ = run_cli(capsys, "purity", "--state-file", str(path),
                               "--mask", "0x1")
        assert code == 0
        assert json.loads(out)["purity"] == 1.0

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

    @pytest.mark.parametrize(
        "data",
        [
            b"[" * 200_000 + b"]" * 200_000,
            b'{"n": 2, "amplitudes": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
            b"\xff\xfe",
        ],
        ids=["nested", "nested-amplitudes", "not-utf8"],
    )
    def test_undecodable_state_file_names_the_file(self, capsys, tmp_path, data):
        path = tmp_path / "state.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "purity", "--state-file", str(path),
                                 "--mask", "0x1")
        assert code == 2 and out == ""
        assert f"state file {path} is not valid JSON" in err

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "table1", "--nmin", "5", "--nmax", "7")
        out_file = tmp_path / "t.csv"
        code2, _, _ = run_cli(
            capsys, "table1", "--nmin", "5", "--nmax", "7", "--out", str(out_file)
        )
        assert code == code2 == 0
        assert out_file.read_text() == out

    def test_module_entry_point(self):
        result = run_module("purity --kind ghz --n 2 --mask 0x1")
        assert result.returncode == 0
        assert json.loads(result.stdout)["participation"] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "args",
        [
            # each sample's 128 x 128 Gram is reduced by one zdotc
            "sample --kind haar --n 14 --count 2 --seed 1 --mask 0x7f",
            # each drawn row is normalized by np.linalg.norm, a ddot over 2^15
            "sample --kind phase-sphere --n 15 --count 3 --seed 1 --mask 0x1",
            # one 256 x 256 complex Gram of 2^24 real multiply-adds, whose
            # bits move with the BLAS threads under the Haswell kernels
            "sample --kind haar --n 14 --count 2 --seed 1 --mask 0xff0",
            # W18's qubit pairs and single-qubit cuts are dealt to the workers
            # (a --kind source would take its measures by rule)
            f"measures --state-file {W18_FILE}",
        ],
    )
    def test_output_does_not_depend_on_blas_threads(self, capsys, tmp_path, args):
        if W18_FILE in args:
            path = str(tmp_path / "w18.json")
            assert run_cli(capsys, "state", "--kind", "w", "--n", "18", "--out", path)[0] == 0
            args = args.replace(W18_FILE, path)
        one, two = (run_module(args, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout
