"""Self-tests of the benchmark's oracles, checks and trace arithmetic.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these tests out of the repository's own test run; they
run the real CLI once for the failure-accounting test.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_cut_rank_matches_reshape_oracle_on_cluster_states():
    from entspec import make_cluster1d

    for n in range(2, 9):
        circuit = oracles.path_graph_amplitudes(n)
        package = make_cluster1d(n).amplitudes
        for mask in range(1, (1 << n) - 1):
            want = 2.0 ** -oracles.path_cut_rank(n, mask)
            assert math.isclose(oracles.reshape_purity(circuit, n, mask), want, rel_tol=1e-12)
            assert math.isclose(oracles.reshape_purity(package, n, mask), want, rel_tol=1e-12)


def test_cut_rank_of_known_cuts():
    assert oracles.path_cut_rank(22, 0x7FF) == 1  # one chain edge crosses
    assert oracles.path_cut_rank(6, 0b010101) == 3  # alternating sites
    assert oracles.path_cut_rank(8, 0b00111100) == 2


def test_w_closed_forms_against_reshape_and_eigvals():
    for n in range(3, 7):
        amps = oracles.w_amplitudes(n)
        ref = oracles.w_measures(n)
        single = [1.0 - float(np.real(np.trace(r @ r)))
                  for r in (oracles.reduced_state(amps, n, [q]) for q in range(n))]
        tau1 = [2.0 * s for s in single]
        assert math.isclose(2.0 * sum(single) / n, ref["Q"], rel_tol=1e-12)
        for t in tau1:
            assert math.isclose(t, ref["tau1"], rel_tol=1e-12)
        conc = {
            (i, j): oracles.concurrence(oracles.reduced_state(amps, n, [i, j]))
            for i in range(n) for j in range(i + 1, n)
        }
        for c in conc.values():
            assert math.isclose(c, ref["C"], rel_tol=1e-9)
        for i in range(n):
            tau2 = sum(c * c for pair, c in conc.items() if i in pair)
            assert math.isclose(tau2, ref["tau2"], rel_tol=1e-9)
            assert math.isclose(tau2 / tau1[i], ref["R"], rel_tol=1e-9)


def test_exact_mean_purity():
    # (N_A + N_B + 1) / (N + 2) once the sphere moments are summed
    assert oracles.phase_sphere_mean_purity(4, 8) == Fraction(13, 34)
    assert oracles.phase_sphere_mean_purity(2, 2) == Fraction(5, 6)
    samples = [oracles.reshape_purity(oracles.phase_sphere_sample(2, 7, i), 2, 0x1)
               for i in range(4000)]
    se = np.std(samples, ddof=1) / math.sqrt(len(samples))
    assert abs(np.mean(samples) - 5 / 6) < 5 * se


def test_corrupted_row_is_a_failed_operation():
    run.WORK.mkdir(exist_ok=True)
    workload = WORKLOADS["ensemble-cut"]
    seed = 3
    verified: set[str] = set()
    genuine = run.run_pass(workload.argv(seed), run.child_env(), 0, False, run.WORK / "spans")
    run.judge(workload, seed, genuine, verified)
    assert genuine.errors == [None, None]

    lines = genuine.runs[0].out.split("\n")
    idx, pur, part = lines[1 + 4321].split(",")
    lines[1 + 4321] = f"{idx},{pur},{float(part) * (1 + 1e-6)!r}"
    corrupted = run.Pass(
        False, [run.Invocation(0, 1.0, 1.0, 1.0, "\n".join(lines), ""), genuine.runs[1]]
    )
    run.judge(workload, seed, corrupted, verified)
    assert corrupted.errors[0] is not None and corrupted.errors[1] is None
    failed = sum(e is not None for p in (genuine, corrupted) for e in p.errors)
    assert failed / 4 == 0.25


def test_nonzero_exit_is_a_failed_operation():
    workload = WORKLOADS["sweep-real"]
    p = run.Pass(False, [run.Invocation(2, 1.0, 1.0, 1.0, "", "entspec: error: bad")])
    run.judge(workload, 1, p, set())
    assert p.errors[0].startswith("exit 2")


def test_self_times_from_spans():
    lines = [
        '{"pass": 0, "invocation": 0, "id": 0, "name": "cli.main", "start": 0.0, "end": 10.0, "parent": -1}',
        '{"pass": 0, "invocation": 0, "id": 1, "name": "spectra.compute_distribution", "start": 1.0, "end": 9.0, "parent": 0}',
        '{"pass": 0, "invocation": 0, "id": 2, "name": "spectra.enumerate_masks", "start": 1.0, "end": 2.0, "parent": 1}',
        '{"pass": 0, "invocation": 0, "id": 3, "name": "purity.purity", "start": 2.5, "end": 4.0, "parent": 1}',
        '{"pass": 0, "invocation": 0, "id": 4, "name": "purity.coefficient_matrix", "start": 2.5, "end": 3.0, "parent": 3}',
        '{"pass": 0, "invocation": 0, "id": 5, "name": "purity.purity", "start": 4.0, "end": 7.0, "parent": 1}',
        '{"pass": 0, "invocation": 0, "id": 6, "name": "spectra.format_spectrum_csv", "start": 9.0, "end": 9.5, "parent": 0}',
        '{"pass": 0, "invocation": 0, "id": 7, "name": "_fmt.g17", "start": 9.1, "end": 9.2, "parent": 6}',
        '{"pass": 0, "invocation": 0, "counter": "purity.gram_flop", "value": 3e9}',
    ]
    spans, counters = run.read_trace(lines)
    m = run.layer_metrics(spans[0], counters[0])
    assert m["purity.calls"] == 2 and m["spectra.cuts"] == 2
    assert m["purity.s"] == 4.5 and m["purity.gather_s"] == 0.5 and m["purity.gram_s"] == 4.0
    assert m["purity.eff_gflops"] == 3.0 / 4.0
    assert m["spectra.sweep_s"] == 8.0 and m["spectra.enumerate_s"] == 1.0
    assert m["spectra.self_s"] == 8.0 - 1.0 - 4.5
    assert m["spectra.stats_s"] == 2.0  # from the last purity call to the end of the sweep
    assert m["cli.main_s"] == 10.0 and m["cli.format_s"] == 0.5
