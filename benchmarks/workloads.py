"""The four benchmark workloads: CLI arguments per seed and output checks.

Each workload's `check` returns one error message (or None) per CLI
invocation; an invocation whose output fails a check is a failed operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import oracles


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(got: float, want: float, what: str, rel: float = 1e-9) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= rel * abs(want),
        f"{what}: got {got!r}, expected {want!r}",
    )


def _table(text: str, header: str, sep: str = ",") -> list[list[str]]:
    """Data rows of a CSV/TSV text that ends in a newline, after checking its header."""
    lines = text.split("\n")
    _require(lines[-1] == "", "output does not end in a newline")
    _require(lines[0] == header, f"header {lines[0]!r}, expected {header!r}")
    return [line.split(sep) for line in lines[1:-1]]


def _run_checks(*checks: Callable[[], None]) -> list[str | None]:
    errors = []
    for check in checks:
        try:
            check()
            errors.append(None)
        except (CheckFailed, ValueError, IndexError, KeyError, TypeError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    return errors


# --- sweep-real -------------------------------------------------------------

def _check_cluster_spectrum(text: str, n: int) -> None:
    rows = _table(text, "mask_hex,n_A,purity,participation")
    masks = oracles.masks_with_popcount(n, n // 2)
    _require(len(rows) == len(masks), f"{len(rows)} rows, expected {len(masks)}")
    for (mask_hex, n_a, pur, part), mask in zip(rows, masks):
        _require(int(mask_hex, 16) == mask, f"row {mask_hex}: expected mask {mask:#x}")
        _require(int(n_a) == n // 2, f"row {mask_hex}: n_A {n_a}")
        want = float(2 ** oracles.path_cut_rank(n, mask))
        _close(float(part), want, f"participation of {mask_hex}")
        _close(float(pur), 1.0 / want, f"purity of {mask_hex}")


def check_sweep_real(seed: int, outputs: list[str]) -> list[str | None]:
    return _run_checks(lambda: _check_cluster_spectrum(outputs[0], 14))


# --- sweep-haar -------------------------------------------------------------

HAAR_N, HAAR_COUNT = 11, 40
HAAR_ORACLE_SAMPLES = (0, 13, 26, 39)


def _check_haar_summaries(text: str, seed: int) -> None:
    rows = _table(text, "sample,mean_participation,var_population,var_sample,min,max")
    _require(len(rows) == HAAR_COUNT, f"{len(rows)} rows, expected {HAAR_COUNT}")
    masks = oracles.masks_with_popcount(HAAR_N, HAAR_N // 2)
    cap = 1 << (HAAR_N // 2)
    cuts = len(masks)
    for i, row in enumerate(rows):
        _require(int(row[0]) == i, f"row {i}: sample index {row[0]}")
        mean, var_pop, var_sample, lo, hi = map(float, row[1:])
        _require(
            1.0 - 1e-12 <= lo <= mean <= hi <= cap * (1 + 1e-12),
            f"sample {i}: need 1 <= min <= mean <= max <= {cap}",
        )
        _require(var_pop >= 0.0, f"sample {i}: negative variance")
        _close(var_sample, var_pop * cuts / (cuts - 1), f"sample {i} var_sample")
    for i in HAAR_ORACLE_SAMPLES:
        amps = oracles.haar_sample(HAAR_N, seed, i)
        ref = oracles.family_summary(
            [1.0 / oracles.reshape_purity(amps, HAAR_N, m) for m in masks]
        )
        for key, got in zip(ref, map(float, rows[i][1:])):
            _close(got, ref[key], f"sample {i} {key}")


def check_sweep_haar(seed: int, outputs: list[str]) -> list[str | None]:
    return _run_checks(lambda: _check_haar_summaries(outputs[0], seed))


# --- ensemble-cut -----------------------------------------------------------

ENS_N, ENS_COUNT, ENS_MASK = 5, 20000, 0x3
ENS_ORACLE_STRIDE = 500
ENS_DIMS = (4, 8)  # the 0x3 cut of 5 qubits
THEORY_POINTS = 512
THEORY_SIGMAS = 8.0  # the CLI's default purity range is mu +/- 8 sigma
SIGMA_REL_TOL = 0.05  # theory sigma against the sample standard deviation


def _check_cut_samples(text: str, seed: int) -> list[float]:
    rows = _table(text, "sample,purity,participation")
    _require(len(rows) == ENS_COUNT, f"{len(rows)} rows, expected {ENS_COUNT}")
    cap = min(ENS_DIMS)
    purities = []
    for i, (idx, pur, part) in enumerate(rows):
        _require(int(idx) == i, f"row {i}: sample index {idx}")
        p, n_ab = float(pur), float(part)
        _require(1.0 - 1e-12 <= n_ab <= cap * (1 + 1e-12), f"sample {i}: N_AB {n_ab}")
        _close(p * n_ab, 1.0, f"sample {i}: purity * participation", rel=1e-12)
        purities.append(p)
    for i in range(0, ENS_COUNT, ENS_ORACLE_STRIDE):
        amps = oracles.phase_sphere_sample(ENS_N, seed, i)
        _close(purities[i], oracles.reshape_purity(amps, ENS_N, ENS_MASK), f"sample {i} purity")
    mean = math.fsum(purities) / ENS_COUNT
    std = math.sqrt(math.fsum((p - mean) ** 2 for p in purities) / (ENS_COUNT - 1))
    exact = oracles.phase_sphere_mean_purity(*ENS_DIMS)
    _require(
        abs(mean - float(exact)) <= 5.0 * std / math.sqrt(ENS_COUNT),
        f"sample mean purity {mean!r} is over 5 standard errors from {exact} = {float(exact)!r}",
    )
    return purities


def _check_purity_curve(text: str, purities: list[float] | None) -> None:
    rows = [tuple(map(float, r)) for r in _table(text, "x\tdensity", sep="\t")]
    _require(len(rows) == THEORY_POINTS, f"{len(rows)} rows, expected {THEORY_POINTS}")
    xs = [x for x, _ in rows]
    _require(all(a < b for a, b in zip(xs, xs[1:])), "x is not increasing")
    mu = float(oracles.phase_sphere_mean_purity(*ENS_DIMS))
    _close((xs[0] + xs[-1]) / 2.0, mu, "centre of the purity range")
    sigma = (xs[-1] - xs[0]) / (2.0 * THEORY_SIGMAS)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    for x, d in rows:
        want = norm * math.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma))
        _require(abs(d - want) <= 1e-9 * norm, f"density at {x!r}: got {d!r}, expected {want!r}")
    if purities is not None:
        mean = math.fsum(purities) / len(purities)
        std = math.sqrt(math.fsum((p - mean) ** 2 for p in purities) / (len(purities) - 1))
        _require(
            abs(sigma / std - 1.0) <= SIGMA_REL_TOL,
            f"theory sigma {sigma!r} against sample standard deviation {std!r}",
        )


def check_ensemble_cut(seed: int, outputs: list[str]) -> list[str | None]:
    sampled: list[list[float] | None] = [None]

    def samples() -> None:
        sampled[0] = _check_cut_samples(outputs[0], seed)

    return _run_checks(samples, lambda: _check_purity_curve(outputs[1], sampled[0]))


# --- large-state ------------------------------------------------------------

LARGE_N, LARGE_MASK = 22, 0x7FF
W_N = 18


def _check_large_cut(text: str) -> None:
    rec = json.loads(text)
    rank = oracles.path_cut_rank(LARGE_N, LARGE_MASK)
    _require(
        (rec["n"], rec["mask"], rec["n_A"], rec["n_B"]) == (LARGE_N, f"{LARGE_MASK:#x}", 11, 11),
        f"cut fields {rec['n']}, {rec['mask']}, {rec['n_A']}, {rec['n_B']}",
    )
    _close(rec["purity"], 2.0**-rank, "purity")
    _close(rec["participation"], 2.0**rank, "participation")
    _close(rec["effective_spins"], float(rank), "effective_spins")


def _check_w_measures(text: str) -> None:
    rec = json.loads(text)
    n = W_N
    ref = oracles.w_measures(n)
    _require(rec["n"] == n, f"n = {rec['n']}")
    _close(rec["Q"], ref["Q"], "Q")
    for key in ("tau1", "tau2", "R"):
        _require(len(rec[key]) == n, f"{key} has {len(rec[key])} entries")
        for i, v in enumerate(rec[key]):
            _close(v, ref[key], f"{key}[{i}]")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    _require(len(rec["concurrence"]) == len(pairs), "concurrence list length")
    for (i, j, c), pair in zip(rec["concurrence"], pairs):
        _require((i, j) == pair, f"concurrence pair {(i, j)}, expected {pair}")
        _close(c, ref["C"], f"C[{i},{j}]")


def check_large_state(seed: int, outputs: list[str]) -> list[str | None]:
    return _run_checks(lambda: _check_large_cut(outputs[0]), lambda: _check_w_measures(outputs[1]))


@dataclass(frozen=True)
class Workload:
    name: str
    purities: int  # purity or reduced-density evaluations in one pass
    uses_seed: bool  # False: the inputs are fixed and --seed is only recorded
    argv: Callable[[int], list[list[str]]]
    check: Callable[[int, list[str]], list[str | None]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-real",
            3432,
            False,
            lambda seed: [
                ["spectrum", "--kind", "cluster", "--n", "14", "--family", "balanced",
                 "--format", "csv"],
            ],
            check_sweep_real,
        ),
        Workload(
            "sweep-haar",
            HAAR_COUNT * 462,
            True,
            lambda seed: [
                ["sample", "--kind", "haar", "--n", str(HAAR_N), "--count", str(HAAR_COUNT),
                 "--seed", str(seed), "--family", "balanced"],
            ],
            check_sweep_haar,
        ),
        Workload(
            "ensemble-cut",
            ENS_COUNT,
            True,
            lambda seed: [
                ["sample", "--kind", "phase-sphere", "--n", str(ENS_N), "--count", str(ENS_COUNT),
                 "--seed", str(seed), "--mask", f"{ENS_MASK:#x}"],
                ["theory", "--model", "exact-sphere", "--na", "2", "--nb", "3", "--pdf", "purity"],
            ],
            check_ensemble_cut,
        ),
        Workload(
            "large-state",
            1 + W_N * (W_N - 1) // 2 + 2 * W_N,  # the cut, pair reductions, Q and tau1 purities
            False,
            lambda seed: [
                ["purity", "--kind", "cluster", "--n", str(LARGE_N), "--mask", f"{LARGE_MASK:#x}"],
                ["measures", "--kind", "w", "--n", str(W_N)],
            ],
            check_large_state,
        ),
    )
}
