"""Command-line surface.

One subcommand per artifact: `state` writes a state file, `purity` evaluates
one cut, `spectrum` sweeps a bipartition family, `sample` runs ensemble
Monte Carlo, `theory` emits model curves, `measures` reports Q/tangles/
concurrences, and `table1` tabulates balanced-cut means for the named state
families.  Output is deterministic: on one host and BLAS build, identical
arguments (and seed) produce byte-identical files.  The --kind choices are
the keys of `states.KINDS`, and `state` builds through each entry's
constructor.  `purity`, `spectrum`, `measures` and `table1`'s named columns
take a --kind source by its entry's rules (`named_purities`,
`named_tangle_report`), exact and without building the state, so those
bytes hold on any host and BLAS; state files and ensembles go through the
amplitudes, `purities` and `concurrences`.  `_source` checks and resolves
a source once, for every subcommand that takes one.  The library returns
arrays and dataclasses; every output byte is written here, by `_table` (CSV
and TSV) and `_record` (JSON).

Exit codes: 0 success, 2 argument or input errors, 3 numerical failure
(LAPACK, reached by `measures --state-file` only).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .measures import EigenConvergenceError, named_tangle_report, tangle_report
from .purity import _masks, purities
from .spectra import (
    HISTOGRAM_BINS, SELECTORS, STATISTICS, BipartitionFamily, histogram, named_purities,
    participation_statistics,
)
from .states import (
    ENSEMBLE_KINDS, KINDS, MAX_QUBITS, EnsembleSpec, PureState, named, sample_blocks,
    state_from_dict, state_to_dict,
)
from .theory import (
    MODEL_MAX_QUBITS, PROVIDER_KINDS, asymptotic_model, exact_moments, participation_pdf,
    purity_pdf,
)

RANGE_SIGMAS = 8.0  # default curve range: mu +/- 8 sigma, mapped for participation
# largest theory --points and spectrum --bins, checked before the curve or
# histogram arrays are allocated
MAX_GRID = 1_000_000
MASK_TEXT = re.compile(r"(0[xX])?[0-9a-fA-F]+")  # ASCII hex digits only

def _parse_mask(text: str) -> int:
    if MASK_TEXT.fullmatch(text) is None:
        raise ValueError(f"mask {text!r} is not a hex integer")
    return int(text, 16)


def _table(header, rows, sep: str = ",") -> str:
    """CSV or TSV text: the header, then one line per row, each line
    `\n`-terminated.  A float cell is written with 17 significant digits,
    enough to read back the same double, with no trailing zeros; any other
    cell by `str`."""
    lines = [sep.join(header)]
    lines += (
        sep.join(format(float(c), ".17g") if isinstance(c, float) else str(c) for c in row)
        for row in rows
    )
    return "\n".join(lines) + "\n"


def _record(d: dict) -> str:
    """One JSON record on one line, keys in insertion order.  A float is
    written as its repr, the shortest text that reads back as the same double,
    so output is byte-stable; NaN or an infinity raises ValueError."""
    return json.dumps(d, allow_nan=False) + "\n"


def _source(args: argparse.Namespace):
    """The source's qubit count, a function from a mask array to the source's
    purity across each mask, and a function that gives its tangle report,
    once the source options are checked.  A --kind source is checked as its
    constructor would check it, with the same messages, but not built: its
    purities and report are taken by rule (`named_purities`,
    `named_tangle_report`).  A state file is read here, once, and goes
    through `purities` and `tangle_report`."""
    if args.index is not None and args.kind != "basis":
        raise ValueError("--index applies only to --kind basis")
    if args.state_file is not None:
        if args.n is not None:
            raise ValueError("--n applies only to --kind; a state file gives its own n")
        state = _read_state(args.state_file)
        return (state.n, lambda masks: purities(state.amplitudes[None], state.n, masks)[0],
                lambda: tangle_report(state))
    if args.n is None:
        raise ValueError("--n is required with --kind")
    named(args.kind, args.n, args.index or 0)
    return (args.n, lambda masks: named_purities(args.kind, args.n, masks),
            lambda: named_tangle_report(args.kind, args.n))


def _read_state(state_file: str) -> PureState:
    path = Path(state_file)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"state file {path} is not valid JSON: {exc}") from exc
    return state_from_dict(data)


def _run_state(args: argparse.Namespace) -> str:
    _source(args)  # the source options, checked as every --kind source is
    return _record(state_to_dict(KINDS[args.kind].make(args.n, args.index or 0)))


def _run_purity(args: argparse.Namespace) -> str:
    mask = _parse_mask(args.mask)
    n, purity_of, _ = _source(args)
    p = float(purity_of([mask])[0])
    n_a = mask.bit_count()
    return _record({
        "n": n, "mask": f"{mask:#x}", "n_A": n_a, "n_B": n - n_a,
        "purity": p, "participation": 1.0 / p,
        "effective_spins": 0.0 - math.log2(p),  # avoids -0.0 at purity 1
    })


def _run_spectrum(args: argparse.Namespace) -> str:
    if args.bins is not None and args.format != "tsv":
        raise ValueError(f"--bins applies only to --format tsv, not {args.format}")
    if args.bins is not None and args.bins < 1:
        raise ValueError(f"--bins must be 1 or more, got {args.bins}")
    if args.bins is not None and args.bins > MAX_GRID:
        raise ValueError(f"--bins must be at most {MAX_GRID}, got {args.bins}")
    n, purity_of, _ = _source(args)
    family = BipartitionFamily(n, args.family, args.size)
    masks = family.masks()
    purity = purity_of(masks)
    if args.format == "csv":
        participation = 1.0 / purity
        cuts = zip(masks.tolist(), purity.tolist(), participation.tolist())
        rows = ((f"{m:#x}", m.bit_count(), p, v) for m, p, v in cuts)
        return _table(("mask_hex", "n_A", "purity", "participation"), rows)
    del masks  # a summary keeps only the participations, taken in place of the purities
    participation = np.reciprocal(purity, out=purity)
    if args.format == "json":
        stats = participation_statistics(participation[None])[0].tolist()
        return _record({"n": family.n, "family": family.label, "count": participation.size,
                        **dict(zip(STATISTICS, stats))})
    hist = histogram(participation, HISTOGRAM_BINS if args.bins is None else args.bins)
    rows = zip(hist.centers.tolist(), hist.densities.tolist(), hist.counts.tolist())
    return _table(("bin_center", "density", "count"), rows, sep="\t")


def _run_sample(args: argparse.Namespace) -> str:
    """One row per sample: its purity and participation across --mask, or
    its participation STATISTICS over --family.  One branch sets the masks
    (the cut or family, checked before any state is drawn), the header and
    the rule from a block's purities to its rows; one generator then draws,
    evaluates and formats the states one block at a time."""
    spec = EnsembleSpec(args.kind, args.n, args.seed)
    if args.mask is None:
        masks = BipartitionFamily(args.n, args.family, args.size).masks()
        header, rows = STATISTICS, lambda p: participation_statistics(1.0 / p).tolist()
    elif args.size is not None:
        raise ValueError("--size applies only to --family fixed-size, not --mask")
    else:
        masks = _masks([_parse_mask(args.mask)], args.n)
        header, rows = ("purity", "participation"), lambda p: np.hstack((p, 1.0 / p)).tolist()
    blocks = sample_blocks(spec, args.count)
    values = (row for block in blocks for row in rows(purities(block, args.n, masks)))
    return _table(("sample", *header), ((i, *row) for i, row in enumerate(values)))


def _run_theory(args: argparse.Namespace) -> str:
    if args.points < 1:
        raise ValueError(f"--points must be 1 or more, got {args.points}")
    if args.points > MAX_GRID:
        raise ValueError(f"--points must be at most {MAX_GRID}, got {args.points}")
    for name in ("xmin", "xmax"):
        value = getattr(args, name)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value!r}")
    n_a, n_b = args.n_a, args.n_b
    if (n_a is None) != (n_b is None):
        raise ValueError("--na and --nb must be given together")
    if n_a is None:
        if args.n is None:
            raise ValueError("theory needs --n or --na/--nb")
        checks = (("--n", args.n, 2),)
        n_a, n_b = args.n // 2, args.n - args.n // 2
    elif args.n is not None:
        raise ValueError("--n does not combine with --na/--nb")
    else:
        checks = (("--na", n_a, 1), ("--nb", n_b, 1), ("--na + --nb", n_a + n_b, 2))
    for name, value, low in checks:
        if not low <= value <= MODEL_MAX_QUBITS:
            raise ValueError(
                f"{name} must be in [{low}, {MODEL_MAX_QUBITS}] qubits, got {value}"
            )
    dim_a, dim_b = 1 << n_a, 1 << n_b
    if args.model == "asymptotic":
        model = asymptotic_model(dim_a, dim_b)
    else:
        model = exact_moments(dim_a, dim_b, args.model)
    spread = RANGE_SIGMAS * np.sqrt(model.sigma2)
    lo, hi = model.mu - spread, model.mu + spread
    pdf = purity_pdf
    if args.pdf == "participation":
        pdf = participation_pdf
        if lo > 0:
            lo, hi = 1.0 / hi, 1.0 / lo
        elif args.xmin is None or args.xmax is None:
            raise ValueError("model too wide for a default range; pass --xmin/--xmax")
    start = lo if args.xmin is None else args.xmin
    stop = hi if args.xmax is None else args.xmax
    if not np.isfinite(float(stop) - float(start)):  # linspace would overflow
        raise ValueError(
            f"--xmin/--xmax range [{start:.17g}, {stop:.17g}] is wider than the "
            "largest double"
        )
    xs = np.linspace(start, stop, args.points)
    if not np.all(np.diff(xs) > 0):
        raise ValueError(
            f"{args.points} points over [{xs[0]:.17g}, {xs[-1]:.17g}] do not strictly "
            "increase in x; pass a wider --xmin/--xmax, with --xmin below --xmax"
        )
    if args.pdf == "participation" and xs[0] <= 0:
        raise ValueError(
            f"--xmin must be positive for --pdf participation, got {args.xmin!r}"
        )
    return _table(("x", "density"), zip(xs.tolist(), pdf(model, xs).tolist()), sep="\t")


def _run_measures(args: argparse.Namespace) -> str:
    n, _, tangles = _source(args)
    report = tangles()
    return _record({
        "n": n, "Q": report.q, "tau1": report.tau1, "tau2": report.tau2,
        "R": report.ratio, "concurrence": report.concurrences,
    })


def _run_table1(args: argparse.Namespace) -> str:
    if not (2 <= args.nmin <= args.nmax <= MAX_QUBITS):
        raise ValueError(
            f"need 2 <= nmin <= nmax <= {MAX_QUBITS}, got {args.nmin}..{args.nmax}"
        )

    def mean(purity):
        return participation_statistics(1.0 / purity[None])[0, 0]

    # the header's columns after n, each a value at n qubits of the balanced masks
    columns = {
        "ghz": lambda n, masks: mean(named_purities("ghz", n, masks)),
        "w": lambda n, masks: mean(named_purities("w", n, masks)),
        "cluster": lambda n, masks: mean(named_purities("cluster", n, masks)),
        "random": lambda n, masks: 1.0 / asymptotic_model(1 << n // 2, 1 << n - n // 2).mu,
    }
    if args.haar_seed is not None:  # the seed is checked before the first sweep
        haar = EnsembleSpec("haar", args.nmin, args.haar_seed)
        columns["haar"] = lambda n, masks: mean(
            purities(*sample_blocks(replace(haar, n=n), 1), n, masks)[0]
        )
    rows = []
    for n in range(args.nmin, args.nmax + 1):
        masks = BipartitionFamily(n, "balanced").masks()
        rows.append((n, *(value(n, masks) for value in columns.values())))
    return _table(("n", *columns), rows)


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--kind", choices=tuple(KINDS), help="named state family")
    group.add_argument("--state-file", help="JSON state file to read instead")
    parser.add_argument("--n", type=int, help="qubit count (with --kind)")
    parser.add_argument("--index", type=int, help="basis index (kind=basis only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entspec",
        description="Distributions of bipartite purity over qubit bipartitions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("state", help="construct a named state and write it as JSON")
    p.set_defaults(run=_run_state, state_file=None)
    p.add_argument("--kind", choices=tuple(KINDS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int)

    p = sub.add_parser("purity", help="purity of one explicit bipartition")
    p.set_defaults(run=_run_purity)
    _add_source_args(p)
    p.add_argument("--mask", required=True, help="subsystem-A bitmask in hex")

    p = sub.add_parser("spectrum", help="purity over a whole bipartition family")
    p.set_defaults(run=_run_spectrum)
    _add_source_args(p)
    p.add_argument("--family", choices=SELECTORS, default="balanced")
    p.add_argument("--size", type=int, help="subsystem size for --family fixed-size")
    p.add_argument("--format", choices=("csv", "json", "tsv"), default="csv",
                   help="csv: per-mask rows, json: summary, tsv: histogram")
    p.add_argument("--bins", type=int,
                   help=f"histogram bins, --format tsv only (default {HISTOGRAM_BINS})")

    p = sub.add_parser("sample", help="ensemble Monte Carlo")
    p.set_defaults(run=_run_sample)
    p.add_argument("--kind", choices=ENSEMBLE_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mask", help="per-sample purity on this hex mask")
    group.add_argument("--family", choices=SELECTORS, help="per-sample family summary")
    p.add_argument("--size", type=int)

    p = sub.add_parser("theory", help="emit a model density curve as TSV")
    p.set_defaults(run=_run_theory)
    p.add_argument("--model", choices=("asymptotic", *PROVIDER_KINDS), required=True)
    p.add_argument("--n", type=int, help="qubit count; implies the balanced split")
    p.add_argument("--na", type=int, dest="n_a", help="subsystem-A qubits")
    p.add_argument("--nb", type=int, dest="n_b", help="subsystem-B qubits")
    p.add_argument("--pdf", choices=("purity", "participation"), default="participation")
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--points", type=int, default=512)

    p = sub.add_parser("measures", help="Q, tangles, ratio, and concurrences as JSON")
    p.set_defaults(run=_run_measures)
    _add_source_args(p)

    p = sub.add_parser("table1", help="balanced-cut means for the named families")
    p.set_defaults(run=_run_table1)
    p.add_argument("--nmin", type=int, default=5)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--haar-seed", type=int, help="add a single-Haar-sample column")

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.run(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    except EigenConvergenceError as exc:
        print(f"entspec: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"entspec: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
