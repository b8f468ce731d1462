"""Run one entspec CLI invocation with spans around the calls into each module.

    python3 benchmarks/tracer.py SPANS_FILE PASS_ID INVOCATION -- CLI_ARGS...

Replaces the module-level bindings through which entspec's modules call one
another's public functions with wrappers that record (name, start, end,
parent) spans and a few counters in memory.  It then runs entspec.cli.main on
CLI_ARGS with the CLI's own stdout, and at exit appends the spans and
counters to SPANS_FILE as JSON lines.  Nothing inside the package changes.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps
from importlib import import_module

# import_module, because the package re-exports a function named `purity`
cli, measures, purity, spectra = (
    import_module(f"entspec.{name}") for name in ("cli", "measures", "purity", "spectra")
)

SPANS: list[list] = []  # [name, start, end, parent index or -1]
STACK: list[int] = []
COUNTERS: dict[str, float] = {}


def _count(name: str, value: float) -> None:
    COUNTERS[name] = COUNTERS.get(name, 0) + value


def _gram_work(args, _result) -> None:
    part = args[1]
    lo, hi = sorted((part.dim_a, part.dim_b))
    _count("purity.gram_flop", 8 * lo * lo * hi)  # complex multiply-add = 8 flops


def _gather_work(args, _result) -> None:
    _count("purity.gather_bytes", 24 * args[0].dim)  # 16 B copy + 8 B index per amplitude


def _one_state(_args, _result) -> None:
    _count("states.count", 1)


def _many_states(_args, result) -> None:
    _count("states.count", len(result))


# module -> {binding: counter hook}.  Each binding is a name through which that
# module calls the function on the four workloads' paths; only these call
# sites are traced, so a change to the package's call sites needs this table
# to follow it.
BINDINGS = {
    cli: {
        "make_w": _one_state,
        "make_cluster1d": _one_state,
        "sample_haar": _many_states,
        "sample_phase_sphere": _many_states,
        "purity": _gram_work,
        "compute_distribution": None,
        "format_spectrum_csv": None,
        "sphere_moments": None,
        "exact_moments": None,
        "purity_pdf": None,
        "format_curve_tsv": None,
        "format_measures_json": None,
        "json_dumps": None,
        "g17": None,
    },
    spectra: {"enumerate_masks": None, "purity": _gram_work},
    purity: {"coefficient_matrix": _gather_work},
    measures: {
        "purity": _gram_work,
        "reduced_density": _gram_work,
        "eig4": None,
        "concurrence": None,
        "q_measure": None,
        "tangle1": None,
        "enumerate_masks": None,
        "json_dumps": None,
    },
}


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('entspec.')}.{fn.__name__}"


def traced(fn, hook=None):
    name = span_name(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, STACK[-1] if STACK else -1]
        STACK.append(len(SPANS))
        SPANS.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except measures.EigenConvergenceError:
            _count(f"{name}.failures", 1)
            raise
        finally:
            span[2] = time.perf_counter()
            STACK.pop()
        if hook is not None:
            hook(args, result)
        return result

    return wrapper


def install() -> None:
    """Wrap every listed binding that the package still has."""
    for module, hooks in BINDINGS.items():
        for binding, hook in hooks.items():
            fn = getattr(module, binding, None)
            if fn is not None:
                setattr(module, binding, traced(fn, hook))


def dump(path: str, pass_id: int, invocation: int) -> None:
    head = f'{{"pass": {pass_id}, "invocation": {invocation}, '
    with open(path, "a") as f:
        for i, (name, start, end, parent) in enumerate(SPANS):
            f.write(
                f'{head}"id": {i}, "name": "{name}", "start": {start!r}, '
                f'"end": {end!r}, "parent": {parent}}}\n'
            )
        for name, value in COUNTERS.items():
            f.write(head + f'"counter": {json.dumps(name)}, "value": {value!r}}}\n')


def main(argv: list[str]) -> int:
    spans_file, pass_id, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE PASS_ID INVOCATION -- CLI_ARGS...")
    install()
    try:
        return traced(cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        dump(spans_file, int(pass_id), int(invocation))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
