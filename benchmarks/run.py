"""Benchmark of the entspec CLI: four workloads, end-to-end and per-layer metrics.

Run from the repository root (it needs src/entspec and numpy, nothing else):

    python3 benchmarks/run.py --workload sweep-real --seed 1 --seconds 20 --trace 0

A pass runs the workload's CLI invocations, each as a fresh
`python3 -m entspec ...` process, because every CLI user pays interpreter
start, import, first-call and peak-memory costs on every invocation.
Children run with ENTSPEC_THREADS unset and the BLAS threading left at its
default.  Passes repeat until --seconds is used up; every metric is the
median over the run's passes.  Each output is checked against the
independent references in oracles.py (identical output bytes are checked
once per run).

--trace 0 reports the end-to-end metrics; setup_s is the median over one
probe per pass of process start until `entspec.cli` is imported.
--trace 1 alternates untraced passes with traced ones, which run each
invocation under tracer.py, and reports the per-layer metrics derived from
the spans.  Traced output must be byte-identical to untraced output.

The last stdout line is one JSON object: correct, attempted, failed
(operations are CLI invocations; one fails if it exits nonzero or its output
fails a check) and metrics.  The lines before it print every metric with its
unit, and the whole run, with the environment, goes to
.bench_work/results/.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY_PROBE = "import entspec, entspec.cli; print(entspec.__file__, flush=True)"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "purities_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "states.build_s": "s",
    "states.count": "count",
    "states.us_per_state": "us",
    "purity.calls": "count",
    "purity.s": "s",
    "purity.gather_s": "s",
    "purity.gram_s": "s",
    "purity.us_per_cut": "us",
    "purity.gram_gflop": "GFLOP",
    "purity.eff_gflops": "GFLOP/s",
    "purity.gather_mib": "MiB",
    "spectra.cuts": "count",
    "spectra.enumerate_s": "s",
    "spectra.sweep_s": "s",
    "spectra.self_s": "s",
    "spectra.stats_s": "s",
    "theory.moments_s": "s",
    "theory.pdf_s": "s",
    "measures.pairs": "count",
    "measures.pair_density_s": "s",
    "measures.eig4_calls": "count",
    "measures.eig4_s": "s",
    "measures.eig4_failures": "count",
    "measures.concurrence_s": "s",
    "measures.report_s": "s",
    "cli.main_s": "s",
    "cli.format_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}

COMPUTED = {"purity.gram_gflop", "purity.eff_gflops", "purity.gather_mib"}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Invocation:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    out: str
    err: str


@dataclass
class Pass:
    traced: bool
    runs: list[Invocation]
    errors: list[str | None] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ENTSPEC_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict[str, str], out: Path, err: Path) -> Invocation:
    """Run `python3 argv...` with stdout and stderr to files; time it and read its rusage."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Invocation(
        code=os.waitstatus_to_exitcode(status),
        wall=wall,
        cpu=ru.ru_utime + ru.ru_stime,
        rss_mib=ru.ru_maxrss / 1024.0,  # KiB on Linux
        out=out.read_text(),
        err=err.read_text(),
    )


def probe_setup(env: dict[str, str]) -> float:
    """Seconds from process start until entspec.cli is imported and ready."""
    read_fd, write_fd = os.pipe()  # both close-on-exec; the child gets a dup as fd 1
    t0 = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-c", READY_PROBE],
        env,
        file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1)],
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        line = pipe.readline()
        ready = time.perf_counter() - t0
        pipe.read()
    _, status, _ = os.wait4(pid, 0)
    origin = Path(line.decode().strip())
    if os.waitstatus_to_exitcode(status) != 0 or ROOT / "src" not in origin.parents:
        raise SetupError(f"entspec did not import from {ROOT / 'src'} (got {line!r})")
    return ready


def run_pass(invocations, env, pass_id: int, traced: bool, spans: Path) -> Pass:
    runs = []
    for k, args in enumerate(invocations):
        if traced:
            argv = [str(BENCH_DIR / "tracer.py"), str(spans), str(pass_id), str(k), "--", *args]
        else:
            argv = ["-m", "entspec", *args]
        tag = "traced" if traced else "plain"
        runs.append(spawn(argv, env, WORK / f"{tag}{k}.out", WORK / f"{tag}{k}.err"))
    return Pass(traced, runs)


def judge(workload, seed: int, p: Pass, verified: set[str]) -> None:
    """Fill p.errors: exit status first, then the workload's output checks."""
    outs = [r.out for r in p.runs]
    key = hashlib.sha256("\0".join(outs).encode()).hexdigest()
    exit_errors = [
        None if r.code == 0 else f"exit {r.code}: {r.err.strip()[-300:]}" for r in p.runs
    ]
    if key in verified:
        check_errors = [None] * len(outs)
    else:
        check_errors = workload.check(seed, outs)
        if not any(check_errors):
            verified.add(key)
    p.errors = [e or c for e, c in zip(exit_errors, check_errors)]


def end_to_end(workload, passes: list[Pass], setups: list[float]) -> dict[str, float]:
    walls = [p.wall for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "purities_per_s": statistics.median(workload.purities / w for w in walls),
        "cpu_s": statistics.median(sum(r.cpu for r in p.runs) for p in passes),
        "peak_rss_mib": statistics.median(max(r.rss_mib for r in p.runs) for p in passes),
    }


# --- per-layer metrics from spans -------------------------------------------

PURITY_SPANS = {"purity.purity", "purity.reduced_density"}
FORMAT_SPANS = {
    "spectra.format_spectrum_csv",
    "theory.format_curve_tsv",
    "_fmt.json_dumps",
    "_fmt.g17",
}
MOMENT_SPANS = {"theory.sphere_moments", "theory.exact_moments"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    children: list["Span"] = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - sum(c.dur for c in self.children)

    def has_ancestor_in(self, names: set[str]) -> bool:
        s = self.parent
        while s is not None:
            if s.name in names:
                return True
            s = s.parent
        return False


def read_trace(lines: list[str]) -> tuple[dict[int, list[Span]], dict[int, dict[str, float]]]:
    """Spans and counters per pass from the tracer's JSON lines."""
    spans: dict[int, list[Span]] = {}
    counters: dict[int, dict[str, float]] = {}
    by_id: dict[tuple[int, int, int], Span] = {}
    for line in lines:
        rec = json.loads(line)
        p = rec["pass"]
        if "counter" in rec:
            c = counters.setdefault(p, {})
            c[rec["counter"]] = c.get(rec["counter"], 0) + rec["value"]
            continue
        parent = by_id.get((p, rec["invocation"], rec["parent"]))
        span = Span(rec["name"], rec["start"], rec["end"], parent)
        if parent is not None:
            parent.children.append(span)
        by_id[(p, rec["invocation"], rec["id"])] = span
        spans.setdefault(p, []).append(span)
    return spans, counters


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every metric of PER_LAYER except the
    two the runner adds: cli.out_bytes and trace.overhead_s)."""

    def named(names) -> list[Span]:
        return [s for s in spans if s.name in names]

    def total(ss) -> float:
        return sum(s.dur for s in ss)

    m: dict[str, float] = {}
    states = [s for s in spans if s.name.startswith("states.")]
    m["states.build_s"] = total(states)
    m["states.count"] = counters.get("states.count", 0)
    m["states.us_per_state"] = 1e6 * m["states.build_s"] / max(m["states.count"], 1)

    cuts = named(PURITY_SPANS)
    m["purity.calls"] = len(cuts)
    m["purity.s"] = total(cuts)
    m["purity.gather_s"] = sum(
        c.dur for s in cuts for c in s.children if c.name == "purity.coefficient_matrix"
    )
    m["purity.gram_s"] = m["purity.s"] - m["purity.gather_s"]
    m["purity.us_per_cut"] = 1e6 * m["purity.s"] / max(len(cuts), 1)
    m["purity.gram_gflop"] = counters.get("purity.gram_flop", 0) / 1e9
    m["purity.eff_gflops"] = (
        m["purity.gram_gflop"] / m["purity.gram_s"] if m["purity.gram_s"] > 0 else 0.0
    )
    m["purity.gather_mib"] = counters.get("purity.gather_bytes", 0) / 2**20

    sweeps = named({"spectra.compute_distribution"})
    m["spectra.cuts"] = sum(1 for s in sweeps for c in s.children if c.name in PURITY_SPANS)
    m["spectra.enumerate_s"] = total(named({"spectra.enumerate_masks"}))
    m["spectra.sweep_s"] = total(sweeps)
    m["spectra.self_s"] = sum(s.self_time for s in sweeps)
    # the statistics run after the last purity call of a sweep
    m["spectra.stats_s"] = sum(
        s.end - max((c.end for c in s.children), default=s.start) for s in sweeps
    )

    m["theory.moments_s"] = total(named(MOMENT_SPANS))
    m["theory.pdf_s"] = total(named({"theory.purity_pdf"}))

    pairs = named({"measures.concurrence"})
    m["measures.pairs"] = len(pairs)
    m["measures.pair_density_s"] = sum(
        c.dur for s in pairs for c in s.children if c.name == "purity.reduced_density"
    )
    eig = named({"measures.eig4"})
    m["measures.eig4_calls"] = len(eig)
    m["measures.eig4_s"] = total(eig)
    m["measures.eig4_failures"] = counters.get("measures.eig4.failures", 0)
    m["measures.concurrence_s"] = sum(s.self_time for s in pairs)
    m["measures.report_s"] = sum(s.self_time for s in named({"measures.format_measures_json"}))

    m["cli.main_s"] = total(named({"cli.main"}))
    m["cli.format_s"] = total(
        s for s in named(FORMAT_SPANS) if not s.has_ancestor_in(FORMAT_SPANS)
    )
    return m


# --- environment ------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> list[str]:
    out = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def describe_environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "entspec_threads_set": "ENTSPEC_THREADS" in os.environ,  # children run with it unset
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
    }


# --- main -------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool, spans_path: Path):
    """Run passes until `seconds` are used; returns (passes, setup probes)."""
    env = child_env()
    invocations = workload.argv(seed)
    probe_setup(env)  # warm the file cache and write bytecode before timing
    passes: list[Pass] = []
    setups: list[float] = []
    verified: set[str] = set()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            i = len(passes) // 2
            # alternate which side runs first, so drift does not bias the overhead
            order = (False, True) if i % 2 == 0 else (True, False)
            new = [run_pass(invocations, env, i, t, spans_path) for t in order]
        else:
            setups.append(probe_setup(env))
            new = [run_pass(invocations, env, len(passes), False, spans_path)]
        step = time.perf_counter() - t0
        for p in new:
            judge(workload, seed, p, verified)
        if trace:
            plain, traced = sorted(new, key=lambda p: p.traced)
            traced.errors = [
                e or (None if t.out == u.out else "traced output differs from untraced")
                for e, t, u in zip(traced.errors, traced.runs, plain.runs)
            ]
        passes.extend(new)
        if time.perf_counter() - start + step > seconds:
            return passes, setups


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<26} {value:>14.6g} {unit:<8}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "entspec" / "__init__.py").is_file():
        print(f"run.py: no entspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans_path = results / f"{stem}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    environment = describe_environment()
    try:
        passes, setups = measure(workload, args.seed, args.seconds, bool(args.trace), spans_path)
    except (SetupError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p.runs) for p in passes)
    failures = [(i, e) for i, p in enumerate(passes) for e in p.errors if e]
    plain = [p for p in passes if not p.traced]
    if args.trace:
        spans, counters = read_trace(spans_path.read_text().splitlines())
        traced = [p for p in passes if p.traced]
        per_pass = [
            layer_metrics(spans.get(i, []), counters.get(i, {})) for i in range(len(traced))
        ]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["cli.out_bytes"] = statistics.median(
            sum(len(r.out.encode()) for r in p.runs) for p in plain
        )
        metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
            p.wall for p in plain
        )
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, plain, setups)
        units = END_TO_END

    seed_note = "" if workload.uses_seed else "; this workload's inputs are fixed"
    print(f"workload {workload.name}  seed {args.seed} (default {DEFAULT_SEED}{seed_note})")
    print(f"environment {json.dumps(environment)}")
    print(
        f"passes {len(plain)} untraced"
        + (f", {len(passes) - len(plain)} traced" if args.trace else "")
        + "; operations = CLI invocations; metrics are medians over passes"
    )
    for name, unit in units.items():
        report(name, metrics[name], unit, "  (computed)" if name in COMPUTED else "")
    if args.trace and metrics["purity.calls"] != workload.purities:
        print(f"  WARNING: the trace saw {metrics['purity.calls']} purity evaluations of "
              f"{workload.purities}; tracer.BINDINGS misses a call site")
    report("fail_rate", len(failures) / attempted, "ratio", f"  ({len(failures)} of {attempted})")
    for i, e in failures[:5]:
        print(f"  FAILED pass {i}: {e}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_args": workload.argv(args.seed),
        "environment": environment,
        "setup_probes_s": setups,
        "passes": [
            {
                "traced": p.traced,
                "wall_s": [r.wall for r in p.runs],
                "cpu_s": [r.cpu for r in p.runs],
                "peak_rss_mib": [r.rss_mib for r in p.runs],
                "errors": p.errors,
            }
            for p in passes
        ],
        **result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
