"""The BLAS thread policy: every BLAS call runs at one OpenBLAS thread and
the caller's count is back after every call, two threads' scopes running one
after the other; a sweep's cuts, the slab pairs
of one large cut and `concurrences`' pairs are dealt to the caller's count
of workers where the work pays for it, with identical results, on the
default OpenBLAS kernels and on the Haswell ones; idle OpenBLAS workers
sleep instead of spin."""

import json
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from entspec import BipartitionFamily, EnsembleSpec, PureState, make_cluster1d, make_w
from entspec import _blas, measures, purity, states
from entspec._blas import blas_threads
from entspec.measures import EigenConvergenceError, concurrences
from entspec.purity import SLAB_ROWS, _cut_matrices, purities
from entspec.states import sample_blocks
from helpers import haar_states, purity_quadruple_sum

needs_openblas = pytest.mark.skipif(
    _blas._setter() is None, reason="numpy's OpenBLAS has no per-call thread setting"
)
CALLER = 3  # a caller's count that no kernel sets
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def run_python(*argv, check=True, **env):
    """`python argv` in a child that imports the same package as this process,
    with `env` added to its environment; a value None removes the variable."""
    src = os.path.dirname(os.path.dirname(_blas.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, check=check,
        env={k: v for k, v in child.items() if v is not None},
    )


def threads():
    """The current OpenBLAS thread count, read by setting one and restoring
    it; not through `blas_threads`, whose lock a dealt worker must not take."""
    set_threads = _blas._setter()
    count = set_threads(1)
    set_threads(count)
    return count


def recorded_cuts(record):
    """`_cut_matrices`, recording the thread count at every cut it yields."""

    def cut_matrices(block, n, masks):
        for z in _cut_matrices(block, n, masks):
            record.append(threads())
            yield z

    return cut_matrices


def recorded_grams(monkeypatch):
    """A list to which every `np.matmul` call adds its thread (the object: an
    ident can be reused once a thread ends) and its BLAS thread count."""
    matmul = np.matmul
    grams = []

    def recorded(*args, **kwargs):
        grams.append((threading.current_thread(), threads()))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    return grams


@needs_openblas
class TestThreadCount:
    def test_scope_sets_and_restores(self):
        with blas_threads(CALLER):
            with blas_threads(1) as caller:
                assert caller == CALLER and threads() == 1
                with blas_threads(caller) as inner:
                    assert inner == 1 and threads() == CALLER
                assert threads() == 1
            assert threads() == CALLER

    def test_kernels_run_at_one_thread_and_restore_the_caller(self, monkeypatch):
        seen = []
        monkeypatch.setattr(purity, "_cut_matrices", recorded_cuts(seen))
        monkeypatch.setattr(measures, "_cut_matrices", recorded_cuts(seen))
        state = haar_states(6, 1, 11)[0]
        with blas_threads(CALLER):
            purities(state.amplitudes[None], 6, [0x7, 0x15])
            assert threads() == CALLER
            concurrences(state, [(0, 1), (2, 5)])
            assert threads() == CALLER
            blocks = sample_blocks(EnsembleSpec("haar", 4, 1), 3)
            next(blocks)
            assert threads() == CALLER  # not held while the generator waits
            list(blocks)
            assert threads() == CALLER
            PureState(6, state.amplitudes)
            assert threads() == CALLER
        assert seen == [1, 1, 1, 1]

    @pytest.mark.parametrize(
        "dtype, mask",
        [
            # real multiply-adds per state of the one slab Gram of a balanced cut
            ("real", 0x7F),  # 128^3 = 2.1e6
            ("real", 0x1FF),  # 512^3 = 1.3e8
            ("complex", 0x3F),  # 4 * 64^3 = 1.0e6
            ("complex", 0x7F),  # 4 * 128^3 = 8.4e6
        ],
    )
    def test_every_slab_gram_runs_at_one_thread(self, monkeypatch, dtype, mask):
        n = 2 * mask.bit_count()
        amps = make_cluster1d(n).amplitudes
        if dtype == "complex":
            amps = amps * np.exp(1j * np.arange(amps.size))
        grams = recorded_grams(monkeypatch)
        with blas_threads(CALLER):
            purities(amps[None], n, [mask])
        assert [count for _, count in grams] == [1]


@needs_openblas
class TestRestoredOnRaise:
    def test_purities(self, monkeypatch):
        def fail(block, n, masks):
            assert threads() == 1
            raise MemoryError("no gather buffer")
            yield

        monkeypatch.setattr(purity, "_cut_matrices", fail)
        with blas_threads(CALLER):
            with pytest.raises(MemoryError):
                purities(make_w(4).amplitudes[None], 4, [0x3])
            assert threads() == CALLER

    @pytest.mark.parametrize("solver", ["qr", "svd"])
    def test_concurrences(self, monkeypatch, solver):
        def fail(*_args, **_kwargs):
            assert threads() == 1
            raise np.linalg.LinAlgError(f"{solver} did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        with blas_threads(CALLER):
            with pytest.raises(EigenConvergenceError):
                concurrences(make_w(6), [(0, 3)])
            assert threads() == CALLER

    def test_sample_blocks(self, monkeypatch):
        def fail(seed, indices, dim):
            assert threads() == 1
            raise ValueError("draw failed")

        monkeypatch.setitem(states._ENSEMBLE_ROWS, "haar", fail)
        with blas_threads(CALLER):
            with pytest.raises(ValueError, match="draw failed"):
                next(sample_blocks(EnsembleSpec("haar", 3, 1), 2))
            assert threads() == CALLER


class TestOverlappingScopes:
    def test_a_second_thread_waits_for_the_first_scope(self, monkeypatch):
        # a process-wide count behind a fake setter: without the lock, B would
        # enter while A holds its scope, run its body at A's restored 2, and
        # restore A's 1 last, leaving the process at 1 thread
        process = {"count": 2}

        def set_threads(count):
            previous, process["count"] = process["count"], count
            return previous

        monkeypatch.setattr(_blas, "_setter", lambda: set_threads)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with blas_threads(1):
                a_in.set()
                seen["b entered during a"] = b_in.wait(timeout=0.2)
            a_out.set()

        def b():
            a_in.wait(timeout=10)
            with blas_threads(1):
                b_in.set()
                a_out.wait(timeout=10)
                seen["b body"] = process["count"]

        workers = [threading.Thread(target=f, daemon=True) for f in (a, b)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=20)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == {"b entered during a": False, "b body": 1}
        assert process["count"] == 2


class TestWithoutTheSymbol:
    def test_scope_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(_blas, "_setter", lambda: None)
        with blas_threads(1) as caller:
            assert caller is None

    def test_kernels_give_the_same_values(self, monkeypatch):
        # no reduction here is long enough for OpenBLAS to thread it
        state = haar_states(7, 1, 23)[0]
        spec = EnsembleSpec("phase-sphere", 4, 1)

        def run():
            return (
                purities(state.amplitudes[None], 7, [0x3, 0x55, 0x1F]),
                concurrences(make_w(5), [(0, 4), (1, 2)]),
                next(sample_blocks(spec, 2)),
            )

        expected = run()
        monkeypatch.setattr(_blas, "_setter", lambda: None)
        got = run()
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        assert got[0][0].tolist() == pytest.approx(
            [purity_quadruple_sum(state, m) for m in (0x3, 0x55, 0x1F)], rel=1e-12
        )


def sweep_block(n, rows, dtype, seed):
    """`rows` random rows of 2**n amplitudes, float64 or complex128."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, 1 << n))
    if dtype == "complex":
        block = block + 1j * rng.standard_normal(block.shape)
    return block / np.linalg.norm(block, axis=1, keepdims=True)


def dealt_cuts(record, workers):
    """`recorded_cuts`, also adding the thread of every worker to `workers`."""
    recorded = recorded_cuts(record)

    def cut_matrices(block, n, masks):
        workers.add(threading.current_thread())
        yield from recorded(block, n, masks)

    return cut_matrices


def no_thread_starts(monkeypatch):
    def start(self):
        raise AssertionError("purities started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)


@needs_openblas
class TestDealing:
    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize(
        "n, selector, step",
        # every 429th balanced mask at n = 14: complex cuts of 2^23 real
        # multiply-adds, whose bits differ between one and more BLAS threads
        # under the Haswell kernels (TestOtherKernels)
        [(10, "balanced", 1), (11, "balanced", 1), (14, "balanced", 429), (8, "all-sizes", 1)],
    )
    def test_any_worker_count_gives_equal_purities(self, n, selector, step, dtype, rows):
        family = BipartitionFamily(n, selector).masks()[::step].tolist()
        full = (1 << n) - 1
        masks = family + [m ^ full for m in family[::3]] + family[::5]  # complements, repeats
        block = sweep_block(n, rows, dtype, 2000 + n)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the workers trade the interpreter often
        try:
            for count in (1, 2, CALLER):
                with blas_threads(count):
                    results.append(purities(block, n, masks))
                    assert threads() == count
        finally:
            sys.setswitchinterval(interval)
        assert results[0].shape == (rows, len(masks))
        assert all(np.array_equal(r, results[0]) for r in results[1:])

    @pytest.mark.parametrize("count", [2, CALLER])
    def test_dealt_cuts_run_at_one_thread(self, monkeypatch, count):
        # cluster n = 14, balanced: 1716 cuts of 2^21 real multiply-adds each
        block = make_cluster1d(14).amplitudes[None]
        masks = BipartitionFamily(14, "balanced").masks()
        with blas_threads(1):
            one_worker = purities(block, 14, masks)
        seen, workers = [], set()
        monkeypatch.setattr(purity, "_cut_matrices", dealt_cuts(seen, workers))
        with blas_threads(count):
            values = purities(block, 14, masks)
            assert threads() == count
        assert seen == [1] * 1716
        assert len(workers) == count
        assert np.array_equal(values, one_worker)

    @pytest.mark.parametrize("fails", ["worker", "caller"])
    def test_an_error_is_raised_once_every_worker_has_joined(self, monkeypatch, fails):
        caller = threading.get_ident()
        failed, yielded = [], []
        lock = threading.Lock()

        def cut_matrices(block, n, masks):
            ident = threading.get_ident()
            with lock:
                fail = (ident == caller) == (fails == "caller") and True not in failed
                failed.append(fail)
            if fail:
                raise MemoryError("no gather buffer")
            for z in _cut_matrices(block, n, masks):
                time.sleep(0.1)  # the others outlast the failing worker
                yielded.append(ident)
                yield z

        monkeypatch.setattr(purity, "_cut_matrices", cut_matrices)
        masks = BipartitionFamily(14, "balanced").masks()[:6]  # 2^21 each: dealt, 2 a worker
        active = threading.active_count()
        with blas_threads(CALLER):
            with pytest.raises(MemoryError, match="no gather buffer"):
                purities(make_cluster1d(14).amplitudes[None], 14, masks)
            assert threads() == CALLER
        assert len(failed) == CALLER and failed.count(True) == 1
        assert len(yielded) == 4  # every cut of the two other workers
        assert threading.active_count() == active

    def test_the_mixed_call_gives_every_gram_one_thread(self, monkeypatch):
        # cluster n = 15: 0x7F's Gram takes 2^22 real multiply-adds, the three
        # others 2^21 each; the call is dealt, each Gram at one thread
        grams = recorded_grams(monkeypatch)
        with blas_threads(CALLER):
            purities(make_cluster1d(15).amplitudes[None], 15, [0x7F, 0x3F, 0x7E, 0xFC])
            assert threads() == CALLER
        assert [count for _, count in grams] == [1] * 4
        assert len({thread for thread, _ in grams}) == CALLER

    @pytest.mark.parametrize("max_qubits, dealt", [(17, 1), (18, 2), (26, CALLER)])
    def test_gathers_are_capped(self, monkeypatch, max_qubits, dealt):
        # 64 rows at n = 12: 2 MiB, so (16 << max_qubits) // 2 MiB workers
        block = sweep_block(12, 64, "real", 2100)
        assert block.nbytes == 1 << 21
        monkeypatch.setattr(purity, "MAX_QUBITS", max_qubits)
        if dealt == 1:
            no_thread_starts(monkeypatch)
        seen, workers = [], set()
        monkeypatch.setattr(purity, "_cut_matrices", dealt_cuts(seen, workers))
        with blas_threads(CALLER):
            purities(block, 12, BipartitionFamily(12, "balanced").masks()[:32])
        assert len(workers) == dealt

    @pytest.mark.parametrize("floor, dealt", [(1 << 18, True), ((1 << 18) + 1, False)])
    def test_no_thread_for_work_below_the_floor(self, monkeypatch, floor, dealt):
        # cluster n = 12, balanced: 462 cuts of 64^2 x 64 = 2^18 multiply-adds
        monkeypatch.setattr(purity, "DEAL_MADDS", floor)
        if not dealt:
            no_thread_starts(monkeypatch)
        seen, workers = [], set()
        monkeypatch.setattr(purity, "_cut_matrices", dealt_cuts(seen, workers))
        with blas_threads(CALLER):
            masks = BipartitionFamily(12, "balanced").masks()
            purities(make_cluster1d(12).amplitudes[None], 12, masks)
        assert len(workers) == (CALLER if dealt else 1)

    @pytest.mark.parametrize("n, phase, scale", [(15, 1, 1), (16, 1, 1), (6, 1j, 4)])
    def test_concurrences_count_32_n_b_a_pair(self, monkeypatch, n, phase, scale):
        # a pair's QR tree takes about 16 N_B real multiply-adds and its gather
        # as much again, so real pairs are dealt from n = 16 (W16's 120), not at 15
        work = []
        monkeypatch.setattr(
            measures, "_deal", lambda units, madds, run, gather=0: work.append((units, madds))
        )
        pairs = list(combinations(range(n), 2))
        concurrences(PureState(n, np.full(1 << n, phase * 2.0 ** (-n / 2))), pairs)
        ((units, madds),) = work
        assert len(units) == len(pairs)
        assert madds == len(pairs) * scale * 32 << (n - 2)
        if scale == 1:
            assert (madds >= purity.DEAL_MADDS * len(units)) == (n >= 16)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_row_block_over_many_masks(self, dtype):
        masks = BipartitionFamily(11, "balanced").masks()
        with blas_threads(CALLER):
            values = purities(np.empty((0, 1 << 11), dtype), 11, masks)
        assert values.shape == (0, masks.size)

    def test_no_masks_and_no_pairs(self):
        with blas_threads(CALLER):
            assert purities(make_w(4).amplitudes[None], 4, []).shape == (1, 0)
            assert concurrences(make_w(4), []).shape == (0, 4)

    @pytest.mark.parametrize(
        "dtype, mask",
        # 2 x 2 slabs of 512 rows: 3 slab pairs, an end run and a middle cut
        [("real", 0x3FF), ("complex", 0x55555)],
        ids=["real-0x3ff", "complex-0x55555"],
    )
    def test_any_worker_count_gives_equal_slab_pair_sums(self, monkeypatch, dtype, mask):
        block = sweep_block(20, 1, dtype, 2200)
        with blas_threads(1):
            expected = sum_of_slab_pairs(block, 20, mask)
        grams = recorded_grams(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the workers trade the interpreter often
        try:
            for count in (1, 2, CALLER):
                grams.clear()
                with blas_threads(count):
                    values = purities(block, 20, [mask, mask ^ ((1 << 20) - 1)])
                    assert threads() == count
                assert values.tobytes() == np.repeat(expected, 2).tobytes()
                assert [c for _, c in grams] == [1] * 3
                assert len({thread for thread, _ in grams}) == count
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("state, floor", [("w18", None), ("w16", None), ("cluster13", 1)])
    def test_any_worker_count_gives_equal_concurrences(self, monkeypatch, state, floor):
        # W18's and W16's pairs are dealt by the rule (16 is the fewest qubits
        # that are); cluster n = 13's only under a floor of 1: odd n, the two
        # end pairs as views and a two-level QR tree
        state = make_cluster1d(13) if state == "cluster13" else make_w(int(state[1:]))
        pairs = list(combinations(range(state.n), 2))
        with blas_threads(1):
            expected = concurrences(state, pairs)
        if floor is not None:
            monkeypatch.setattr(purity, "DEAL_MADDS", floor)
        for count in (1, 2, CALLER):
            seen, workers = [], set()
            monkeypatch.setattr(measures, "_cut_matrices", dealt_cuts(seen, workers))
            with blas_threads(count):
                lambdas = concurrences(state, pairs)
                assert threads() == count
            assert lambdas.tobytes() == expected.tobytes()
            assert seen == [1] * len(pairs)
            assert len(workers) == count

    @pytest.mark.parametrize("count", [1, 2, CALLER])
    @pytest.mark.parametrize(
        "kind, mask, extra",
        [
            # per worker: one Gram slab; a middle cut adds one shared gather
            ("real", 0x3FF, lambda state: 0),
            ("real", 0x55555, lambda state: state),
            # per worker: a Gram slab, a conjugate slab and numpy's ufunc buffer
            ("complex", 0x3FF, lambda state: 0),
        ],
        ids=["real-0x3ff", "real-0x55555", "complex-0x3ff"],
    )
    def test_dealt_cut_holds_one_gram_per_worker(self, count, kind, mask, extra):
        n = 20
        amps = sweep_block(n, 1, kind, 2300)[0]
        slab = 8 * SLAB_ROWS**2
        if kind == "complex":
            slab = 16 * (SLAB_ROWS * (1024 + SLAB_ROWS) + np.getbufsize())
        tracemalloc.start()
        try:
            block = amps[None].copy()  # traced, so the peak counts the state
            with blas_threads(count):
                purities(block, n, [mask])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes + extra(block.nbytes) + count * (slab + (16 << 10))

    @pytest.mark.skipif(os.cpu_count() > 64, reason="one worker a core would be too many")
    def test_a_count_above_the_cores_is_not_slow(self):
        # 8 complex rows at n = 14 over 119 balanced cuts of 2^23 real
        # multiply-adds each; OpenBLAS runs such a Gram at more threads than
        # cores tens of times slower than at one, so no Gram may take the
        # caller's count
        block = sweep_block(14, 8, "complex", 2400)
        masks = BipartitionFamily(14, "balanced").masks()[::29]
        assert masks.size == 119
        times = {}
        for count in (1, os.cpu_count() + 1, 1, os.cpu_count() + 1):
            with blas_threads(count):
                start = time.perf_counter()
                purities(block, 14, masks)
                took = time.perf_counter() - start
            times[count] = min(times.get(count, took), took)
        assert times[os.cpu_count() + 1] < 5 * times[1]


def sum_of_slab_pairs(block, n, mask):
    """The purity of each row of `block` across `mask` as one thread sums it:
    over j, then i <= j, of (2 - delta_ij) ||Z_i Z_j^dagger||^2, through the
    same BLAS calls as the kernel (a real diagonal Gram on one buffer)."""
    z = next(_cut_matrices(block, n, [mask]))
    total = np.zeros(block.shape[0])
    for j in range(0, z.shape[1], SLAB_ROWS):
        zj = z[:, j : j + SLAB_ROWS]
        if np.iscomplexobj(zj):
            zj = np.ascontiguousarray(np.conjugate(zj))
        for i in range(0, j + 1, SLAB_ROWS):
            g = np.matmul(z[:, i : i + SLAB_ROWS], zj.transpose(0, 2, 1))
            g = g.reshape(block.shape[0], -1)
            square = np.vecdot(g, g).real
            total += square if i == j else 2 * square
    return total


def cpu_flags():
    """The CPU flags Linux lists in /proc/cpuinfo; none elsewhere."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            return set(cpuinfo.read().split())
    except OSError:
        return set()


@needs_openblas
@pytest.mark.skipif(
    not {"avx2", "fma"} <= cpu_flags(), reason="the Haswell kernels need AVX2 and FMA"
)
class TestOtherKernels:
    def test_dealing_under_the_haswell_kernels(self):
        # under Haswell a complex Gram at two threads differs from one in the
        # last bit, so dealing is identical there only with every Gram at one
        result = run_python(
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{__file__}::TestDealing", OPENBLAS_CORETYPE="Haswell", check=False,
        )
        assert result.returncode == 0, result.stdout[-4000:]


# records the timeout the first import of numpy sees, then imports entspec
TIMEOUT_PROBE = """
import json, os, sys
assert "numpy" not in sys.modules
seen = []

class Finder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Finder())
before = dict(os.environ)
import entspec
print(json.dumps({"seen": seen, "unchanged": dict(os.environ) == before}))
"""


class TestThreadTimeout:
    @pytest.mark.parametrize("user, seen", [(None, "4"), ("30", "30")])
    def test_set_before_numpy_loads_and_environment_left_as_found(self, user, seen):
        result = json.loads(run_python("-c", TIMEOUT_PROBE, **{TIMEOUT: user}).stdout)
        assert result == {"seen": [seen], "unchanged": True}

    @needs_openblas
    @pytest.mark.skipif(os.cpu_count() == 1, reason="one CPU: no worker to spin")
    def test_cli_run_does_not_spin_idle_workers(self):
        # long enough to outlast the default ~0.1 s spin; every call is one
        # cut, so no sweep is dealt to workers, and no Gram here is large
        # enough to be threaded, so CPU beyond wall is idle spin
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        run_python(
            "-m", "entspec", "sample", "--kind", "phase-sphere", "--n", "5",
            "--count", "20000", "--seed", "1", "--mask", "0x3", **{TIMEOUT: None},
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        assert cpu - wall < 0.05
