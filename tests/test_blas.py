"""The BLAS thread policy: kernels run at one OpenBLAS thread, a large slab
Gram at the caller's count, and the caller's count is back after every call;
a sweep whose work pays for it deals its cuts to the caller's count of
workers, with identical results; idle OpenBLAS workers sleep instead of
spin."""

import json
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from entspec import BipartitionFamily, EnsembleSpec, PureState, make_cluster1d, make_w
from entspec import _blas, measures, purity, states
from entspec._blas import blas_threads
from entspec.measures import EigenConvergenceError, concurrences
from entspec.purity import _cut_matrices, purities
from entspec.states import BLOCK_BYTES, sample_blocks
from helpers import haar_states, purity_quadruple_sum

needs_openblas = pytest.mark.skipif(
    _blas._setter() is None, reason="numpy's OpenBLAS has no per-call thread setting"
)
CALLER = 3  # a caller's count that no kernel sets
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def run_python(*argv, **env):
    """`python argv` in a child that imports the same package as this process,
    with `env` added to its environment; a value None removes the variable."""
    src = os.path.dirname(os.path.dirname(_blas.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, check=True,
        env={k: v for k, v in child.items() if v is not None},
    )


def threads():
    """The current OpenBLAS thread count, read by setting one and restoring it."""
    with blas_threads(1) as count:
        return count


def recorded_cuts(record):
    """`_cut_matrices`, recording the thread count at every cut it yields."""

    def cut_matrices(block, n, masks):
        for z in _cut_matrices(block, n, masks):
            record.append(threads())
            yield z

    return cut_matrices


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
        "dtype, mask, threaded",
        [
            # real multiply-adds per state of the one slab Gram of a balanced cut
            ("real", 0x7F, False),  # 128^3 = 2.1e6
            ("real", 0x1FF, True),  # 512^3 = 1.3e8
            ("complex", 0x3F, False),  # 4 * 64^3 = 1.0e6
            ("complex", 0x7F, True),  # 4 * 128^3 = 8.4e6
        ],
    )
    def test_only_a_large_slab_gram_takes_the_caller_count(
        self, monkeypatch, dtype, mask, threaded
    ):
        n = 2 * mask.bit_count()
        amps = make_cluster1d(n).amplitudes
        if dtype == "complex":
            amps = amps * np.exp(1j * np.arange(amps.size))
        counts = []

        def recorded(count):
            counts.append(count)
            return blas_threads(count)

        monkeypatch.setattr(purity, "blas_threads", recorded)
        with blas_threads(CALLER):
            purities(amps[None], n, [mask])
        assert counts == [1, CALLER if threaded else None]


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
        workers.add(threading.get_ident())
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
        # every 429th balanced mask at n = 14: its complex cuts take threaded
        # Grams, slow at a CALLER count above the host's cores
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

    def test_no_thread_for_a_threaded_gram(self, monkeypatch):
        # n = 15 real is BLOCK_BYTES; 0x7F is a threaded Gram (2^22), the
        # three others 2^21 each: the one mixed call, where the dealing guard
        # and the per-Gram counts must agree
        block = make_cluster1d(15).amplitudes[None]
        assert block.nbytes == BLOCK_BYTES
        no_thread_starts(monkeypatch)
        counts = []

        def recorded(count):
            counts.append(count)
            return blas_threads(count)

        monkeypatch.setattr(purity, "blas_threads", recorded)
        with blas_threads(CALLER):
            purities(block, 15, [0x7F, 0x3F, 0x7E, 0xFC])
        assert counts == [1, CALLER, None, None, None]

    def test_no_thread_for_a_block_above_block_bytes(self, monkeypatch):
        # 64 rows at n = 12: 2 MiB of 2^24 real multiply-adds per cut
        block = sweep_block(12, 64, "real", 2100)
        assert block.nbytes > BLOCK_BYTES
        no_thread_starts(monkeypatch)
        with blas_threads(CALLER):
            purities(block, 12, BipartitionFamily(12, "balanced").masks()[:32])

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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_row_block_over_many_masks(self, dtype):
        masks = BipartitionFamily(11, "balanced").masks()
        with blas_threads(CALLER):
            values = purities(np.empty((0, 1 << 11), dtype), 11, masks)
        assert values.shape == (0, masks.size)


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
