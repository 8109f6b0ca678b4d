"""Tests for the pluggable scan-execution backend subsystem.

Covers executor specs (parsing, instances, error cases) and — the
property the whole subsystem rests on — bitwise-identical scan results
and gradients across the serial and thread executors.
"""

import threading
import weakref

import numpy as np
import pytest

from repro.backend import (
    LevelTask,
    ScanExecutor,
    SerialExecutor,
    ThreadPoolScanExecutor,
    get_executor,
)
from repro.scan import (
    DenseJacobian,
    GradientVector,
    ScaledShared,
    ScanContext,
    blelloch_scan,
    hillis_steele_scan,
    linear_scan,
    simple_op,
    truncated_blelloch_scan,
)


def chain(rng, n, batch=2, h=4, kind="dense"):
    """A seed vector and ``n`` per-sample Jacobians: ``dense`` ones, or
    RNN-style ``scaled`` ones (``Wᵀ·diag(s_b)``, one W and pair table)."""
    items = [GradientVector(rng.standard_normal((batch, h)))]
    if kind == "dense":
        items += [DenseJacobian(rng.standard_normal((batch, h, h))) for _ in range(n)]
    else:
        w = rng.standard_normal((h, h))
        pairs = ScaledShared.pair_table(w)
        items += [
            ScaledShared(w, rng.standard_normal((batch, h)), pairs) for _ in range(n)
        ]
    return items


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_serial_is_shared_singleton(self):
        assert get_executor("serial") is get_executor("serial")
        assert isinstance(get_executor("serial"), SerialExecutor)

    def test_thread_spec_workers(self):
        with get_executor("thread:3") as ex:
            assert isinstance(ex, ThreadPoolScanExecutor)
            assert ex.workers == 3

    def test_thread_default_workers(self):
        with get_executor("thread") as ex:
            assert ex.workers >= 1

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown scan backend"):
            get_executor("gpu:4")

    def test_removed_process_backend_fails_loudly(self):
        """``process:N`` is an unknown name everywhere a spec resolves,
        and the error lists the backends that remain."""
        from repro.config import build_engine
        from repro.core import RNNBPPSA
        from repro.nn import RNNClassifier

        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        for build in (
            lambda: get_executor("process:2"),
            lambda: RNNBPPSA(clf, config="process:2"),
            lambda: build_engine(clf, "process:2"),
        ):
            with pytest.raises(ValueError, match="unknown scan backend 'process'") as e:
                build()
            assert "serial" in str(e.value) and "thread" in str(e.value)

    @pytest.mark.parametrize("spec", ["thread:0", "thread:-2"])
    def test_nonpositive_workers(self, spec):
        with pytest.raises(ValueError, match="worker count"):
            get_executor(spec)

    def test_non_integer_workers(self):
        with pytest.raises(ValueError, match="invalid worker count"):
            get_executor("thread:lots")

    def test_serial_rejects_worker_count(self):
        with pytest.raises(ValueError, match="exactly one worker"):
            get_executor("serial:4")
        assert get_executor("serial:1") is get_executor("serial")

    def test_bad_spec_type(self):
        with pytest.raises(TypeError):
            get_executor(7)


# ---------------------------------------------------------------------------
# executor equivalence: bitwise-identical across backends
# ---------------------------------------------------------------------------
EXECUTOR_SPECS = ["serial", "thread:4"]


class TestEquivalence:
    kind = "dense"  # chain() element kind

    @pytest.mark.parametrize("spec", EXECUTOR_SPECS)
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 33])
    def test_blelloch_matches_linear(self, rng, spec, n):
        items = chain(rng, n, kind=self.kind)
        ref = linear_scan(items, ScanContext().op)
        with get_executor(spec) as ex:
            out = blelloch_scan(items, ScanContext().op, executor=ex)
        for p in range(1, n + 1):
            np.testing.assert_allclose(out[p].data, ref[p].data, atol=1e-10)

    @pytest.mark.parametrize("spec", ["thread:4"])
    def test_blelloch_bitwise_identical_to_serial(self, rng, spec):
        """Same ops in the same per-op order ⇒ bitwise identical."""
        items = chain(rng, 12, h=8, kind=self.kind)
        serial = blelloch_scan(items, ScanContext().op)
        with get_executor(spec) as ex:
            out = blelloch_scan(items, ScanContext().op, executor=ex)
        for p in range(1, 13):
            np.testing.assert_array_equal(serial[p].data, out[p].data)

    @pytest.mark.parametrize("spec", ["thread:4"])
    def test_hillis_steele_bitwise(self, rng, spec):
        items = chain(rng, 11, kind=self.kind)
        serial = hillis_steele_scan(items, ScanContext().op)
        with get_executor(spec) as ex:
            out = hillis_steele_scan(items, ScanContext().op, executor=ex)
        for p in range(1, 12):
            np.testing.assert_array_equal(serial[p].data, out[p].data)

    @pytest.mark.parametrize("spec", ["thread:4"])
    @pytest.mark.parametrize("up_levels", [0, 1, 2, 5])
    def test_truncated_bitwise(self, rng, spec, up_levels):
        items = chain(rng, 14, kind=self.kind)
        serial = truncated_blelloch_scan(
            items, ScanContext().op, up_levels=up_levels
        )
        with get_executor(spec) as ex:
            out = truncated_blelloch_scan(
                items, ScanContext().op, up_levels=up_levels, executor=ex
            )
        for p in range(1, 15):
            np.testing.assert_array_equal(serial[p].data, out[p].data)

    @pytest.mark.parametrize("spec", EXECUTOR_SPECS)
    def test_non_commutative_strings(self, spec):
        concat = simple_op(lambda a, b: b + a)
        items = list("abcdefghij")
        with get_executor(spec) as ex:
            out = blelloch_scan(items, concat, identity="", executor=ex)
        expected = ["".join(reversed(items[:k])) for k in range(len(items))]
        assert out == expected

    @pytest.mark.parametrize("spec", EXECUTOR_SPECS)
    def test_single_element(self, spec):
        with get_executor(spec) as ex:
            out = blelloch_scan(
                ["x"], simple_op(lambda a, b: b + a), identity="", executor=ex
            )
        assert out == [""]


class TestEquivalenceScaledShared(TestEquivalence):
    """The same cells over ScaledShared chains: level-0 products take the
    pair-table rule, later ones the dense rule, mat-vecs ``(v·s)·W``."""

    kind = "scaled"


# ---------------------------------------------------------------------------
# engine-level: gradients bitwise-identical across backends (fig9 shape)
# ---------------------------------------------------------------------------
class TestEngineBackends:
    def _rnn_grads(self, spec):
        from repro.core import RNNBPPSA
        from repro.data import BitstreamDataset
        from repro.nn import RNNClassifier

        ds = BitstreamDataset(seq_len=40, num_samples=32, seed=0)
        x, y = next(iter(ds.batches(8, num_batches=1)))
        clf = RNNClassifier(1, 20, 10, rng=np.random.default_rng(0))
        with RNNBPPSA(clf, config=f"blelloch/{spec}") as eng:
            return list(eng.compute_gradients(x, y).values())

    @pytest.mark.parametrize("spec", ["thread:2"])
    def test_rnn_gradients_bitwise(self, spec):
        ref = self._rnn_grads("serial")
        got = self._rnn_grads(spec)
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    def test_feedforward_gradients_bitwise(self):
        from repro.core import FeedforwardBPPSA
        from repro.nn import make_mlp

        rng = np.random.default_rng(3)
        model = make_mlp([16, 24, 24, 10], activation="tanh", rng=rng)
        x = rng.standard_normal((4, 16))
        y = rng.integers(0, 10, 4)
        ref = list(FeedforwardBPPSA(model).compute_gradients(x, y).values())
        with FeedforwardBPPSA(model, config="thread:2") as eng:
            got = list(eng.compute_gradients(x, y).values())
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    def test_engine_owns_spec_string_executor(self):
        """The engine builds, owns and closes the executor its config's
        spec string names."""
        from repro.core import RNNBPPSA
        from repro.nn import RNNClassifier

        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        eng = RNNBPPSA(clf, config="thread:2")
        assert eng.executor._pool is not None
        eng.close()
        assert eng.executor._pool is None  # owned → closed

    def test_engine_leaves_caller_instance_open(self):
        from repro.core import RNNBPPSA
        from repro.nn import RNNClassifier

        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with ThreadPoolScanExecutor(2) as ex:
            with RNNBPPSA(clf, executor=ex):
                pass
            assert ex._pool is not None  # caller-owned → untouched


# ---------------------------------------------------------------------------
# executor mechanics
# ---------------------------------------------------------------------------
class TestThreadExecutor:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadPoolScanExecutor(0)

    def test_single_worker_has_no_pool(self):
        ex = ThreadPoolScanExecutor(1)
        assert ex._pool is None
        ex.close()

    def test_actually_uses_multiple_threads(self):
        """Ops in a wide level observe more than one thread id."""
        seen = set()
        lock = threading.Lock()

        def op(a, b, info):
            with lock:
                seen.add(threading.get_ident())
            return b + a

        items = [f"{i}," for i in range(64)]
        with ThreadPoolScanExecutor(8) as ex:
            blelloch_scan(items, op, identity="", executor=ex)
        assert len(seen) > 1

    def test_context_manager_closes_pool(self):
        with ThreadPoolScanExecutor(2) as ex:
            assert ex._pool is not None
        assert ex._pool is None

    def test_concurrent_flop_accounting(self, rng):
        """ScanContext bookkeeping is lock-guarded: a wide level run on
        many threads must record exactly the serial totals."""
        items = chain(rng, 33, h=6)
        ctx_serial = ScanContext()
        blelloch_scan(items, ctx_serial.op)
        ctx = ScanContext()
        with ThreadPoolScanExecutor(8) as ex:
            blelloch_scan(items, ctx.op, executor=ex)
        assert ctx.total_flops == ctx_serial.total_flops
        assert len(ctx.trace) == len(ctx_serial.trace)

    def test_user_error_leaves_pool_usable(self, rng):
        """A bad ⊙ (shape mismatch) is the caller's bug, not the
        pool's: it propagates, and the same executor then scans a good
        chain bitwise-equal to serial."""
        good = chain(rng, 8, h=6)
        bad = [GradientVector(rng.standard_normal((2, 6)))]
        bad += [DenseJacobian(rng.standard_normal((2, 6, 6))) for _ in range(6)]
        bad.insert(3, DenseJacobian(rng.standard_normal((2, 5, 5))))
        with ThreadPoolScanExecutor(2) as ex:
            with pytest.raises(ValueError):
                blelloch_scan(bad, ScanContext().op, executor=ex)
            out = blelloch_scan(good, ScanContext().op, executor=ex)
        ref = blelloch_scan(good, ScanContext().op)
        for p in range(1, 9):
            np.testing.assert_array_equal(out[p].data, ref[p].data)


def test_level_task_runs_op():
    task = LevelTask(lambda a, b, info: (b, a, info), "A", "B", "i")
    assert task.run() == ("B", "A", "i")


def test_level_task_is_an_immutable_tuple():
    task = LevelTask(len, "A", "B", "i")
    assert task == (len, "A", "B", "i")
    with pytest.raises(AttributeError):
        task.a = "C"


def test_serial_run_level_drops_each_task_once_run():
    """``run_level`` owns its list: each task is dropped once it has
    run, so an operand only a task holds is freed before the next ⊙."""

    class Operand:
        pass

    alive = []

    def op(a, b, i):
        alive.append([r() is not None for r in refs[:i]])
        return i

    tasks = [LevelTask(op, None, Operand(), i) for i in range(3)]
    refs = [weakref.ref(t.b) for t in tasks]
    assert SerialExecutor().run_level(tasks) == [0, 1, 2]
    assert alive == [[], [False], [False, False]]
    assert all(r() is None for r in refs)


def test_scan_executor_is_abstract():
    with pytest.raises(TypeError):
        ScanExecutor()
