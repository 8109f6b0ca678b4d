"""Differential oracle for the SpGEMM numeric phase (tier-1).

The one numeric phase — :func:`repro.sparse.spgemm_numeric`, behind
:meth:`~repro.sparse.SpGEMMPlan.execute_batched` — must be
**bitwise-identical** to the plain reference
:func:`repro.sparse.spgemm_numeric_batched`, not merely close.  This
file is the oracle that enforces it:

* a direct differential over random plans, covering shared ``(1, nnz)``
  operands, arena reuse, the free function on raw plan arrays, −0.0
  and empty plans;
* a full (algorithm × backend × sparse mode) matrix over randomized
  CSR chains — seeded, with forced empty rows, duplicate-free
  *unsorted* column indices, an all-zero block, and batch > 1 — where
  every cell's scan output must match a reference cell byte for byte;
* an engine-level cell (:class:`repro.core.FeedforwardBPPSA`) and the
  ``transformer_block`` workload cell, each against a reference cell.

A reference cell runs on the serial backend with
``SpGEMMPlan.execute_batched`` monkeypatched to the reference (see
:func:`reference_cell`); that swap exists only in this file, never as a
production option.
"""

import threading

import numpy as np
import pytest

from repro.backend import get_executor
from repro.config import ScanConfig
from repro.core import FeedforwardBPPSA
from repro.nn import LeNet5, Sequential, make_mlp
from repro.scan import (
    GradientVector,
    ScanContext,
    SparseJacobian,
    blelloch_scan,
    hillis_steele_scan,
    linear_scan,
    truncated_blelloch_scan,
)
from repro.sparse import (
    CSRMatrix,
    KernelArena,
    SpGEMMPlan,
    build_spgemm_plan,
    spgemm_numeric,
    spgemm_numeric_batched,
)

ALGORITHMS = ("blelloch", "linear", "hillis_steele", "truncated")
BACKENDS = ("serial", "thread:2")
SPARSE_MODES = ("on", "auto")


# ---------------------------------------------------------------------------
# randomized CSR inputs
# ---------------------------------------------------------------------------
def random_pattern(rng, m, n, density=0.3, force_empty_rows=True):
    """A validated random CSR pattern with adversarial structure.

    Some rows are forced empty, and the duplicate-free coordinates are
    fed to the constructor in *shuffled* (unsorted) COO order — the
    construction boundary must canonicalize them; the stored pattern
    then satisfies the repo's sorted-row CSR invariant.
    """
    mask = rng.random((m, n)) < density
    if force_empty_rows and m > 1:
        kill = rng.choice(m, size=max(1, m // 4), replace=False)
        mask[kill, :] = False
    rows, cols = np.nonzero(mask)
    order = rng.permutation(len(rows))  # duplicate-free, unsorted arrival
    mat = CSRMatrix.from_coo(
        rows[order],
        cols[order],
        rng.standard_normal(len(rows)),
        (m, n),
        sum_duplicates=False,
    )
    mat.validate()
    return mat


def oracle_items(seed, n=12, stages=6, batch=3):
    """Gradient seed + randomized square CSR chain (deterministic)."""
    rng = np.random.default_rng(seed)
    zero = CSRMatrix(
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        (n, n),
    )
    items = [GradientVector(rng.standard_normal((batch, n)))]
    for stage in range(stages):
        if stage == stages - 2:
            # an all-zero block: empty plans, zero-length output rows
            items.append(SparseJacobian(zero, rng.standard_normal((batch, 0))))
        elif stage % 3 == 2:
            # shared values: one pattern-with-data for the whole batch
            items.append(SparseJacobian(random_pattern(rng, n, n)))
        else:
            pat = random_pattern(rng, n, n)
            items.append(
                SparseJacobian(pat, rng.standard_normal((batch, pat.nnz)))
            )
    return items


def snapshot(elements):
    """Byte-exact summary of a scan result (pattern + values)."""
    snap = []
    for el in elements:
        if isinstance(el, SparseJacobian):
            snap.append(
                (
                    "sparse",
                    el.pattern.indptr.tobytes(),
                    el.pattern.indices.tobytes(),
                    np.ascontiguousarray(el.values()).tobytes(),
                )
            )
        elif hasattr(el, "data"):
            snap.append(
                (
                    type(el).__name__,
                    np.ascontiguousarray(el.data).tobytes(),
                )
            )
        else:  # Identity slots of the exclusive scan
            snap.append((type(el).__name__,))
    return snap


def run_cell(algorithm, backend, sparse, seed=0x5EED):
    """One (algorithm, backend, sparse) oracle cell."""
    items = oracle_items(seed)
    ctx = ScanContext(sparse=sparse)
    with get_executor(backend) as ex:
        if algorithm == "linear":
            out = linear_scan(items, ctx.op)
        elif algorithm == "hillis_steele":
            out = hillis_steele_scan(items, ctx.op, executor=ex)
        elif algorithm == "truncated":
            out = truncated_blelloch_scan(
                items, ctx.op, up_levels=2, executor=ex
            )
        else:
            out = blelloch_scan(items, ctx.op, executor=ex)
    return snapshot(out)


def reference_cell(fn, *args, spgemm=True):
    """``fn(*args)`` with every SpGEMM numeric phase on the reference.

    Monkeypatches :meth:`SpGEMMPlan.execute_batched` to
    :func:`spgemm_numeric_batched` for the duration of the call; with
    ``spgemm=True`` it also checks that the reference really ran, so a
    cell can never silently compare the production path to itself.
    """
    calls = []

    def reference_execute_batched(plan, data_a, data_b, arena=None):
        calls.append(plan)
        return spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, data_a, data_b
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpGEMMPlan, "execute_batched", reference_execute_batched)
        result = fn(*args)
    assert bool(calls) == spgemm
    return result


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------
class TestKernelOracleMatrix:
    """Every execution cell reproduces the reference cell byte for byte."""

    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bitwise_identical_across_cells(self, algorithm, sparse):
        # A linear scan seeded with the gradient runs mat-vecs only.
        ref = reference_cell(
            run_cell, algorithm, "serial", sparse,
            spgemm=algorithm != "linear",
        )
        for backend in BACKENDS:
            got = run_cell(algorithm, backend, sparse)
            assert got == ref, (
                f"cell ({algorithm}, {backend}, sparse={sparse}) diverged "
                "from the reference"
            )

    @pytest.mark.parametrize("algorithm", ("blelloch", "truncated"))
    def test_auto_cells_cover_both_sides_of_the_cutoff(self, algorithm):
        # The auto cells above pin kept-CSR and densified SpGEMM
        # products alike only if the chain produces both.
        ctx = ScanContext(sparse="auto")
        products = []

        def op(a, b, info=None):
            out = ctx.op(a, b, info)
            if isinstance(a, SparseJacobian) and isinstance(b, SparseJacobian):
                products.append(isinstance(out, SparseJacobian))
            return out

        items = oracle_items(0x5EED)
        if algorithm == "truncated":
            truncated_blelloch_scan(items, op, up_levels=2)
        else:
            blelloch_scan(items, op)
        assert products.count(True) >= 1  # kept as CSR
        assert products.count(False) >= 1  # densified


# ---------------------------------------------------------------------------
# direct differential
# ---------------------------------------------------------------------------
class TestKernelDifferential:
    """spgemm_numeric ≡ spgemm_numeric_batched on random plans."""

    def test_numeric_phase_matches_reference_bitwise(self):
        rng = np.random.default_rng(2024)
        arena = KernelArena()
        for _ in range(60):
            m, k, n = (int(v) for v in rng.integers(1, 14, size=3))
            a = random_pattern(rng, m, k, density=float(rng.uniform(0, 0.6)))
            b = random_pattern(rng, k, n, density=float(rng.uniform(0, 0.6)))
            plan = build_spgemm_plan(a, b)
            batch = int(rng.integers(1, 5))
            # shared sides arrive as (1, nnz) — exercise both mixes
            da = (
                a.data[None, :]
                if rng.random() < 0.3
                else rng.standard_normal((batch, a.nnz))
            )
            db = (
                b.data[None, :]
                if rng.random() < 0.3
                else rng.standard_normal((batch, b.nnz))
            )
            eff_batch = max(da.shape[0], db.shape[0])
            raw = (plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db)
            ref = spgemm_numeric_batched(*raw)
            for got in (
                plan.execute_batched(da, db),
                plan.execute_batched(da, db, arena=arena),
                plan.execute_batched(da, db, arena=arena),  # warmed scratch
                spgemm_numeric(*raw),  # the free function on raw plan arrays
            ):
                assert got.shape == (eff_batch, plan.out_nnz) == ref.shape
                assert got.tobytes() == ref.tobytes()
        assert arena.reuses > 0  # warmed workspaces served repeat calls

    def test_plan_execute_batched_kernel_path_matches_legacy(self):
        # A 1-D shared value array broadcasts like the reference's.
        rng = np.random.default_rng(7)
        a = random_pattern(rng, 9, 10, density=0.4)
        b = random_pattern(rng, 10, 8, density=0.4)
        plan = build_spgemm_plan(a, b)
        db = rng.standard_normal((3, b.nnz))
        ref = spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, a.data, db
        )
        got = plan.execute_batched(a.data, db, arena=KernelArena())
        assert got.shape == (3, plan.out_nnz)
        assert got.tobytes() == ref.tobytes()

    def test_negative_zero_normalization_matches(self):
        # bincount starts every slot at +0.0, turning a lone -0.0
        # product into +0.0; the numeric phase must do the same.
        a = CSRMatrix.from_dense(np.array([[-0.0 + 1e-300, 0.0], [0.0, 1.0]]))
        a.data[0] = -0.0  # force an explicit -0.0 stored value
        b = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        plan = build_spgemm_plan(a, b)
        da, db = a.data[None, :], b.data[None, :]
        ref = spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
        )
        got = plan.execute_batched(da, db, arena=KernelArena())
        assert got.tobytes() == ref.tobytes()

    def test_empty_plan_matches_reference(self):
        # No expanded product at all: zero values, no scratch touched.
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = CSRMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 0.0]]))
        plan = build_spgemm_plan(a, b)
        assert len(plan.src_a) == 0 and plan.out_nnz == 0
        da, db = np.ones((3, a.nnz)), np.ones((1, b.nnz))
        ref = spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
        )
        arena = KernelArena()
        got = plan.execute_batched(da, db, arena=arena)
        assert got.shape == ref.shape == (3, 0)
        assert (arena.allocations, arena.reuses) == (0, 0)


    def test_results_never_alias_arena_scratch(self):
        # Scan results outlive the level that made them, so the next
        # product on the same plan must not overwrite an earlier one.
        rng = np.random.default_rng(5)
        a = random_pattern(rng, 8, 8, density=0.5)
        plan = build_spgemm_plan(a, a)
        arena = KernelArena()
        da = rng.standard_normal((2, a.nnz))
        first = plan.execute_batched(da, da, arena=arena)
        kept = first.copy()
        plan.execute_batched(2 * da, da, arena=arena)
        assert arena.reuses == 1
        assert first.tobytes() == kept.tobytes()

    def test_arena_scratch_is_per_thread(self):
        # Concurrent ⊙ products of one scan level must not share scratch.
        rng = np.random.default_rng(6)
        a = random_pattern(rng, 6, 6, density=0.5)
        plan = build_spgemm_plan(a, a)
        arena = KernelArena()
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(arena.workspace(plan, 2))
        )
        worker.start()
        worker.join()
        mine = arena.workspace(plan, 2)
        assert seen[0] is not mine
        assert arena.allocations == 2 and arena.workspace(plan, 2) is mine


# ---------------------------------------------------------------------------
# engine level
# ---------------------------------------------------------------------------
class TestEngineKernelOracle:
    @staticmethod
    def _grads():
        net = LeNet5(rng=np.random.default_rng(0), width_multiplier=0.25)
        model = Sequential(*(list(net.features) + list(net.classifier)))
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32))
        y = np.array([0, 1])
        with FeedforwardBPPSA(model, config="serial/sparse=on") as eng:
            grads = eng.compute_gradients(x, y)
        return [grads[id(p)] for p in model.parameters() if id(p) in grads]

    def test_gradients_bitwise_independent_of_kernel(self):
        ref = reference_cell(self._grads)
        out = self._grads()
        assert len(ref) == len(out) > 0
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the transformer workload cell
# ---------------------------------------------------------------------------
class TestTransformerWorkloadOracle:
    """The ``transformer_scan`` workload's gradients are bitwise-
    identical across backend × sparse mode.

    The chain mixes every Jacobian storage form the engine produces
    (dense per-sample attention, per-sample CSR LayerNorm/ReLU, shared
    CSR position-wise Linears, a shared dense head), so this one cell
    pins the composition rules of all of them to the serial reference
    cell of each sparse mode."""

    @staticmethod
    def _grads(backend, sparse):
        from repro.experiments.common import Scale
        from repro.workloads import transformer

        model, x, y = transformer.build(Scale.SMOKE)
        with FeedforwardBPPSA(model, config=f"{backend}/sparse={sparse}") as eng:
            grads = eng.compute_gradients(x, y)
        return {
            name: grads[id(p)].tobytes()
            for name, p in model.named_parameters()
        }

    @pytest.mark.parametrize("sparse", ("on", "off", "auto"))
    def test_bitwise_identical_across_cells(self, sparse):
        ref = reference_cell(
            self._grads, "serial", sparse, spgemm=sparse != "off"
        )
        assert len(ref) == 9
        for backend in ("serial", "thread:2"):
            got = self._grads(backend, sparse)
            assert got == ref, (
                f"transformer cell ({backend}, sparse={sparse}) diverged "
                "from the reference"
            )


# ---------------------------------------------------------------------------
# removed spellings
# ---------------------------------------------------------------------------
class TestRemovedSpellings:
    """The kernel knob and the densify_threshold shims are gone, loudly."""

    def test_kernel_spec_segment_rejected(self):
        with pytest.raises(ValueError, match="known keys"):
            ScanConfig.from_spec("blelloch/kernel=numba")
        with pytest.raises(TypeError):
            ScanConfig(kernel="numba")

    def test_densify_threshold_kwarg_rejected(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="densify_threshold"):
            FeedforwardBPPSA(model, densify_threshold=0.4)
        with pytest.raises(TypeError, match="densify_threshold"):
            ScanContext(densify_threshold=None)


class TestKernelResolution:
    def test_invalid_kernel_rejected(self):
        # With one numeric phase every kernel name is invalid.
        for name in ("numba", "numpy", "fortran"):
            with pytest.raises(ValueError, match="kernel"):
                ScanContext(kernel=name)
        # The inert spelling still constructs, and a config's kernel is
        # always None without being a field.
        cfg = ScanConfig.from_spec("blelloch/serial").resolve()
        assert cfg.kernel is None
        assert "kernel" not in cfg.to_dict() and "kernel" not in cfg.spec()
        ScanContext(sparse=cfg.sparse_policy(), kernel=cfg.kernel)
