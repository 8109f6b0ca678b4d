"""Hypothesis property tests for the sparse engine and its numeric phase."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import (
    GradientVector,
    ScanContext,
    SparseJacobian,
    blelloch_scan,
)
from repro.sparse import (
    CSRMatrix,
    KernelArena,
    build_spgemm_plan,
    spgemm,
    spgemm_flops,
    spgemm_numeric_batched,
)

dim = st.integers(min_value=1, max_value=12)
density = st.floats(min_value=0.0, max_value=0.9)


def make(seed, m, n, p):
    rng = np.random.default_rng(seed)
    return (rng.random((m, n)) < p) * rng.standard_normal((m, n))


@settings(max_examples=40, deadline=None)
@given(m=dim, n=dim, p=density, seed=st.integers(0, 2**16))
def test_roundtrip(m, n, p, seed):
    dense = make(seed, m, n, p)
    mat = CSRMatrix.from_dense(dense)
    mat.validate()
    np.testing.assert_allclose(mat.to_dense(), dense)
    assert mat.nnz == int((dense != 0).sum())


@settings(max_examples=40, deadline=None)
@given(m=dim, k=dim, n=dim, pa=density, pb=density, seed=st.integers(0, 2**16))
def test_spgemm_equals_dense(m, k, n, pa, pb, seed):
    A = make(seed, m, k, pa)
    B = make(seed + 1, k, n, pb)
    C = spgemm(CSRMatrix.from_dense(A), CSRMatrix.from_dense(B))
    C.validate()
    np.testing.assert_allclose(C.to_dense(), A @ B, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(m=dim, n=dim, p=density, seed=st.integers(0, 2**16))
def test_transpose_involution(m, n, p, seed):
    dense = make(seed, m, n, p)
    mat = CSRMatrix.from_dense(dense)
    tt = mat.transpose().transpose()
    tt.validate()
    np.testing.assert_allclose(tt.to_dense(), dense)


@settings(max_examples=40, deadline=None)
@given(m=dim, k=dim, n=dim, seed=st.integers(0, 2**16))
def test_identity_laws(m, k, n, seed):
    from repro.sparse import csr_eye

    A = make(seed, m, k, 0.4)
    a = CSRMatrix.from_dense(A)
    left = spgemm(csr_eye(m), a)
    right = spgemm(a, csr_eye(k))
    np.testing.assert_allclose(left.to_dense(), A)
    np.testing.assert_allclose(right.to_dense(), A)


@settings(max_examples=30, deadline=None)
@given(m=dim, k=dim, n=dim, seed=st.integers(0, 2**16))
def test_plan_flops_consistent(m, k, n, seed):
    a = CSRMatrix.from_dense(make(seed, m, k, 0.5))
    b = CSRMatrix.from_dense(make(seed + 1, k, n, 0.5))
    plan = build_spgemm_plan(a, b)
    assert plan.flops == spgemm_flops(a, b)
    assert plan.out_nnz <= plan.flops // 2 or plan.flops == 0


@settings(max_examples=30, deadline=None)
@given(m=dim, n=dim, seed=st.integers(0, 2**16))
def test_matvec_linearity(m, n, seed):
    rng = np.random.default_rng(seed)
    mat = CSRMatrix.from_dense(make(seed, m, n, 0.5))
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    np.testing.assert_allclose(
        mat.matvec(2.0 * x + y),
        2.0 * mat.matvec(x) + mat.matvec(y),
        atol=1e-10,
    )


# ---------------------------------------------------------------------------
# numeric-phase properties (see DESIGN.md § The numeric phase)
# ---------------------------------------------------------------------------
def _plan_bytes(plan):
    """Byte snapshot of every array the numeric phase may touch."""
    return tuple(
        arr.tobytes()
        for arr in (
            plan.src_a,
            plan.src_b,
            plan.scatter,
            plan.out_indptr,
            plan.out_indices,
        )
    )


@settings(max_examples=30, deadline=None)
@given(m=dim, k=dim, n=dim, seed=st.integers(0, 2**16))
def test_symbolic_pattern_determinism(m, k, n, seed):
    """Rebuilding a plan from the same patterns is byte-deterministic."""
    a = CSRMatrix.from_dense(make(seed, m, k, 0.4))
    b = CSRMatrix.from_dense(make(seed + 1, k, n, 0.4))
    p1, p2 = build_spgemm_plan(a, b), build_spgemm_plan(a, b)
    assert _plan_bytes(p1) == _plan_bytes(p2)
    assert p1.out_shape == p2.out_shape and p1.flops == p2.flops


@settings(max_examples=20, deadline=None)
@given(m=dim, k=dim, n=dim, batch=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_numeric_reuse_never_mutates_plan(m, k, n, batch, seed):
    """Numeric calls (reference or production, with or without arena)
    leave the symbolic plan bit-for-bit untouched — the reuse contract."""
    rng = np.random.default_rng(seed)
    a = CSRMatrix.from_dense(make(seed, m, k, 0.5))
    b = CSRMatrix.from_dense(make(seed + 1, k, n, 0.5))
    plan = build_spgemm_plan(a, b)
    before = _plan_bytes(plan)
    arena = KernelArena()
    for numeric in (
        lambda da, db: spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
        ),
        plan.execute_batched,
        lambda da, db: plan.execute_batched(da, db, arena=arena),
    ):
        for _ in range(2):
            numeric(
                rng.standard_normal((batch, a.nnz)),
                rng.standard_normal((batch, b.nnz)),
            )
    assert _plan_bytes(plan) == before


@settings(max_examples=40, deadline=None)
@given(
    m=dim,
    k=dim,
    n=dim,
    batch=st.integers(1, 4),
    shared=st.sampled_from(["none", "a", "b"]),
    seed=st.integers(0, 2**16),
)
def test_numeric_phase_bitwise_matches_reference(m, k, n, batch, shared, seed):
    """The production numeric phase equals the reference byte for byte,
    with a (1, nnz) shared operand on either side."""
    rng = np.random.default_rng(seed)
    a = CSRMatrix.from_dense(make(seed, m, k, 0.4))
    b = CSRMatrix.from_dense(make(seed + 1, k, n, 0.4))
    plan = build_spgemm_plan(a, b)
    da = rng.standard_normal((1 if shared == "a" else batch, a.nnz))
    db = rng.standard_normal((1 if shared == "b" else batch, b.nnz))
    ref = spgemm_numeric_batched(
        plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
    )
    got = plan.execute_batched(da, db, arena=KernelArena())
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_arena_workspaces_actually_reused():
    """Steady-state numeric calls are served from existing buffers."""
    rng = np.random.default_rng(3)
    a = CSRMatrix.from_dense(make(3, 10, 10, 0.5))
    b = CSRMatrix.from_dense(make(4, 10, 10, 0.5))
    plan = build_spgemm_plan(a, b)
    arena = KernelArena()

    def run(batch):
        plan.execute_batched(
            rng.standard_normal((batch, a.nnz)),
            rng.standard_normal((batch, b.nnz)),
            arena=arena,
        )

    run(4)
    assert (arena.allocations, arena.reuses) == (1, 0)
    for _ in range(5):
        run(4)
    assert (arena.allocations, arena.reuses) == (1, 5)
    run(2)  # smaller batches fit the warmed buffers
    assert (arena.allocations, arena.reuses) == (1, 6)
    run(6)  # growth reallocates exactly once
    assert arena.allocations == 2
    run(6)
    assert arena.allocations == 2


@pytest.fixture
def csr_alloc_counter(monkeypatch):
    """Counts every ``CSRMatrix`` constructed while the test runs."""
    counts = {"n": 0}
    original = CSRMatrix.__init__

    def counting(self, *args, **kwargs):
        counts["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(CSRMatrix, "__init__", counting)
    return counts


def test_steady_state_scan_allocates_no_csr(csr_alloc_counter):
    """After one warm-up scan (plans + output patterns built and
    cached), further scans over the same patterns with fresh values
    construct **zero** new ``CSRMatrix`` objects."""
    rng = np.random.default_rng(9)
    n, batch = 12, 3
    patterns = [CSRMatrix.from_dense(make(s, n, n, 0.3)) for s in range(4)]

    def items():
        its = [GradientVector(rng.standard_normal((batch, n)))]
        for pat in patterns:
            its.append(SparseJacobian(pat, rng.standard_normal((batch, pat.nnz))))
        return its

    ctx = ScanContext(sparse="on")
    blelloch_scan(items(), ctx.op)  # warm-up: symbolic phase + patterns
    warm = csr_alloc_counter["n"]
    for _ in range(3):
        blelloch_scan(items(), ctx.op)  # steady state: numeric phase only
    assert csr_alloc_counter["n"] == warm


@settings(max_examples=25, deadline=None)
@given(m=dim, k=dim, n=dim, batch=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_execute_batched_consistency(m, k, n, batch, seed):
    rng = np.random.default_rng(seed)
    a = CSRMatrix.from_dense(make(seed, m, k, 0.5))
    b = CSRMatrix.from_dense(make(seed + 1, k, n, 0.5))
    plan = build_spgemm_plan(a, b)
    da = rng.standard_normal((batch, a.nnz))
    db = rng.standard_normal((batch, b.nnz))
    out = plan.execute_batched(da, db)
    assert out.shape == (batch, plan.out_nnz)
    for i in range(batch):
        ref = plan.execute(a.with_data(da[i]), b.with_data(db[i]))
        np.testing.assert_allclose(out[i], ref.data, atol=1e-10)
