"""Tests for two-phase SpGEMM and the pattern-plan cache."""

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    PatternCache,
    build_spgemm_plan,
    spgemm,
    spgemm_flops,
)


def random_sparse(rng, m, n, density=0.3):
    return (rng.random((m, n)) < density) * rng.standard_normal((m, n))


class TestSpGEMM:
    @pytest.mark.parametrize("shapes", [(4, 5, 6), (1, 1, 1), (10, 3, 8)])
    def test_matches_dense(self, rng, shapes):
        m, k, n = shapes
        A = random_sparse(rng, m, k)
        B = random_sparse(rng, k, n)
        C = spgemm(CSRMatrix.from_dense(A), CSRMatrix.from_dense(B))
        C.validate()
        np.testing.assert_allclose(C.to_dense(), A @ B, atol=1e-12)

    def test_shape_mismatch(self, rng):
        a = CSRMatrix.from_dense(random_sparse(rng, 3, 4))
        b = CSRMatrix.from_dense(random_sparse(rng, 5, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            spgemm(a, b)

    def test_empty_result(self, rng):
        a = CSRMatrix.from_dense(np.zeros((3, 4)))
        b = CSRMatrix.from_dense(random_sparse(rng, 4, 5))
        c = spgemm(a, b)
        assert c.nnz == 0 and c.shape == (3, 5)

    def test_flops_equals_two_expansion(self, rng):
        A = random_sparse(rng, 6, 7)
        B = random_sparse(rng, 7, 5)
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        plan = build_spgemm_plan(a, b)
        # expansion = Σ_k nnz(A[:,k])·nnz(B[k,:])
        expected = sum(
            int((A[:, k] != 0).sum()) * int((B[k, :] != 0).sum()) for k in range(7)
        )
        assert plan.flops == 2 * expected == spgemm_flops(a, b)

    def test_plan_numeric_phase_with_new_values(self, rng):
        """The paper's reuse: same pattern, new data, no symbolic work."""
        A = random_sparse(rng, 5, 5)
        B = random_sparse(rng, 5, 5)
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        plan = build_spgemm_plan(a, b)
        a2 = a.with_data(rng.standard_normal(a.nnz))
        c = plan.execute(a2, b)
        np.testing.assert_allclose(c.to_dense(), a2.to_dense() @ B, atol=1e-12)

    def test_execute_batched_matches_loop(self, rng):
        A = random_sparse(rng, 5, 6)
        B = random_sparse(rng, 6, 4)
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        plan = build_spgemm_plan(a, b)
        data_a = rng.standard_normal((3, a.nnz))
        data_b = rng.standard_normal((3, b.nnz))
        out = plan.execute_batched(data_a, data_b)
        for i in range(3):
            ref = plan.execute(a.with_data(data_a[i]), b.with_data(data_b[i]))
            np.testing.assert_allclose(out[i], ref.data, atol=1e-12)

    def test_empty_intersection_rows_are_explicit_zero_length(self, rng):
        """Rows whose gathers all miss must stay in the pattern as
        explicit zero-length rows — dropping them would desynchronize
        ``out_indptr`` from the output shape (regression, either way
        the row goes empty: A-row empty, or A-row nonempty but every
        touched B-row empty)."""
        A = np.zeros((3, 3))
        A[0, 1] = 2.0  # row 0: entries exist, but B row 1 is empty
        A[2, 2] = 3.0  # row 2: survives through B row 2
        B = np.zeros((3, 4))
        B[2, 0] = 1.0
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        plan = build_spgemm_plan(a, b)
        # row 0 (empty intersection) and row 1 (empty A-row) are both
        # explicit zero-length rows of the output pattern
        assert plan.out_indptr[0] == plan.out_indptr[1] == plan.out_indptr[2]
        assert len(plan.out_indptr) == A.shape[0] + 1
        assert plan.out_indptr[-1] == plan.out_nnz == 1
        c = plan.execute(a, b)
        c.validate()
        np.testing.assert_array_equal(c.to_dense(), A @ B)

    def test_empty_intersection_rows_via_kernels(self, rng):
        """The numeric phase matches the reference bitwise on plans with
        empty rows."""
        from repro.sparse import KernelArena, spgemm_numeric_batched

        A = np.zeros((4, 4))
        A[1, 0] = 1.5
        A[3, 2] = -2.0
        B = np.zeros((4, 2))
        B[2, 1] = 4.0  # only A row 3 intersects anything
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        plan = build_spgemm_plan(a, b)
        da = rng.standard_normal((2, a.nnz))
        db = rng.standard_normal((2, b.nnz))
        ref = spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
        )
        for arena in (None, KernelArena()):
            got = plan.execute_batched(da, db, arena=arena)
            assert got.tobytes() == ref.tobytes()

    def test_execute_batched_broadcasts_shared_side(self, rng):
        A = random_sparse(rng, 4, 4)
        B = random_sparse(rng, 4, 4)
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        plan = build_spgemm_plan(a, b)
        data_b = rng.standard_normal((2, b.nnz))
        out = plan.execute_batched(a.data, data_b)
        assert out.shape == (2, plan.out_nnz)
        for i in range(2):
            ref = plan.execute(a, b.with_data(data_b[i]))
            np.testing.assert_allclose(out[i], ref.data, atol=1e-12)


class TestPatternCache:
    def test_hit_on_same_pattern_new_values(self, rng):
        A = random_sparse(rng, 6, 6)
        B = random_sparse(rng, 6, 6)
        a, b = CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        cache = PatternCache()
        cache.multiply(a, b)
        cache.multiply(a.with_data(rng.standard_normal(a.nnz)), b)
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_miss_on_different_pattern(self, rng):
        cache = PatternCache()
        cache.multiply(
            CSRMatrix.from_dense(random_sparse(rng, 4, 4)),
            CSRMatrix.from_dense(random_sparse(rng, 4, 4)),
        )
        cache.multiply(
            CSRMatrix.from_dense(random_sparse(rng, 4, 4)),
            CSRMatrix.from_dense(random_sparse(rng, 4, 4)),
        )
        assert cache.misses == 2

    def test_maxsize_bounds_storage(self, rng):
        cache = PatternCache(maxsize=1)
        for _ in range(3):
            cache.multiply(
                CSRMatrix.from_dense(random_sparse(rng, 3, 3)),
                CSRMatrix.from_dense(random_sparse(rng, 3, 3)),
            )
        assert len(cache) == 1

    def test_clear(self, rng):
        cache = PatternCache()
        a = CSRMatrix.from_dense(random_sparse(rng, 3, 3))
        cache.multiply(a, a)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_invalid_maxsize_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            PatternCache(maxsize=bad)

    def _distinct_operands(self, n, size=4):
        """n operand pairs with pairwise-distinct patterns (diagonal
        shifted by k never collides)."""
        pairs = []
        for k in range(n):
            d = np.zeros((size, size))
            d[np.arange(size - 1), (np.arange(size - 1) + k) % size] = 1.0
            m = CSRMatrix.from_dense(d)
            pairs.append((m, m))
        return pairs

    def test_lru_evicts_least_recently_used(self):
        cache = PatternCache(maxsize=2)
        (a0, b0), (a1, b1), (a2, b2) = self._distinct_operands(3)
        cache.plan_for(a0, b0)  # key0
        cache.plan_for(a1, b1)  # key1; order: [key0, key1]
        cache.plan_for(a0, b0)  # hit refreshes key0; order: [key1, key0]
        cache.plan_for(a2, b2)  # evicts key1, the LRU entry
        assert len(cache) == 2
        assert cache.evictions == 1
        keys = cache.keys()
        assert keys[0] == (a0.pattern_key(), b0.pattern_key())  # older
        assert keys[1] == (a2.pattern_key(), b2.pattern_key())  # newest
        # key1 is gone: looking it up is a miss, key0 is still a hit
        misses = cache.misses
        cache.plan_for(a1, b1)
        assert cache.misses == misses + 1

    def test_stats_counters(self):
        cache = PatternCache(maxsize=1)
        (a0, b0), (a1, b1) = self._distinct_operands(2)
        cache.plan_for(a0, b0)
        cache.plan_for(a0, b0)
        cache.plan_for(a1, b1)  # evicts the first plan
        s = cache.stats()
        assert s == {
            "size": 1,
            "maxsize": 1,
            "hits": 1,
            "misses": 2,
            "evictions": 1,
            "hit_rate": 1 / 3,
        }
        cache.clear()
        s = cache.stats()
        assert s["hits"] == s["misses"] == s["evictions"] == s["size"] == 0
        assert s["hit_rate"] == 0.0

    def test_eviction_releases_arena_workspace(self):
        """KernelArena keys scratch by the plan object via weak refs:
        evicting a plan from the cache must let its workspace go too."""
        import gc
        import weakref

        from repro.sparse import KernelArena

        cache = PatternCache(maxsize=1)
        (a0, b0), (a1, b1) = self._distinct_operands(2)
        arena = KernelArena()
        plan = cache.plan_for(a0, b0)
        arena.workspace(plan, batch=2)
        ref = weakref.ref(plan)
        pool = arena._tls.pool
        assert plan in pool
        cache.plan_for(a1, b1)  # evicts plan — the cache held the only strong ref
        del plan
        gc.collect()
        assert ref() is None
        assert len(pool) == 0

    def test_multiply_correct(self, rng):
        A = random_sparse(rng, 5, 4)
        B = random_sparse(rng, 4, 6)
        out = PatternCache().multiply(
            CSRMatrix.from_dense(A), CSRMatrix.from_dense(B)
        )
        np.testing.assert_allclose(out.to_dense(), A @ B, atol=1e-12)
