"""Scan-algorithm correctness: all variants must equal the serial scan.

The key property: for the *non-commutative* ⊙, the modified Blelloch
scan (with its operand reversal in the down-sweep, paper Algorithm 1
line 13) produces exactly the exclusive-scan outputs for every array
length — power of two or not.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import (
    DenseJacobian,
    GradientVector,
    IDENTITY,
    ScanContext,
    SparseJacobian,
    blelloch_num_levels,
    blelloch_scan,
    hillis_steele_scan,
    linear_scan,
    simple_op,
    stage_truncated_scan,
    truncated_blelloch_scan,
)
from repro.sparse import CSRMatrix


# ---------------------------------------------------------------------------
# string-level semantics (pure algorithm, no numerics)
# ---------------------------------------------------------------------------
concat = simple_op(lambda a, b: b + a)  # A ⊙ B = B·A on strings


def exclusive_reference(items):
    """out[k] = a0 ⊙ … ⊙ a_{k−1} computed by definition."""
    out = [""]
    for k in range(1, len(items)):
        acc = items[0]
        for j in range(1, k):
            acc = items[j] + acc  # acc ⊙ a_j = a_j · acc
        out.append(acc)
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40))
def test_blelloch_equals_reference_strings(n):
    items = [chr(ord("A") + (i % 26)) + str(i) for i in range(n)]
    assert blelloch_scan(items, concat, identity="") == exclusive_reference(items)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40))
def test_hillis_steele_equals_reference_strings(n):
    items = [chr(ord("A") + (i % 26)) + str(i) for i in range(n)]
    assert hillis_steele_scan(items, concat, identity="") == exclusive_reference(items)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(0, 7))
def test_truncated_equals_reference_strings(n, k):
    items = [chr(ord("A") + (i % 26)) + str(i) for i in range(n)]
    assert (
        truncated_blelloch_scan(items, concat, up_levels=k, identity="")
        == exclusive_reference(items)
    )


def test_non_commutativity_matters():
    """Sanity: the operand reversal is load-bearing — an unmodified
    down-sweep (A ⊙ B = A·B order) would give wrong results."""
    wrong_op = simple_op(lambda a, b: a + b)  # forgets the reversal
    items = list("abcd")
    got = blelloch_scan(items, wrong_op, identity="")
    assert got != exclusive_reference(items)


# ---------------------------------------------------------------------------
# numeric elements (mixed dense/sparse, batched)
# ---------------------------------------------------------------------------
def random_items(rng, n, batch=2):
    dims = rng.integers(2, 6, n + 1)
    items = [GradientVector(rng.standard_normal((batch, dims[0])))]
    for i in range(n):
        d_in, d_out = int(dims[i + 1]), int(dims[i])
        kind = rng.integers(0, 4)
        if kind == 0:
            items.append(DenseJacobian(rng.standard_normal((d_in, d_out))))
        elif kind == 1:
            items.append(DenseJacobian(rng.standard_normal((batch, d_in, d_out))))
        elif kind == 2:
            dense = (rng.random((d_in, d_out)) < 0.6) * rng.standard_normal(
                (d_in, d_out)
            )
            items.append(SparseJacobian(CSRMatrix.from_dense(dense)))
        else:
            pattern = CSRMatrix.from_dense(np.ones((d_in, d_out)))
            items.append(
                SparseJacobian(
                    pattern, rng.standard_normal((batch, pattern.nnz))
                )
            )
    return items


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12, 16, 33])
def test_blelloch_equals_linear_numeric(rng, n):
    items = random_items(rng, n)
    ref = linear_scan(items, ScanContext().op)
    out = blelloch_scan(items, ScanContext().op)
    for p in range(1, n + 1):
        np.testing.assert_allclose(out[p].data, ref[p].data, atol=1e-9)


@pytest.mark.parametrize("n,k", [(5, 1), (9, 2), (16, 3), (11, 0), (7, 10)])
def test_truncated_equals_linear_numeric(rng, n, k):
    items = random_items(rng, n)
    ref = linear_scan(items, ScanContext().op)
    out = truncated_blelloch_scan(items, ScanContext().op, up_levels=k)
    for p in range(1, n + 1):
        np.testing.assert_allclose(out[p].data, ref[p].data, atol=1e-9)


def test_hillis_steele_equals_linear_numeric(rng):
    items = random_items(rng, 9)
    ref = linear_scan(items, ScanContext().op)
    out = hillis_steele_scan(items, ScanContext().op)
    for p in range(1, 10):
        np.testing.assert_allclose(out[p].data, ref[p].data, atol=1e-9)


def test_outputs_are_gradient_vectors(rng):
    """Every scan output position ≥ 1 is the prefix seeded by ∇ — a vector."""
    items = random_items(rng, 6)
    out = blelloch_scan(items, ScanContext().op)
    assert out[0] is IDENTITY
    assert all(isinstance(o, GradientVector) for o in out[1:])


class _Unreadable:
    """A scan element no ⊙ may read."""


def _guarded(op):
    """``op`` that fails the test as soon as it reads an ``_Unreadable``."""

    def checked(a, b, info):
        if isinstance(a, _Unreadable) or isinstance(b, _Unreadable):
            raise AssertionError(f"{info} read the last element")
        return op(a, b, info)

    return checked


def _same_outputs(got, ref):
    return len(got) == len(ref) and all(
        g is r if r is IDENTITY else np.array_equal(g.data, r.data)
        for g, r in zip(got, ref)
    )


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(0, 7))
def test_exclusive_scans_never_read_the_last_element(n, k):
    """The up-sweep skips the right spine, so no exclusive scan reads
    ``a[n]``: putting there an element that makes ⊙ raise leaves every
    output (and a final stage's carry) bitwise-equal."""
    rng = np.random.default_rng(n)
    items = [GradientVector(rng.standard_normal((2, 3)))]
    items += [DenseJacobian(0.5 * rng.standard_normal((2, 3, 3))) for _ in range(n)]
    poisoned = items[:-1] + [_Unreadable()]

    def stage(xs, op):
        out, carry = stage_truncated_scan(xs, op, up_levels=k)
        return out + [carry]

    scans = {
        "linear": lambda xs, op: linear_scan(xs, op),
        "blelloch": lambda xs, op: blelloch_scan(xs, op),
        "truncated": lambda xs, op: truncated_blelloch_scan(xs, op, up_levels=k),
        "stage": stage,
    }
    for name, scan in scans.items():
        ref = scan(items, ScanContext().op)
        got = scan(poisoned, _guarded(ScanContext().op))
        assert _same_outputs(got, ref), name

    # A stage that composes its tail still folds the whole slice into
    # its carry (strings: concatenation is exact).
    words = [chr(ord("A") + i % 26) + str(i) for i in range(n + 1)]
    _, carry = stage_truncated_scan(
        words, concat, up_levels=k, prefix="", compose_tail=True
    )
    assert carry == "".join(reversed(words))


@pytest.mark.parametrize("scan", ["blelloch", "truncated", "stage"])
def test_sweeps_free_each_dead_operand_before_the_next_op(scan):
    """Each sweep ⊙ frees the product its result replaces (the
    up-sweep's old ``a[r]``) or consumes (the down-sweep's ``a[l]``)
    before the level's next ⊙ runs, instead of keeping a level's worth
    of dead products alive until the level ends."""
    rng = np.random.default_rng(0)
    items = [GradientVector(rng.standard_normal((2, 3)))]
    items += [DenseJacobian(0.5 * rng.standard_normal((2, 3, 3))) for _ in range(31)]
    ctx = ScanContext()
    inputs = {id(x) for x in items}
    level, dead, live, tracked = None, [], [], []

    def op(a, b, info):
        nonlocal level
        if (info.phase, info.level) != level:
            level, dead[:] = (info.phase, info.level), []
        live.append(sum(ref() is not None for ref in dead))
        # In both sweeps ``b`` is the operand that dies with this ⊙,
        # unless ⊙ returns it (``a`` is the identity) or it is an input.
        if info.phase in ("up", "down") and a is not IDENTITY and id(b) not in inputs:
            dead.append(weakref.ref(b.data))
            tracked.append(info)
        return ctx.op(a, b, info)

    if scan == "blelloch":
        ref = blelloch_scan(items, ctx.op)
        out = blelloch_scan(items, op)
    elif scan == "truncated":
        ref = truncated_blelloch_scan(items, ctx.op, up_levels=3)
        out = truncated_blelloch_scan(items, op, up_levels=3)
    else:
        ref, _ = stage_truncated_scan(items, ctx.op, 3, compose_tail=True)
        out, _ = stage_truncated_scan(items, op, 3, compose_tail=True)
    assert _same_outputs(out, ref)
    assert {i.phase for i in tracked} == {"up", "down"}
    assert max(live) == 0


# ---------------------------------------------------------------------------
# structure / counting
# ---------------------------------------------------------------------------
def count_ops(algorithm, n, **kw):
    counter = {"mm": 0, "mv": 0}
    identity = object()
    vec, mat = "vec", "mat"

    def op(a, b, info):
        if a is identity or b is identity:
            return a if b is identity else b
        counter["mv" if a == vec else "mm"] += 1
        return vec if (a == vec or b == vec) else mat

    algorithm([vec] + [mat] * n, op, identity=identity, **kw)
    return counter


def test_linear_scan_op_count():
    c = count_ops(linear_scan, 10)
    # 11 items, last never consumed (exclusive scan), first combine is
    # with the identity (free) → 9 recorded matrix–vector products
    assert c == {"mm": 0, "mv": 9}


@pytest.mark.parametrize("n", [3, 7, 8, 15, 16, 100])
def test_blelloch_work_is_linear(n):
    c = count_ops(blelloch_scan, n)
    total = c["mm"] + c["mv"]
    assert total <= 2 * (n + 1)  # Eq. 7: Θ(n) work
    assert c["mv"] == n - 1  # one mv per output past the free ∇x_n ℓ


@pytest.mark.parametrize("n", [7, 16, 63])
def test_hillis_steele_work_is_nlogn(n):
    c = count_ops(hillis_steele_scan, n)
    total = c["mm"] + c["mv"]
    assert total > 2 * n  # super-linear
    assert total <= (n + 1) * blelloch_num_levels(n + 1)


def test_truncated_zero_levels_is_serial(rng):
    """up_levels=0 must degenerate to a linear scan (only mv ops)."""
    c = count_ops(truncated_blelloch_scan, 12, up_levels=0)
    assert c["mm"] == 0


def test_truncated_is_one_clamped_stage():
    """The monolithic truncated scan runs exactly the ⊙ schedule of one
    stage over the whole array at the clamped depth."""

    def recording(log):
        def op(a, b, info):
            log.append(info)
            return b + a

        return op

    for n in (1, 2, 5, 8, 13):
        words = [chr(ord("A") + i) for i in range(n)]
        for k in (0, 1, 2, 9):
            clamped = max(0, min(k, blelloch_num_levels(n) - 1))
            mono, staged = [], []
            out = truncated_blelloch_scan(
                words, recording(mono), up_levels=k, identity=""
            )
            ref, _ = stage_truncated_scan(
                words, recording(staged), up_levels=clamped, prefix=""
            )
            assert out == ref and mono == staged, (n, k)
    with pytest.raises(ValueError):
        truncated_blelloch_scan([], concat, up_levels=2, identity="")


def test_truncated_full_levels_matches_blelloch():
    n = 15
    full = count_ops(blelloch_scan, n)
    trunc = count_ops(truncated_blelloch_scan, n, up_levels=10)
    assert full == trunc


def test_blelloch_num_levels():
    assert blelloch_num_levels(1) == 1
    assert blelloch_num_levels(8) == 3
    assert blelloch_num_levels(9) == 4
    with pytest.raises(ValueError):
        blelloch_num_levels(0)


def test_single_element_array():
    out = blelloch_scan(["x"], concat, identity="")
    assert out == [""]


def test_level_structure_recorded(rng):
    """Trace levels follow up-ascending then down-descending order."""
    items = random_items(rng, 8)
    ctx = ScanContext()
    blelloch_scan(items, ctx.op)
    phases = [(r.info.phase, r.info.level) for r in ctx.trace]
    up = [lv for ph, lv in phases if ph == "up"]
    down = [lv for ph, lv in phases if ph == "down"]
    assert up == sorted(up)
    assert down == sorted(down, reverse=True)
