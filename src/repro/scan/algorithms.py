"""Scan algorithms: linear (serial BP), Blelloch (Algorithm 1),
Hillis–Steele, and the truncated/balanced Blelloch of Section 5.2.

All algorithms are generic over the operator: they take
``op(a, b, info) -> element`` where ``info`` is an
:class:`~repro.scan.elements.OpInfo` describing phase/level/positions.
The same algorithms therefore run (a) numerically via
:class:`~repro.scan.elements.ScanContext` and (b) symbolically via the
PRAM cost model — one schedule feeds both planes.

*Where* each level's independent ⊙ ops run is delegated to a
:class:`~repro.backend.ScanExecutor`: every parallel scan accepts an
``executor=`` argument (a backend spec string like ``"thread:8"``, an
executor instance, or ``None`` for the serial executor — see
:mod:`repro.backend`).  The three sweeps share one level-dispatch
core, and every backend preserves per-op association order, so results
are bitwise-identical across executors.

Indexing follows the paper exactly: the input array ``a`` has ``n+1``
entries ``a[0..n]`` (gradient vector followed by ``n`` transposed
Jacobians) and the exclusive scan output is
``[I, ∇x_n ℓ, ∇x_{n−1} ℓ, ..., ∇x_1 ℓ]``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.backend.executor import LevelTask, ScanExecutor
from repro.backend.registry import get_executor
from repro.scan.elements import IDENTITY, OpInfo

OpFn = Callable[[Any, Any, OpInfo], Any]

ExecutorLike = Union[str, ScanExecutor, None]


@contextmanager
def _resolved_executor(spec: ExecutorLike) -> Iterator[ScanExecutor]:
    """Resolve ``executor=`` for the duration of one scan.

    A spec *string* creates a fresh executor that this scan owns, so it
    is closed on exit — otherwise every ``blelloch_scan(...,
    executor="thread:8")`` in a training loop would leak a pool.  For
    pool reuse across scans, pass an executor instance (or construct
    the engine with the spec); instances are caller-owned and left
    open, and ``None`` is the shared serial executor.
    """
    ex = get_executor(spec)
    try:
        yield ex
    finally:
        if isinstance(spec, str):
            ex.close()


def simple_op(fn: Callable[[Any, Any], Any]) -> OpFn:
    """Adapt a plain two-argument ⊙ implementation to the scan API."""

    def wrapped(a: Any, b: Any, info: OpInfo) -> Any:
        return fn(a, b)

    return wrapped


def blelloch_num_levels(length: int) -> int:
    """``⌈log2(length)⌉`` — the number of up-sweep levels for an
    ``length``-element array (paper's ``⌈log(n+1)⌉``)."""
    if length <= 0:
        raise ValueError("scan requires a non-empty array")
    return max(1, math.ceil(math.log2(length)))


# ---------------------------------------------------------------------------
# the shared level-dispatch core
# ---------------------------------------------------------------------------
def _level_pairs(n: int, d: int) -> List[Tuple[int, int]]:
    """The (l, r) slot pairs touched at sweep level ``d`` (Algorithm 1's
    index arithmetic, with the paper's clamp ``r = min(·, n)``)."""
    step = 1 << (d + 1)
    return [
        (i + (1 << d) - 1, min(i + step - 1, n))
        for i in range(0, n - (1 << d) + 1, step)
    ]


def _up_sweep(
    a: List[Any],
    op: OpFn,
    n: int,
    d_values: Iterable[int],
    ex: ScanExecutor,
    spine: bool = False,
) -> None:
    """Up-sweep levels: ``a[r] ← a[l] ⊙ a[r]`` (Algorithm 1 lines 1–5).

    Pairs with ``r = n`` (the tree's right spine) only build the
    summary of the whole array, which an exclusive scan discards, so
    they run only with ``spine=True`` (a pipeline stage whose carry
    composes that summary).  No other pair reads ``a[n]``: ``l < n``
    always, so skipping them changes no other operand.

    Each task takes the only reference to the ``a[r]`` it replaces, so
    the executor can free that operand as soon as its ⊙ has run.
    """
    for d in d_values:
        rs, tasks = [], []
        for l, r in _level_pairs(n, d):
            if spine or r < n:
                rs.append(r)
                tasks.append(LevelTask(op, a[l], a[r], OpInfo("up", d, l, r)))
                a[r] = None
        for r, res in zip(rs, ex.run_level(tasks)):
            a[r] = res


def _down_sweep(
    a: List[Any], op: OpFn, n: int, d_values: Iterable[int], ex: ScanExecutor
) -> None:
    """Down-sweep levels (Algorithm 1 lines 8–13, operand order reversed
    for the non-commutative ⊙):
    ``T ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊙ T``.

    The first two assignments happen as each task is built: the pairs
    of one level are disjoint, so this is exactly the sequential
    in-place semantics, and the task holds the only reference to the
    consumed ``T``.
    """
    for d in d_values:
        pairs = _level_pairs(n, d)
        tasks = []
        for l, r in pairs:
            tasks.append(LevelTask(op, a[r], a[l], OpInfo("down", d, l, r)))
            a[l] = a[r]
        for (_, r), res in zip(pairs, ex.run_level(tasks)):
            a[r] = res


# ---------------------------------------------------------------------------
# the scans
# ---------------------------------------------------------------------------
def linear_scan(
    items: Sequence[Any],
    op: OpFn,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Serial exclusive scan — the baseline equivalent to sequential BP.

    ``out[k] = a[0] ⊙ a[1] ⊙ ... ⊙ a[k−1]`` with ``out[0] = I``; every
    step is a matrix–vector product when ``a[0]`` is the gradient
    vector, exactly like Eq. 3 executed layer by layer.

    ``executor`` is accepted for API uniformity but unused: each step
    depends on the previous one, so there is nothing to dispatch.
    """
    out: List[Any] = [identity]
    acc = identity
    for k, item in enumerate(items[:-1]):
        acc = op(acc, item, OpInfo("linear", 0, k, k + 1))
        out.append(acc)
    return out


def blelloch_scan(
    items: Sequence[Any],
    op: OpFn,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """The paper's modified Blelloch scan (Algorithm 1).

    Up-sweep: ``a[r] ← a[l] ⊙ a[r]``.  Down-sweep (operands reversed for
    the non-commutative ⊙ — the paper's modification, line 13):
    ``T ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊙ T``.

    The up-sweep skips the right spine — every pair whose right slot
    is the last element ``a[n]``: the scan overwrites ``a[n]`` with the
    identity before the down-sweep, so those ⊙ would only build the
    discarded total (the same reason Algorithm 1 stops one level below
    the root).  The last input element is therefore never read and may
    be anything, :data:`IDENTITY` included.

    Operations at the same (phase, level) are mutually independent and
    are dispatched level-by-level to ``executor``; every backend
    preserves the exact per-op multiplication order and hence bitwise
    behaviour.
    """
    a = list(items)
    n = len(a) - 1
    if n == 0:
        return [identity]
    levels = blelloch_num_levels(n + 1)

    with _resolved_executor(executor) as ex:
        _up_sweep(a, op, n, range(levels - 1), ex)  # d = 0 .. ⌈log(n+1)⌉−2
        a[n] = identity
        _down_sweep(a, op, n, range(levels - 1, -1, -1), ex)
    return a


def hillis_steele_scan(
    items: Sequence[Any],
    op: OpFn,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Hillis & Steele (1986) scan, shifted to exclusive form.

    Step-optimal (⌈log n⌉ steps even with clamping) but work-inefficient
    (Θ(n log n)); included as the classic alternative the paper cites.
    Correct for non-commutative operators because each update combines a
    left segment with the adjacent right segment in order.  Each level
    reads the previous level's snapshot, so its ops are independent and
    dispatch to ``executor`` like the Blelloch sweeps.
    """
    n = len(items)
    a = list(items)
    d = 1
    level = 0
    with _resolved_executor(executor) as ex:
        while d < n:
            prev = a
            a = list(prev)
            idxs = range(d, n)
            tasks = [
                LevelTask(op, prev[i - d], prev[i], OpInfo("hs", level, i - d, i))
                for i in idxs
            ]
            for i, res in zip(idxs, ex.run_level(tasks)):
                a[i] = res
            d <<= 1
            level += 1
    # inclusive → exclusive: shift right, drop the total.
    return [identity] + a[:-1]


def truncated_blelloch_scan(
    items: Sequence[Any],
    op: OpFn,
    up_levels: int,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Section 5.2's balanced variant.

    Runs the up-sweep only for levels ``0 .. up_levels−1``, computes the
    block-exclusive prefixes *serially* (cheap matrix–vector chain,
    because block 0's summary is gradient-seeded), places them at the
    block roots, then runs the down-sweep for levels
    ``up_levels−1 .. 0``.  Equivalent output to :func:`blelloch_scan`;
    avoids the densest high-level matrix–matrix products.  The parallel
    partial sweeps dispatch to ``executor``; the middle stays serial.
    As in :func:`blelloch_scan` the up-sweep skips the right spine: the
    last block's summary never enters the prefix chain, so the last
    input element is never read.

    ``up_levels=0`` degenerates to a pure linear scan;
    ``up_levels ≥ ⌈log2(n+1)⌉−1`` degenerates to the full Blelloch scan.
    It is the one-stage case of :func:`stage_truncated_scan`: the
    whole array as one slice, seeded with ``identity``.
    """
    levels = blelloch_num_levels(len(items))
    k = max(0, min(up_levels, levels - 1))
    outputs, _ = stage_truncated_scan(
        items, op, k, prefix=identity, executor=executor
    )
    return outputs


def stage_truncated_scan(
    items: Sequence[Any],
    op: OpFn,
    up_levels: int,
    prefix: Any = IDENTITY,
    executor: ExecutorLike = None,
    compose_tail: bool = False,
) -> Tuple[List[Any], Any]:
    """One pipeline stage's slice of a truncated Blelloch scan.

    Runs the truncated-scan structure on a *slice* of the global scan
    array, seeding the serial middle with ``prefix`` — the exclusive
    prefix of everything to the slice's left (for stage 0 this is the
    identity; for later stages it is the boundary gradient handed over
    by the previous stage).  Returns ``(outputs, carry)`` where
    ``carry`` is the exclusive prefix of everything up to and including
    this slice (the next stage's ``prefix``) when ``compose_tail=True``,
    and the prefix *excluding* the final block otherwise (the final
    stage has no successor, so composing its tail summary would be
    wasted work).  ``compose_tail`` also decides the tail's up-sweep:
    without it the up-sweep skips the slice's right spine, as
    :func:`truncated_blelloch_scan` does, so the slice's last element
    is never read.

    **Bitwise contract.**  Because sweep levels ``d < up_levels`` never
    cross ``2^up_levels``-aligned slot boundaries and the serial middle
    is a left-associative prefix chain, splitting a global array at
    block-aligned boundaries and running each slice through this
    function — threading ``carry`` → ``prefix`` in slice order —
    reproduces :func:`truncated_blelloch_scan` on the whole array
    *bitwise*, operation for operation.  :mod:`repro.pipeline.staged`
    relies on this to make the staged backward exactly equal to the
    monolithic one.  Callers must pass the *globally* clamped
    ``up_levels`` (clamping locally per slice would change the block
    size and break the alignment invariant — levels too deep for a
    short tail slice simply schedule no ops).
    """
    a = list(items)
    n = len(a) - 1
    if n < 0:
        raise ValueError("scan stage requires a non-empty array")
    k = up_levels
    if k < 0:
        raise ValueError("up_levels must be >= 0")
    if n == 0:
        # Degenerate one-slot slice: the output is the incoming prefix
        # and the slot's own value folds into the carry.
        carry = prefix
        if compose_tail:
            carry = op(prefix, a[0], OpInfo("serial-mid", k, 0, 0))
        return [prefix], carry

    with _resolved_executor(executor) as ex:
        _up_sweep(a, op, n, range(k), ex, spine=compose_tail)

        block = 1 << k
        roots = [min(start + block - 1, n) for start in range(0, n + 1, block)]
        pfx = prefix
        for m, root in enumerate(roots):
            summary = a[root]
            a[root] = pfx
            if m < len(roots) - 1 or compose_tail:
                nxt = roots[m + 1] if m < len(roots) - 1 else root
                pfx = op(pfx, summary, OpInfo("serial-mid", k, root, nxt))

        _down_sweep(a, op, n, range(k - 1, -1, -1), ex)
    return a, pfx


#: Every scan algorithm by name — the one table an algorithm name is
#: looked up in (``repro.config.ALGORITHMS`` is its keys).  Only
#: ``"truncated"`` takes ``up_levels``.
SCANS: Dict[str, Callable[..., List[Any]]] = {
    "blelloch": blelloch_scan,
    "linear": linear_scan,
    "hillis_steele": hillis_steele_scan,
    "truncated": truncated_blelloch_scan,
}
