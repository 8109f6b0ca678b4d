"""Span recorder and the wrappers that trace the repro layers from outside.

The benchmark traces the library without editing it: :class:`Tracer`
keeps spans (name, start, end, parent, thread, tag) in memory, and
:func:`instrument` replaces the public functions each layer exposes at
the import sites the engines call through (``repro.core.rnn.blelloch_scan``,
``repro.core.feedforward.layer_tjac_batched``, ``ScanContext.op``, ...)
with wrappers that open one span per call.  :meth:`Patches.remove`
restores every original and checks it is back, so no wrapper survives
into an untraced measurement.

Span names are the per-layer metric families: a layer's self time is
its span's duration minus the part its child spans cover, so the self
times of one root span's tree sum to the root's duration.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

# Span record fields (a list per span: cheap to build, mutable for tags).
NAME, START, END, PARENT, THREAD, TAG = range(6)


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: id(job seed) -> duration (s) of the scan that carried the job,
        #: filled by the ``ScanEngine.run_scan`` wrapper for serve jobs.
        self.group_scan_s: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: Any = None) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, 0.0, None, parent, threading.get_ident(), tag]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter()
        return index

    def end(self, index: int) -> float:
        """Close span ``index``; returns its duration in seconds."""
        now = time.perf_counter()
        record = self.spans[index]
        record[END] = now
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {record[NAME]!r} closed out of order")
        stack.pop()
        return now - record[START]

    def open_spans(self) -> int:
        """Spans begun but never ended."""
        return sum(1 for s in self.spans if s[END] is None)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span named ``name`` around every call."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as gzipped JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": i,
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "thread": s[THREAD],
                "tag": s[TAG],
            }
            for i, s in enumerate(self.spans)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": rows}, fh)


def load_spans(path: Path) -> List[dict]:
    """Read a span dump written by :meth:`Tracer.dump`."""
    with gzip.open(path, "rt") as fh:
        return json.load(fh)["spans"]


def check_well_formed(spans: List[dict]) -> None:
    """Raise ``ValueError`` unless every span is closed and nested in its parent."""
    for s in spans:
        if s["end"] is None:
            raise ValueError(f"span {s['id']} ({s['name']}) was never closed")
        if s["end"] < s["start"]:
            raise ValueError(f"span {s['id']} ends before it starts")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if p["thread"] != s["thread"]:
                raise ValueError(f"span {s['id']} has a parent on another thread")
            if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                raise ValueError(f"span {s['id']} escapes its parent {p['id']}")


# ---------------------------------------------------------------------------
# installing and removing wrappers
# ---------------------------------------------------------------------------
class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self) -> None:
        #: ``(owner, attr, original)`` of every replacement still in place.
        self.installed: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> Any:
        """Set ``owner.attr = value``; returns the original."""
        original = current_value(owner, attr)
        self.installed.append((owner, attr, original))
        setattr(owner, attr, value)
        return original

    def remove(self) -> None:
        """Restore every original, newest first, and check each is back."""
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)
            if current_value(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


def current_value(owner: Any, attr: str) -> Any:
    """``owner.attr`` as stored: a class's own function, not a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


#: The ⊙ kinds the per-layer metrics split by.
OP_KINDS = ("mv", "mm_dense", "spgemm", "mixed")

#: Scan algorithm entry points, wrapped where the engines import them.
_SCAN_FUNCS = ("blelloch_scan", "truncated_blelloch_scan", "linear_scan")


def instrument(tracer: Tracer) -> Patches:
    """Install every layer wrapper; returns the patches to remove later."""
    # import_module, not ``import a.b as m``: packages re-export functions
    # under their submodules' names (repro.sparse.spgemm is one).
    ff = import_module("repro.core.feedforward")
    pg = import_module("repro.core.param_grads")
    core_rnn = import_module("repro.core.rnn")
    serve_pool = import_module("repro.serve.pool")
    serve_server = import_module("repro.serve.server")
    spgemm = import_module("repro.sparse.spgemm")
    from repro.backend.executor import SerialExecutor
    from repro.nn.rnn import RNN
    from repro.optim import SGD, Adam
    from repro.pruning.magnitude import MaskSet
    from repro.scan.elements import (
        DenseJacobian,
        GradientVector,
        Identity,
        ScanContext,
        SparseJacobian,
    )
    from repro.tensor.tensor import Tensor

    patches = Patches()

    def wrap_attr(owner: Any, attr: str, name: str) -> None:
        patches.replace(owner, attr, tracer.wrap(current_value(owner, attr), name))

    for engine in (ff.FeedforwardBPPSA, core_rnn.RNNBPPSA):
        wrap_attr(engine, "compute_gradients", "core.compute_gradients")
        wrap_attr(engine, "forward", "nn.forward")
    wrap_attr(ff.FeedforwardBPPSA, "scan_items", "core.assemble")
    wrap_attr(core_rnn.RNNBPPSA, "scan_hidden_grads", "core.assemble")
    wrap_attr(ff, "layer_tjac_batched", "jacobian.tjac")
    wrap_attr(RNN, "hidden_jacobians_T", "jacobian.tjac")
    wrap_attr(RNN, "parameter_gradients_from_hidden_grads", "core.param_grads")
    for fn in ("linear_param_grads", "conv2d_param_grads", "attention_param_grads"):
        wrap_attr(pg, fn, "core.param_grads")
    for module in (ff, core_rnn, serve_pool):
        for fn in _SCAN_FUNCS:
            wrap_attr(module, fn, "scan.scan")
    wrap_attr(spgemm, "build_spgemm_plan", "sparse.plan_build")
    wrap_attr(Adam, "step", "optim.step")
    wrap_attr(SGD, "step", "optim.step")
    wrap_attr(MaskSet, "reapply", "pruning.reapply")
    wrap_attr(Tensor, "backward", "tensor.backward")
    wrap_attr(serve_server, "split_scanned", "serve.merge")

    # A serve job is identified by its seed element, which the server
    # passes through untouched; a merged scan's seed maps back to the
    # seeds of the jobs it carries.
    merge_jobs = current_value(serve_server, "merge_jobs")
    merged_from: Dict[int, List[int]] = {}

    def traced_merge_jobs(item_lists):
        index = tracer.begin("serve.merge")
        try:
            merged = merge_jobs(item_lists)
        finally:
            tracer.end(index)
        merged_from[id(merged[0])] = [id(items[0]) for items in item_lists]
        return merged

    run_scan = current_value(serve_pool.ScanEngine, "run_scan")

    def traced_run_scan(self, items, jobs=1):
        index = tracer.begin("serve.run_scan")
        try:
            return run_scan(self, items, jobs)
        finally:
            duration = tracer.end(index)
            seed = id(items[0])
            for job in merged_from.pop(seed, [seed]):
                tracer.group_scan_s[job] = duration

    patches.replace(serve_server, "merge_jobs", traced_merge_jobs)
    patches.replace(serve_pool.ScanEngine, "run_scan", traced_run_scan)

    run_level = current_value(SerialExecutor, "run_level")

    def traced_run_level(self, tasks):
        index = tracer.begin("backend.level", tasks[0].info.phase if tasks else None)
        try:
            return run_level(self, tasks)
        finally:
            tracer.end(index)

    patches.replace(SerialExecutor, "run_level", traced_run_level)

    op = current_value(ScanContext, "op")

    def traced_op(self, a, b, info=None):
        if isinstance(a, Identity) or isinstance(b, Identity):
            return op(self, a, b, info)  # no arithmetic: not an ⊙ worth a span
        if isinstance(a, GradientVector):
            kind = "mv"
        elif isinstance(a, SparseJacobian) and isinstance(b, SparseJacobian):
            kind = "spgemm"
        elif isinstance(a, DenseJacobian) and isinstance(b, DenseJacobian):
            kind = "mm_dense"
        else:
            kind = "mixed"
        index = tracer.begin("scan.op", kind)
        try:
            result = op(self, a, b, info)
        finally:
            tracer.end(index)
        if kind == "spgemm" and isinstance(result, DenseJacobian):
            tracer.spans[index][TAG] = "spgemm+densified"
        return result

    patches.replace(ScanContext, "op", traced_op)
    return patches


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def roots_named(spans: List[list], names: Iterable[str]) -> Dict[int, int]:
    """Map every span index to the index of its root, for roots in ``names``.

    Spans whose root is not one of ``names`` are left out.
    """
    wanted = set(names)
    root: Dict[int, int] = {}
    for i, s in enumerate(spans):  # parents always precede children
        r = root.get(s[PARENT], -1) if s[PARENT] >= 0 else i
        if s[PARENT] < 0 and s[NAME] not in wanted:
            r = -1
        if r >= 0:
            root[i] = r
    return root


def layer_totals(
    spans: List[list], root_names: Iterable[str], start: int = 0
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int], float]:
    """Per-family times (s) and calls of spans ``start..`` under the named roots.

    Returns ``(self_s, incl_s, calls, root_s)``: self and inclusive
    seconds and call counts per span family, and the total duration of
    the root spans.  ``scan.op`` families are keyed by kind
    (``scan.op.spgemm``); the inclusive times also carry the scan phase
    split ``scan.phase.<up|down|mid>`` — level time by sweep, and ⊙
    the algorithm runs outside any level (the truncated serial middle
    or a linear chain).
    """
    own = self_times(spans)
    root = roots_named(spans, root_names)
    self_s: Dict[str, float] = defaultdict(float)
    incl_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    root_s = 0.0
    for i, r in root.items():
        if i < start:
            continue
        s = spans[i]
        name = s[NAME]
        duration = s[END] - s[START]
        if i == r:
            root_s += duration
        if name == "scan.op":
            kind = s[TAG]
            if kind == "spgemm+densified":
                kind = "spgemm"
                calls["scan.densified"] += 1
            name = f"scan.op.{kind}"
            if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "backend.level":
                incl_s["scan.phase.mid"] += duration
        elif name == "backend.level":
            incl_s[f"scan.phase.{s[TAG]}"] += duration
        self_s[name] += own[i]
        incl_s[name] += duration
        calls[name] += 1
    return dict(self_s), dict(incl_s), dict(calls), root_s
