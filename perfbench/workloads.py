"""The benchmark's three workloads, driven through repro's public API only.

* ``rnn_bitstream`` — the paper's headline task (Section 5.1): a vanilla
  RNN classifier trained with Adam on T=1000 bitstreams by the Blelloch
  ``RNNBPPSA`` engine.  About 2,000 tiny dense ⊙ per step, so per-op
  overhead in the scan, backend and Python loops dominates; SpGEMM never
  runs.
* ``pruned_lenet`` — the Section 4.2/5.2 retraining use case: LeNet-5
  pruned 90% by global magnitude, retrained with momentum SGD and the
  mask re-applied after every step, by the truncated Blelloch engine
  with CSR Linear Jacobians.  About 17 ⊙ per step, a few large SpGEMMs
  doing nearly all the work: the opposite of ``rnn_bitstream``.
* ``serve_mixed`` — gradients as a service in a closed loop: 16 client
  coroutines, each awaiting its reply before submitting its next job to
  an ``EngineServer``, over the load generator's job mix (dense Blelloch
  chains that merge along the batch axis, ``linear`` chains, and
  diagonal-CSR chains on the shared plan cache).

Every workload builds all its inputs from the seed before timing, runs
on the ``serial`` scan executor, checks its own outputs, and returns a
:class:`Run` holding raw samples; ``run.py`` turns those into metrics.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core import Trainer
from repro.data import BitstreamDataset, SyntheticImages
from repro.nn import CrossEntropyLoss, LeNet5, RNNClassifier
from repro.optim import SGD, Adam
from repro.pruning import magnitude_prune
from repro.tensor import Tensor

from tracing import OP_KINDS, Patches, Tracer, instrument, layer_totals

#: Gradient check tolerance, BPPSA vs taped BP (float64; the scan only
#: reassociates products, paper Section 3.5).
GRAD_RTOL, GRAD_ATOL = 1e-6, 1e-9

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Timed training steps a run takes even when ``seconds`` is shorter.
MIN_STEPS = 3

#: BPPSA step time (s) between two blocks of taped-BP steps.
BP_BLOCK_S = 2.0

#: Short steps (taped-BP steps, solo serve scans) are timed in groups of
#: at least this long (s), and a sample is a group's mean step time, so
#: the fastest sample is a tenth of a second at full speed, not one
#: lucky 0.5 ms scan.
GROUP_S = 0.1


@dataclass
class Run:
    """Raw measurements of one workload run (times in seconds)."""

    setup_s: List[float] = field(default_factory=list)
    step_s: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    bp_step_s: List[float] = field(default_factory=list)
    samples: int = 0
    wall_s: float = 0.0  # time base of ``samples`` (throughput)
    jobs: int = 0
    job_wall_s: float = 0.0  # time base of ``jobs`` (throughput)
    attempted: int = 0
    failed: int = 0
    losses: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    # traced runs only
    layers: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSpec:
    """How one training workload builds its model, data and engine."""

    name: str
    batch: int
    make_batches: Callable[[int], List[Tuple[np.ndarray, np.ndarray]]]
    make_model: Callable[[int], Tuple[Any, Any]]  # seed -> (model, masks)
    make_optimizer: Callable[[Any], Any]
    engine_config: str
    engine_overrides: Dict[str, Any]


def _rnn_spec(size: str) -> TrainSpec:
    seq_len, batch, hidden = (1000, 16, 20) if size == "full" else (64, 4, 8)
    num_batches = 16

    def batches(seed: int):
        ds = BitstreamDataset(seq_len, num_samples=batch * num_batches, seed=seed)
        return list(ds.batches(batch, num_batches=num_batches, epoch_seed=seed))

    def model(seed: int):
        return RNNClassifier(1, hidden, 10, rng=np.random.default_rng(seed)), None

    return TrainSpec(
        name="rnn_bitstream",
        batch=batch,
        make_batches=batches,
        make_model=model,
        make_optimizer=lambda m: Adam(m.parameters(), lr=3e-5),
        engine_config="blelloch/serial",
        engine_overrides={},
    )


def _lenet_spec(size: str) -> TrainSpec:
    batch = 4 if size == "full" else 2
    num_batches = 8

    def batches(seed: int):
        ds = SyntheticImages(num_samples=batch * num_batches, seed=seed)
        return list(ds.batches(batch, num_batches=num_batches, epoch_seed=seed))

    def model(seed: int):
        m = LeNet5(rng=np.random.default_rng(seed), width_multiplier=0.25)
        return m, magnitude_prune(m, 0.9, scope="global")

    return TrainSpec(
        name="pruned_lenet",
        batch=batch,
        make_batches=batches,
        make_model=model,
        make_optimizer=lambda m: SGD(m.parameters(), lr=1e-3, momentum=0.9),
        engine_config="truncated/serial",
        engine_overrides={"up_levels": 2, "sparse_linear_tol": 0.0},
    )


class _Trainee:
    """A model with its optimizer, mask set and (optional) BPPSA engine."""

    def __init__(self, spec: TrainSpec, seed: int, bppsa: bool) -> None:
        self.model, self.masks = spec.make_model(seed)
        engine = None
        if bppsa:
            engine = repro.build_engine(
                self.model, spec.engine_config, **spec.engine_overrides
            )
        self.engine = engine
        self.trainer = Trainer(self.model, spec.make_optimizer(self.model), engine)
        self.params = self.model.parameters()

    def step(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        """One training step (forward, gradients, optimizer, mask)."""
        loss, grad_s = self.trainer.train_step(x, y)
        if self.masks is not None:
            self.masks.reapply(self.model)
        return loss, grad_s


def _taped_grads(model: Any, params: List[np.ndarray], x, y) -> List[np.ndarray]:
    """Taped-BP gradients of ``model`` evaluated at parameter values ``params``."""
    for p, value in zip(model.parameters(), params):
        p.data = value.copy()
    loss = CrossEntropyLoss()(model(Tensor(np.asarray(x, dtype=np.float64))), y)
    model.zero_grad()
    loss.backward()
    return [p.grad for p in model.parameters()]


def _setup_training(spec: TrainSpec, seed: int, batches, run: Run) -> _Trainee:
    """Construct model, engine and trainer, then take the cold first step."""
    t0 = time.perf_counter()
    trainee = _Trainee(spec, seed, bppsa=True)
    trainee.step(*batches[0])
    run.setup_s.append(time.perf_counter() - t0)
    return trainee


def run_training(
    spec: TrainSpec,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    setup_reps: int = SETUP_REPS,
) -> Run:
    """Set up, then alternate blocks of BPPSA and taped-BP steps for ``seconds``.

    The last set-up's model is the one measured.  With a ``tracer``
    that set-up and every measured step run under the layer wrappers,
    and the run's ``layers`` are filled.
    """
    run = Run()
    batches = spec.make_batches(seed)
    for _ in range(setup_reps - 1):
        _setup_training(spec, seed, batches, run)
    patches: Optional[Patches] = None
    if tracer is not None:
        patches = instrument(tracer)
        cold_spans = len(tracer.spans)
    checks: List[Tuple[Any, ...]] = []
    try:
        trainee = _setup_training(spec, seed, batches, run)
        baseline = _Trainee(spec, seed, bppsa=False)
        baseline.step(*batches[0])
        if tracer is not None:
            cold = _cold_plan_counts(tracer, cold_spans)
            cache, arena = trainee.engine.context.cache, trainee.engine.context.arena
            counters0 = (cache.hits, cache.misses, arena.allocations)
            patches.replace(
                baseline.trainer,
                "forward_fn",
                tracer.wrap(baseline.trainer.forward_fn, "tensor.forward"),
            )
        flops = 0
        bp_steps = 0

        def bp_step() -> Optional[float]:
            """One taped-BP step; its time, or None when it failed."""
            nonlocal bp_steps
            bx, by = batches[bp_steps % len(batches)]
            bp_steps += 1
            run.attempted += 1
            try:
                span = tracer.begin("train.bp_step") if tracer else None
                t0 = time.perf_counter()
                baseline.step(bx, by)
                t1 = time.perf_counter()
                if tracer:
                    tracer.end(span)
            except Exception as exc:  # counted, not fatal
                run.failed += 1
                run.notes.append(f"bp step: {type(exc).__name__}: {exc}")
                return None
            return t1 - t0

        def bp_block(budget: float) -> None:
            """Groups of taped-BP steps, each of at least ``GROUP_S``, until
            they used ``budget`` seconds, at least one group; a group's
            mean step time is one sample."""
            spent = 0.0
            while spent == 0.0 or spent < budget:
                group, n = 0.0, 0
                while group < GROUP_S:
                    t = bp_step()
                    if t is None:
                        return
                    group, n = group + t, n + 1
                run.bp_step_s.append(group / n)
                spent += group

        deadline = time.perf_counter() + seconds
        i = 0
        pending = 0.0  # BPPSA step time not yet matched by taped-BP steps
        while i < MIN_STEPS or time.perf_counter() < deadline:
            x, y = batches[(i + 1) % len(batches)]
            before = [p.data.copy() for p in trainee.params]
            run.attempted += 1
            try:
                span = tracer.begin("train.step") if tracer else None
                t0 = time.perf_counter()
                loss, grad_s = trainee.step(x, y)
                t1 = time.perf_counter()
                if tracer:
                    tracer.end(span)
                    flops += trainee.engine.context.total_flops
                run.step_s.append(t1 - t0)
                run.job_s.append(grad_s)
                run.losses.append(loss)
                # Gradients of the first and the latest step, kept for
                # the check against taped BP after the timed loop.
                checks[min(len(checks), 1):] = [
                    (before, [p.grad for p in trainee.params], x, y)
                ]
                pending += t1 - t0
            except Exception as exc:  # a failed step is counted, not fatal
                run.failed += 1
                run.notes.append(f"step {i}: {type(exc).__name__}: {exc}")
            i += 1
            # Blocks of BPPSA steps, each followed by taped-BP steps for a
            # third of its time: a 7 ms LeNet BP step right after a 300 ms
            # BPPSA step runs cold, so alternating step by step timed
            # mostly cold BP steps.
            if pending >= BP_BLOCK_S:
                bp_block(pending / 3)
                pending = 0.0
        if pending:
            bp_block(pending / 3)
        run.samples = spec.batch * len(run.step_s)
        run.wall_s = sum(run.step_s)
        run.jobs = len(run.job_s)
        run.job_wall_s = sum(run.job_s)
        if tracer is not None:
            n = max(len(run.step_s), 1)
            run.layers = _training_layers(tracer, n, max(bp_steps, 1))
            run.layers.update(cold)
            run.layers["scan.flops"] = flops / n
            run.layers["sparse.plan_hits"] = (cache.hits - counters0[0]) / n
            run.layers["sparse.plan_misses"] = (cache.misses - counters0[1]) / n
            run.layers["sparse.arena_allocations"] = (
                arena.allocations - counters0[2]
            ) / n
    finally:
        if patches is not None:
            patches.remove()
    checker, _ = spec.make_model(seed)
    for label, (before, grads, x, y) in zip(("first", "last"), checks):
        run.attempted += 1
        expected = _taped_grads(checker, before, x, y)
        bad = [
            k
            for k, (g, e) in enumerate(zip(grads, expected))
            if not np.allclose(g, e, rtol=GRAD_RTOL, atol=GRAD_ATOL)
        ]
        if bad:
            run.failed += 1
            run.notes.append(f"{label} timed step: BPPSA != taped BP for params {bad}")
    if not np.all(np.isfinite(run.losses)):
        run.failed += 1
        run.notes.append("non-finite loss")
    return run


def _cold_plan_counts(tracer: Tracer, first_span: int) -> Dict[str, float]:
    """Plan builds during the traced set-up (spans from ``first_span`` on)."""
    builds = [s for s in tracer.spans[first_span:] if s[0] == "sparse.plan_build"]
    return {
        "sparse.cold_plan_misses": float(len(builds)),
        "sparse.cold_plan_build_ms": 1e3 * sum(s[2] - s[1] for s in builds),
    }


def _training_layers(tracer: Tracer, steps: int, bp_steps: int) -> Dict[str, float]:
    self_s, incl_s, calls, root_s = layer_totals(tracer.spans, ["train.step"])
    bp_self, _, _, _ = layer_totals(tracer.spans, ["train.bp_step"])
    out = _scan_layers(self_s, incl_s, calls, steps)
    out.update(
        {
            "nn.forward_ms": 1e3 * self_s.get("nn.forward", 0.0) / steps,
            "jacobian.tjac_ms": 1e3 * self_s.get("jacobian.tjac", 0.0) / steps,
            "jacobian.calls": calls.get("jacobian.tjac", 0) / steps,
            "core.assemble_ms": 1e3 * self_s.get("core.assemble", 0.0) / steps,
            "core.param_grads_ms": 1e3 * self_s.get("core.param_grads", 0.0) / steps,
            "core.unattributed_ms": 1e3
            * self_s.get("core.compute_gradients", 0.0)
            / steps,
            "optim.step_ms": 1e3 * self_s.get("optim.step", 0.0) / steps,
            "pruning.reapply_ms": 1e3 * self_s.get("pruning.reapply", 0.0) / steps,
            "tensor.forward_ms": 1e3 * bp_self.get("tensor.forward", 0.0) / bp_steps,
            "tensor.backward_ms": 1e3 * bp_self.get("tensor.backward", 0.0) / bp_steps,
        }
    )
    out.update(_coverage(self_s, root_s, "train.step"))
    return out


def _scan_layers(self_s, incl_s, calls, ops: int) -> Dict[str, float]:
    """Scan, ⊙-kind and backend metrics, per operation (step or job)."""
    out = {
        "scan.scan_ms": 1e3 * incl_s.get("scan.scan", 0.0) / ops,
        "scan.up_ms": 1e3 * incl_s.get("scan.phase.up", 0.0) / ops,
        "scan.down_ms": 1e3 * incl_s.get("scan.phase.down", 0.0) / ops,
        "scan.mid_ms": 1e3 * incl_s.get("scan.phase.mid", 0.0) / ops,
        "scan.densified": calls.get("scan.densified", 0) / ops,
        "backend.levels": calls.get("backend.level", 0) / ops,
        "backend.dispatch_ms": 1e3 * self_s.get("backend.level", 0.0) / ops,
        "sparse.plan_build_ms": 1e3 * incl_s.get("sparse.plan_build", 0.0) / ops,
    }
    for kind in OP_KINDS:
        out[f"scan.ops.{kind}"] = calls.get(f"scan.op.{kind}", 0) / ops
        out[f"scan.ms.{kind}"] = 1e3 * incl_s.get(f"scan.op.{kind}", 0.0) / ops
    return out


def _coverage(self_s: Dict[str, float], root_s: float, root: str) -> Dict[str, float]:
    """``trace.coverage_pct``: the share of the traced operation time held
    by layer self times plus ``core.unattributed_ms``, i.e. everything but
    the root span's own time."""
    covered = sum(self_s.values()) - self_s.get(root, 0.0)
    return {"trace.coverage_pct": 100.0 * covered / root_s if root_s else 0.0}


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------
SERVE_PARAMS = {
    # The load generator's paper shapes, 16 clients x 64 jobs each.
    "full": dict(seq_len=48, hidden=32, batch=4, clients=16, jobs_per_client=64),
    "tiny": dict(seq_len=8, hidden=4, batch=2, clients=4, jobs_per_client=8),
}
SERVE_SPECS = {
    "dense": "blelloch/serial/cache=shared",
    "linear": "linear/serial/cache=shared",
    "sparse": "blelloch/serial/sparse=on/cache=shared",
}
#: Flavor of the job at (client + index) % 4, as in repro.serve.loadgen.
_FLAVORS = ("dense", "dense", "linear", "sparse")
#: Distinct inputs per client: job j reuses input j % 4, which keeps the
#: mix of flavors per client and the input memory to ~75 MB.
_DISTINCT = 4
#: Server admission policy and threads (paper-scale load generator).
_SERVER = dict(max_batch=16, max_wait_ms=4.0, worker_threads=2)
#: Jobs per run whose server result is checked bitwise against a solo scan.
_CHECKED_JOBS = 32
#: Share of the run spent on the closed loop; the rest times solo scans.
_LOOP_SHARE = 0.75
#: Closed-loop / solo-scan segment pairs per run.
_SEGMENTS = 4
#: Job rate that sizes the closed loop to ~its share of ``--seconds``
#: (one vCPU of a shared 2-vCPU host served 480-660 jobs/s).
_NOMINAL_JOBS_PER_S = 500


def make_serve_jobs(seed: int, size: str) -> List[List[Tuple[str, List[Any]]]]:
    """Per client, its distinct ``(flavor, items)`` jobs, from ``seed``."""
    from repro.scan import DenseJacobian, GradientVector, SparseJacobian
    from repro.sparse import csr_from_diagonal

    p = SERVE_PARAMS[size]
    rng = np.random.default_rng(seed)
    b, h, t = p["batch"], p["hidden"], p["seq_len"]
    diag = csr_from_diagonal(np.ones(h))
    jobs = []
    for c in range(p["clients"]):
        mine = []
        for k in range(_DISTINCT):
            flavor = _FLAVORS[(c + k) % 4]
            items: List[Any] = [GradientVector(rng.standard_normal((b, h)))]
            if flavor == "sparse":
                items += [
                    SparseJacobian(diag, rng.standard_normal((b, h)))
                    for _ in range(t // 2)
                ]
            else:
                items += [
                    DenseJacobian(rng.standard_normal((b, h, h))) for _ in range(t)
                ]
            mine.append((flavor, items))
        jobs.append(mine)
    return jobs


class _Solo:
    """Scans a job alone on the serial executor, without the server."""

    def __init__(self) -> None:
        from repro.backend import get_executor
        from repro.config import ScanConfig
        from repro.scan import ScanContext
        from repro.sparse import PatternCache

        self.executor = get_executor("serial")
        self.contexts = {}
        for flavor, spec in SERVE_SPECS.items():
            cfg = ScanConfig.coerce(spec).resolve()
            self.contexts[flavor] = ScanContext(
                pattern_cache=PatternCache(),
                sparse=cfg.sparse_policy(),
                kernel=cfg.kernel,
            )

    def scan(self, flavor: str, items: List[Any]) -> List[Any]:
        """The job's own algorithm (Blelloch, or linear for ``linear`` jobs)."""
        from repro.scan import blelloch_scan, linear_scan

        ctx = self.contexts[flavor]
        ctx.reset_trace()  # as the engines do before every scan
        if flavor == "linear":
            return linear_scan(items, ctx.op)
        return blelloch_scan(items, ctx.op, executor=self.executor)

    def sequential(self, flavor: str, items: List[Any]) -> List[Any]:
        """The same chain by sequential BP: a linear scan."""
        from repro.scan import linear_scan

        ctx = self.contexts[flavor]
        ctx.reset_trace()
        return linear_scan(items, ctx.op)


async def _serve_setup(jobs, run: Run):
    """Fresh server and cold shared plan cache, then one cold job per spec."""
    from repro.config import shared_pattern_cache
    from repro.serve import EngineServer

    shared_pattern_cache().clear()
    first = {}
    for mine in jobs:
        for flavor, items in mine:
            first.setdefault(flavor, items)
    t0 = time.perf_counter()
    server = EngineServer(**_SERVER)
    for flavor, items in first.items():
        await server.submit(SERVE_SPECS[flavor], items)
    run.setup_s.append(time.perf_counter() - t0)
    return server


@dataclass
class _Loop:
    """Closed-loop state carried across segments of one run."""

    next_job: List[int]
    kept: Dict[Tuple[int, int], List[Any]] = field(default_factory=dict)
    waits: List[float] = field(default_factory=list)
    scans: List[float] = field(default_factory=list)


async def _closed_loop(server, jobs, per_client, run, tracer, checked, loop):
    """Every client submits ``per_client`` jobs, each after the last reply."""
    links = tracer.group_scan_s if tracer is not None else None

    async def client(c: int) -> None:
        first = loop.next_job[c]
        for j in range(first, first + per_client):
            flavor, items = jobs[c][j % _DISTINCT]
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                out = await server.submit(SERVE_SPECS[flavor], items)
            except Exception as exc:  # rejected or failed job
                run.failed += 1
                run.notes.append(f"job ({c}, {j}): {type(exc).__name__}: {exc}")
            else:
                latency = time.perf_counter() - t0
                run.job_s.append(latency)
                run.samples += items[0].batch
                if (c, j) in checked:
                    loop.kept[(c, j)] = out
                if links is not None:
                    scan_s = links.pop(id(items[0]), 0.0)
                    loop.scans.append(scan_s)
                    loop.waits.append(latency - scan_s)
        loop.next_job[c] = first + per_client

    t0 = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(len(jobs))))
    run.wall_s += time.perf_counter() - t0
    run.job_wall_s = run.wall_s
    run.jobs = len(run.job_s)


def _rounds(seconds: float, p: Dict[str, int]) -> int:
    """Rounds of ``jobs_per_client`` jobs per client in each loop segment.

    The loop runs a job count fixed by ``seconds``, not a deadline:
    ``ScanEngine`` keeps a trace record of every ⊙ it ever ran, so the
    heap, and with it the garbage collector's pauses that set
    ``job_p99_ms``, grows with the jobs run.  A fixed count gives every
    run the same growth whatever the host's speed.
    """
    jobs = seconds * _LOOP_SHARE * _NOMINAL_JOBS_PER_S
    per_round = _SEGMENTS * p["clients"] * p["jobs_per_client"]
    return max(1, round(jobs / per_round))


def _solo_passes(solo, mix, seconds: float, run: Run) -> None:
    """Time solo scans: per group of passes over the jobs of ``mix`` (at
    least ``GROUP_S`` of scans), the mean per-job time of the job's own
    algorithm ("step") and of sequential BP ("bp_step").  At least one
    group, then groups until ``seconds`` are up."""
    deadline = time.perf_counter() + seconds
    while True:
        own = seq = 0.0
        jobs = 0
        while own + seq < GROUP_S:
            for flavor, items in mix:
                t0 = time.perf_counter()
                solo.scan(flavor, items)
                t1 = time.perf_counter()
                solo.sequential(flavor, items)
                t2 = time.perf_counter()
                own += t1 - t0
                seq += t2 - t1
            jobs += len(mix)
        run.step_s.append(own / jobs)
        run.bp_step_s.append(seq / jobs)
        if time.perf_counter() >= deadline:
            break


def run_serve(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    setup_reps: int = SETUP_REPS,
    size: str = "full",
) -> Run:
    """Set up the server, then alternate closed-loop and solo-scan segments."""
    return asyncio.run(_run_serve(seed, seconds, tracer, setup_reps, size))


async def _run_serve(seed, seconds, tracer, setup_reps, size) -> Run:
    from repro.config import ScanConfig, shared_pattern_cache

    p = SERVE_PARAMS[size]
    run = Run()
    jobs = make_serve_jobs(seed, size)
    # Solo scans time one client's jobs, one per flavor slot of the mix
    # (~5 MB at full size): a pass over all 64 inputs (~75 MB) was bound
    # by memory bandwidth, which neighbours on a shared host vary, and its
    # p50 spread 0.22 over five seeds.
    mix = jobs[0]
    pick = np.random.default_rng(seed + 1)
    checked = {
        (int(c), int(j))
        for c, j in zip(
            pick.integers(0, p["clients"], _CHECKED_JOBS),
            pick.integers(0, p["jobs_per_client"], _CHECKED_JOBS),
        )
    }
    solo = _Solo()
    _solo_passes(solo, mix, 0.0, Run())  # warm-up: builds the solo plans
    for _ in range(setup_reps - 1):
        await (await _serve_setup(jobs, run)).stop()
    patches: Optional[Patches] = None
    if tracer is not None:
        patches = instrument(tracer)
        cold_spans = len(tracer.spans)
    loop = _Loop(next_job=[0] * p["clients"])
    try:
        server = await _serve_setup(jobs, run)
        try:
            if tracer is not None:
                cold = _cold_plan_counts(tracer, cold_spans)
                loop_spans = len(tracer.spans)
                cache0 = shared_pattern_cache().stats()
                engines = [
                    server.pool.get(ScanConfig.coerce(spec).resolve())
                    for spec in SERVE_SPECS.values()
                ]
                flops0 = sum(e.context.total_flops for e in engines)
                alloc0 = sum(e.context.arena.allocations for e in engines)
            # Segments spread both kinds of sample over the whole run, so
            # a slow spell of the host hits them alike.  Solo scans are
            # skipped when tracing: only the loop is traced.
            per_client = p["jobs_per_client"] * _rounds(seconds, p)
            for _ in range(_SEGMENTS):
                await _closed_loop(
                    server, jobs, per_client, run, tracer, checked, loop
                )
                if tracer is None:
                    share = (1 - _LOOP_SHARE) / _SEGMENTS
                    _solo_passes(solo, mix, seconds * share, run)
            if tracer is not None:
                cache1 = shared_pattern_cache().stats()
                n = max(run.jobs, 1)
                run.layers = _serve_layers(
                    tracer, loop_spans, n, loop.waits, loop.scans
                )
                run.layers.update(cold)
                run.layers["scan.flops"] = (
                    sum(e.context.total_flops for e in engines) - flops0
                ) / n
                run.layers["sparse.arena_allocations"] = (
                    sum(e.context.arena.allocations for e in engines) - alloc0
                ) / n
                hits = cache1["hits"] - cache0["hits"]
                misses = cache1["misses"] - cache0["misses"]
                run.layers["sparse.plan_hits"] = hits / n
                run.layers["sparse.plan_misses"] = misses / n
                run.layers["serve.shared_cache_hit_rate"] = (
                    hits / (hits + misses) if hits + misses else 0.0
                )
        finally:
            await server.stop()
    finally:
        if patches is not None:
            patches.remove()

    run.attempted += len(checked)
    for c, j in sorted(checked):
        flavor, items = jobs[c][j % _DISTINCT]
        out = loop.kept.get((c, j))
        ref = solo.scan(flavor, items)
        if out is None or len(out) != len(ref) or not all(
            np.array_equal(o.data, r.data) for o, r in zip(out[1:], ref[1:])
        ):
            run.failed += 1
            run.notes.append(f"job ({c}, {j}): server result != solo {flavor} scan")
    return run


def _serve_layers(tracer, first_span, jobs, waits, scans) -> Dict[str, float]:
    self_s, incl_s, calls, root_s = layer_totals(
        tracer.spans, ("serve.run_scan", "serve.merge"), start=first_span
    )
    groups = calls.get("serve.run_scan", 0)
    out = _scan_layers(self_s, incl_s, calls, jobs)
    out.update(
        {
            "serve.queue_wait_ms": 1e3 * float(np.mean(waits)) if waits else 0.0,
            "serve.scan_ms": 1e3 * float(np.mean(scans)) if scans else 0.0,
            "serve.merge_ms": 1e3 * incl_s.get("serve.merge", 0.0) / jobs,
            "serve.jobs_per_group": jobs / groups if groups else 0.0,
        }
    )
    out.update(_coverage(self_s, root_s, "serve.run_scan"))
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    setup_reps: int = SETUP_REPS,
    size: str = "full",
) -> Run:
    """Run workload ``name`` once; ``size="tiny"`` is the self-test scale."""
    if name == "rnn_bitstream":
        return run_training(_rnn_spec(size), seed, seconds, tracer, setup_reps)
    if name == "pruned_lenet":
        return run_training(_lenet_spec(size), seed, seconds, tracer, setup_reps)
    if name == "serve_mixed":
        return run_serve(seed, seconds, tracer, setup_reps, size)
    raise ValueError(f"unknown workload {name!r}")
