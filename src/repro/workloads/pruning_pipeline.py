"""The ``pruned_sparsity`` workload: train → prune → retrain → measure.

The paper's Section 4.2 pipeline as a first-class bench artifact.  For
each pruning fraction a ReLU MLP is trained for a few BPPSA steps,
magnitude-pruned, retrained with the mask re-applied (and *asserted*)
after every optimizer step, and then measured twice on the same batch:
once through a dense engine (``sparse="off"``, dense Linear Jacobians)
and once through a CSR engine (``sparse_linear_tol=0.0``,
``sparse="on"``).  The rows track how weight sparsity turns into
scan-operand sparsity and how that turns into a dense-vs-sparse
gradient-step speedup — the Figure 11 causal chain, end to end, on one
model.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.config import ScanConfig, build_engine
from repro.experiments.common import Scale
from repro.nn.models import make_mlp
from repro.optim import SGD
from repro.pruning import magnitude_prune, model_sparsity
from repro.workloads.structure import stage_structures

#: MLP sizes, pruning fractions (the paper's headline setting is 97 %)
#: and training steps before pruning / retraining steps after, per scale.
PARAMS = {
    Scale.SMOKE: {
        "d_in": 32, "hidden": 48, "classes": 4, "batch": 16,
        "fractions": (0.0, 0.5, 0.9), "steps": (4, 3),
    },
    Scale.PAPER: {
        "d_in": 128, "hidden": 192, "classes": 10, "batch": 32,
        "fractions": (0.0, 0.5, 0.9, 0.97), "steps": (12, 8),
    },
}

#: Timed gradient computations per (fraction, engine) cell; the row
#: records the fastest, the steady-state per-step cost.
TIMING_REPEATS = 3

#: Steady-state cache: per (scale, executor) cell the fully
#: prepared per-fraction states — trained+pruned+retrained model, its
#: dense and CSR engines, the measurement batch, and the mask set — so
#: repeated timed calls re-measure warm engines instead of re-training.
_STATE: Dict[tuple, list] = {}


def build(scale: Scale):
    """The MLP (seed 0) and one ``(x, targets)`` batch (seed 1)."""
    p = PARAMS[scale]
    sizes = [p["d_in"], p["hidden"], p["hidden"], p["classes"]]
    model = make_mlp(sizes, activation="relu", rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((p["batch"], p["d_in"]))
    return model, x, rng.integers(0, p["classes"], size=p["batch"])


def _train(engine, opt, masks, x, targets, steps: int) -> None:
    """``steps`` optimizer steps on one batch; with ``masks`` this is
    the retrain loop, re-applying and asserting the mask every step."""
    for _ in range(steps):
        grads = engine.compute_gradients(x, targets)
        engine.apply_gradients(grads)
        opt.step()
        if masks is not None:
            masks.reapply(engine.model)
            masks.assert_applied(engine.model)


def _prepare(scale: Scale, cfg: ScanConfig) -> list:
    pre_steps, retrain_steps = PARAMS[scale]["steps"]
    states = []
    for fraction in PARAMS[scale]["fractions"]:
        model, x, targets = build(scale)
        dense_engine = build_engine(
            model,
            ScanConfig(
                algorithm="blelloch",
                executor=cfg.executor,
                sparse="off",
            ),
        )
        opt = SGD(model.parameters(), lr=1e-2, momentum=0.9)
        _train(dense_engine, opt, None, x, targets, pre_steps)
        masks = magnitude_prune(model, fraction, scope="global")
        _train(dense_engine, opt, masks, x, targets, retrain_steps)
        # The CSR engine is built only now: its Linear patterns come
        # from the pruned weights, which the asserted mask keeps fixed.
        sparse_engine = build_engine(
            model,
            ScanConfig(
                algorithm="blelloch",
                executor=cfg.executor,
                sparse="on",
                sparse_linear_tol=0.0,
            ),
        )
        density = float(
            np.mean(
                [
                    row["density"]
                    for row in stage_structures(
                        model, x, sparse_linear_tol=0.0
                    )
                ]
            )
        )
        states.append(
            {
                "fraction": fraction,
                "weight_sparsity": model_sparsity(model),
                "mask_sparsity": masks.sparsity(),
                "mean_stage_density": density,
                "dense_engine": dense_engine,
                "sparse_engine": sparse_engine,
                "batch": (x, targets),
            }
        )
    return states


def _best_seconds(engine, x, targets) -> float:
    best = np.inf
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        engine.compute_gradients(x, targets)
        best = min(best, time.perf_counter() - start)
    return best


def pruned_sparsity_rows(scale: Scale, cfg: ScanConfig) -> List[Dict[str, Any]]:
    """One dense-vs-CSR gradient-step comparison per pruning fraction.

    Only the resolved config's executor is read: this artifact sweeps
    the dense/CSR axis *internally* (that contrast per fraction IS the
    measurement), so it registers as backend-sensitive only.
    """
    key = (scale, cfg.executor)
    states = _STATE.get(key)
    if states is None:
        states = _prepare(scale, cfg)
        _STATE[key] = states
    rows: List[Dict[str, Any]] = []
    for st in states:
        x, targets = st["batch"]
        dense_s = _best_seconds(st["dense_engine"], x, targets)
        sparse_s = _best_seconds(st["sparse_engine"], x, targets)
        grads = st["sparse_engine"].compute_gradients(x, targets)
        total = sum(g.size for g in grads.values())
        zeros = sum(int((g == 0.0).sum()) for g in grads.values())
        rows.append(
            {
                "fraction": st["fraction"],
                "weight_sparsity": round(st["weight_sparsity"], 6),
                "mask_sparsity": round(st["mask_sparsity"], 6),
                "mean_stage_density": round(st["mean_stage_density"], 6),
                "grad_zero_fraction": round(zeros / total, 6),
                "dense_ms": round(dense_s * 1e3, 4),
                "sparse_ms": round(sparse_s * 1e3, 4),
                "speedup": round(dense_s / sparse_s, 4),
                "backend": cfg.executor,
            }
        )
    return rows


def pruned_sparsity_metrics(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Record-level summary: the speedup and operand density at the
    lightest and heaviest pruning levels."""
    first, last = rows[0], rows[-1]
    return {
        "max_fraction": last["fraction"],
        "speedup_at_max_fraction": last["speedup"],
        "speedup_unpruned": first["speedup"],
        "stage_density_at_max_fraction": last["mean_stage_density"],
    }
