"""The workload registry: named specs the bench runner sweeps.

A :class:`WorkloadSpec` bundles everything the rest of the stack needs
to treat a model as a first-class scan workload: a seeded model
factory, per-scale sizes, a seeded input-batch factory, and — the part
no other plane can derive — the *expected Jacobian block structure* of
each engine stage.  :func:`stage_structures` computes the actual
structure from a model (via the same
:func:`~repro.jacobian.dispatch.layer_tjac_batched` dispatch the
engine uses), so the expectation is machine-checkable:
:func:`validate_workload` fails loudly when a layer change silently
alters which storage form a stage lands in.

Structure tags (one per stage, forward order):

========================  ==============================================
tag                        meaning
========================  ==============================================
``identity``               no Jacobian stored (Flatten)
``dense-shared``           one (d_in, d_out) dense matrix for the batch
``dense-per-sample``       (B, d_in, d_out) dense (softmax attention)
``sparse-shared``          one CSR for the batch (conv, linear)
``sparse-per-sample``      shared CSR pattern + (B, nnz) data
========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.common import Scale
from repro.scan import SparseJacobian


def _scale(scale: Any) -> Scale:
    return scale if isinstance(scale, Scale) else Scale(str(scale))


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: model factory, input shapes, and expected
    per-stage Jacobian structure.

    ``sizes`` maps each :class:`~repro.experiments.common.Scale` value
    to the workload's hyperparameters; ``model_fn(params, rng)`` builds
    the model and ``batch_fn(params, rng)`` one ``(x, targets)`` input
    batch.  ``jacobian_structure`` is the expected structure tag of
    every engine stage in forward order, under the workload's canonical
    engine configuration (``sparse_linear_tol`` below — the pruned
    workload stores its Linears in CSR, the transformer keeps the
    default dispatch).
    """

    name: str
    summary: str
    sizes: Mapping[str, Mapping[str, int]]
    model_fn: Callable[[Mapping[str, int], np.random.Generator], Any]
    batch_fn: Callable[
        [Mapping[str, int], np.random.Generator],
        Tuple[np.ndarray, np.ndarray],
    ]
    jacobian_structure: Tuple[str, ...]
    sparse_linear_tol: Optional[float] = None

    def params(self, scale: Any) -> Mapping[str, int]:
        return self.sizes[_scale(scale).value]

    def build_model(self, scale: Any, seed: int = 0):
        """The workload's model, deterministic in ``seed``."""
        return self.model_fn(self.params(scale), np.random.default_rng(seed))

    def make_batch(
        self, scale: Any, seed: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One ``(x, targets)`` batch, deterministic in ``seed``."""
        return self.batch_fn(self.params(scale), np.random.default_rng(seed))


def structure_tag(jac) -> str:
    """The structure tag of one stage's Jacobian element, as
    :func:`~repro.jacobian.layer_tjac_batched` returns it
    (``None`` → ``"identity"``)."""
    if jac is None:
        return "identity"
    storage = "sparse" if isinstance(jac, SparseJacobian) else "dense"
    return f"{storage}-{'shared' if jac.shared else 'per-sample'}"


def stage_structures(
    model,
    x: np.ndarray,
    sparse_linear_tol: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Per-stage Jacobian structure of ``model`` on input ``x``.

    Runs the engine's recorded forward
    (:func:`~repro.core.feedforward.forward_activations`), dispatches
    every stage through
    :func:`~repro.jacobian.dispatch.layer_tjac_batched`, and returns one
    row per stage: layer repr, structure tag, Jacobian shape, and
    density (1.0 for dense storage).
    """
    from repro.core.feedforward import forward_activations
    from repro.jacobian.dispatch import layer_tjac_batched

    activations = forward_activations(model, x)
    rows: List[Dict[str, Any]] = []
    for idx, layer in enumerate(model):
        jac = layer_tjac_batched(
            layer,
            activations[idx],
            activations[idx + 1],
            sparse_linear_tol=sparse_linear_tol,
        )
        sparse = isinstance(jac, SparseJacobian)
        rows.append(
            {
                "stage": idx,
                "layer": type(layer).__name__,
                "structure": structure_tag(jac),
                "shape": () if jac is None else jac.shape,
                "density": jac.pattern.density if sparse else 1.0,
            }
        )
    return rows


def validate_workload(spec: WorkloadSpec, scale: Any = Scale.SMOKE) -> None:
    """Raise ``ValueError`` when a workload's actual per-stage Jacobian
    structure disagrees with its registered expectation."""
    model = spec.build_model(scale)
    x, _ = spec.make_batch(scale)
    got = tuple(
        row["structure"]
        for row in stage_structures(
            model, x, sparse_linear_tol=spec.sparse_linear_tol
        )
    )
    if got != spec.jacobian_structure:
        raise ValueError(
            f"workload {spec.name!r}: expected stage structure "
            f"{spec.jacobian_structure}, dispatch produced {got}"
        )


# ---------------------------------------------------------------------------
# registered workloads
# ---------------------------------------------------------------------------
def _transformer_model(p: Mapping[str, int], rng: np.random.Generator):
    from repro.nn.attention import make_transformer_classifier

    return make_transformer_classifier(
        p["seq_len"], p["d_model"], p["classes"], d_ff=p["d_ff"], rng=rng
    )


def _transformer_batch(p: Mapping[str, int], rng: np.random.Generator):
    x = rng.standard_normal((p["batch"], p["seq_len"], p["d_model"]))
    targets = rng.integers(0, p["classes"], size=p["batch"])
    return x, targets


def _mlp_model(p: Mapping[str, int], rng: np.random.Generator):
    from repro.nn.models import make_mlp

    sizes = [p["d_in"], p["hidden"], p["hidden"], p["classes"]]
    return make_mlp(sizes, activation="relu", rng=rng)


def _mlp_batch(p: Mapping[str, int], rng: np.random.Generator):
    x = rng.standard_normal((p["batch"], p["d_in"]))
    targets = rng.integers(0, p["classes"], size=p["batch"])
    return x, targets


#: The named workload specs, keyed by name.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="transformer_block",
            summary=(
                "single-head transformer block + linear head: the "
                "block-sparse / structurally-dense SparsePolicy stress"
            ),
            sizes={
                Scale.SMOKE.value: {
                    "seq_len": 8,
                    "d_model": 16,
                    "d_ff": 32,
                    "classes": 4,
                    "batch": 4,
                },
                Scale.PAPER.value: {
                    "seq_len": 16,
                    "d_model": 32,
                    "d_ff": 64,
                    "classes": 10,
                    "batch": 8,
                },
            },
            model_fn=_transformer_model,
            batch_fn=_transformer_batch,
            # SelfAttention, LayerNorm, Linear, ReLU, Linear, LayerNorm,
            # Flatten, Linear head — forward order.
            jacobian_structure=(
                "dense-per-sample",
                "sparse-per-sample",
                "sparse-shared",
                "sparse-per-sample",
                "sparse-shared",
                "sparse-per-sample",
                "identity",
                "dense-shared",
            ),
        ),
        WorkloadSpec(
            name="pruned_mlp",
            summary=(
                "ReLU MLP for the train → magnitude-prune → retrain "
                "sparsity pipeline (CSR Linears via sparse_linear_tol)"
            ),
            sizes={
                Scale.SMOKE.value: {
                    "d_in": 32,
                    "hidden": 48,
                    "classes": 4,
                    "batch": 16,
                },
                Scale.PAPER.value: {
                    "d_in": 128,
                    "hidden": 192,
                    "classes": 10,
                    "batch": 32,
                },
            },
            model_fn=_mlp_model,
            batch_fn=_mlp_batch,
            # Linear, ReLU, Linear, ReLU, Linear — CSR Linears under the
            # workload's canonical sparse_linear_tol.
            jacobian_structure=(
                "sparse-shared",
                "sparse-per-sample",
                "sparse-shared",
                "sparse-per-sample",
                "sparse-shared",
            ),
            sparse_linear_tol=0.0,
        ),
    )
}


def workload_names() -> List[str]:
    """Registered workload names, in registration order."""
    return list(WORKLOADS)


def get_workload(name: str) -> WorkloadSpec:
    """The spec registered under ``name`` (KeyError with the catalog
    when absent)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {workload_names()}"
        ) from None
