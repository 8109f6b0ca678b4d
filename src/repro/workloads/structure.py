"""Per-stage Jacobian structure: which storage form each stage lands in.

:func:`stage_structures` forwards a batch through a model the engine's
way (:func:`~repro.core.feedforward.forward_activations`) and
classifies the element that
:func:`~repro.jacobian.dispatch.layer_tjac_batched` returns for every
stage.  Both bench workloads report it in their rows, and
``tests/test_workloads.py`` pins the expected tags per stage.

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

from typing import Any, Dict, List, Optional

import numpy as np

from repro.scan import SparseJacobian


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
