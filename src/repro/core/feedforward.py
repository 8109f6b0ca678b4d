"""BPPSA for feedforward (Sequential) networks.

Implements the full method of paper Section 3 for a stack of layers
``f_1 ∘ … ∘ f_n`` with a softmax-cross-entropy objective:

1. forward pass, recording every activation ``x_0 … x_n``;
2. seed ``∇x_n ℓ`` in closed form;
3. assemble Eq. 5's array
   ``[∇x_n ℓ, (∂x_n/∂x_{n−1})^T, …, (∂x_1/∂x_0)^T]`` from the
   analytical CSR generators;
4. exclusive-scan it (linear / Blelloch / Hillis–Steele / truncated);
5. scatter parameter gradients with Eq. 2.

The produced gradients are an exact reconstruction of BP up to
floating-point reassociation (paper Section 3.5).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.backend import ExecutorOwner, ScanExecutor
from repro.config import ScanConfig
from repro.jacobian.dispatch import has_tjac, layer_tjac_batched
from repro.nn import layers as L
from repro.nn.loss import softmax_xent_grad
from repro.nn.module import Sequential
from repro.scan import (
    IDENTITY,
    GradientVector,
    ScanContext,
    SparsePolicy,
    blelloch_scan,
    hillis_steele_scan,
    linear_scan,
    truncated_blelloch_scan,
)
from repro.sparse import PatternCache
from repro.tensor import Tensor, no_grad


def forward_activations(layers, x: np.ndarray) -> List[np.ndarray]:
    """Run ``layers`` on ``x`` without a tape and record every activation.

    Returns ``[x_0, …, x_n]``: stage ``i``'s Jacobian is
    ``layer_tjac_batched(layers[i], x_i, x_{i+1})``.  The engine's
    forward pass, Figure 11's stage Jacobians and
    :func:`repro.workloads.stage_structures` all record through here.
    """
    activations = [np.asarray(x, dtype=np.float64)]
    with no_grad():
        cur = Tensor(activations[0])
        for layer in layers:
            cur = layer(cur)
            activations.append(cur.data)
    return activations


class FeedforwardBPPSA(ExecutorOwner):
    """Gradient engine running BP as a parallel scan over a Sequential.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.module.Sequential` of supported layers
        (Linear / Conv2d / ReLU / Tanh / Sigmoid / MaxPool2d /
        AvgPool2d / Flatten / SelfAttention / LayerNorm — so a
        :class:`~repro.nn.attention.TransformerBlock` works directly).
    config:
        A :class:`~repro.config.ScanConfig` (or spec string / mapping)
        naming the whole scan surface declaratively — the preferred
        construction path (see :func:`repro.build_engine`).  Unset
        fields take the global defaults; the fully resolved config
        is kept on ``self.config``, and the engine reads its algorithm,
        depth, tolerance and sparse mode from there.  Nothing changes
        them after construction: build a new engine for another
        configuration.  The config is pure *declarative* data:
        caller-provided ``executor``/``pattern_cache``
        *instances* take precedence over it but are not representable
        in it, so ``self.config`` then records the resolved spec rather
        than the instance actually in use (``self.executor`` /
        ``self.context.cache`` are authoritative).
    algorithm:
        ``"blelloch"`` (default), ``"linear"`` (the serial baseline,
        numerically identical to BP), ``"hillis_steele"``, or
        ``"truncated"`` (Section 5.2; set ``up_levels``).  Overrides
        the ``config`` field when given.
    sparse_linear_tol:
        When set, linear-layer Jacobians are stored in CSR dropping
        entries ≤ tol — the pruned-retraining configuration.
    sparse:
        Dense-vs-sparse dispatch for the scan: a
        :class:`~repro.scan.SparsePolicy`, a mode string (``"auto"``,
        ``"on"``, ``"off"``), or ``None`` for the config's mode
        (``"auto"`` unless it names another).  For any fixed policy,
        gradients are bitwise-identical on every backend; sparse- and
        dense-mode gradients agree up to floating-point reassociation
        (Section 3.5).
    executor:
        Scan-execution backend: a spec string (``"serial"``,
        ``"thread:8"`` — see :mod:`repro.backend`), an
        executor instance, or ``None`` for the config's executor
        (``"serial"`` unless it names another).  The executor is
        fixed at construction: ``self.executor`` runs every scan, and
        unless an instance was passed it is built from
        ``self.config.executor`` and owned by the engine.  Every
        backend yields bitwise-identical gradients; call :meth:`close`
        (or use the engine as a context manager) to release pooled
        workers.
    """

    def __init__(
        self,
        model: Sequential,
        algorithm: Optional[str] = None,
        up_levels: Optional[int] = None,
        sparse_linear_tol: Optional[float] = None,
        pattern_cache: Optional[PatternCache] = None,
        executor: Union[str, ScanExecutor, None] = None,
        sparse: Union[str, SparsePolicy, None] = None,
        config: Union[ScanConfig, str, Mapping, None] = None,
    ) -> None:
        cfg = ScanConfig.coerce(
            config,
            algorithm=algorithm,
            up_levels=up_levels,
            sparse_linear_tol=sparse_linear_tol,
            executor=executor if isinstance(executor, str) else None,
            sparse=sparse,
        ).resolve()
        self.config = cfg
        self.model = model
        self._init_executor(executor, cfg.executor)
        self.context = ScanContext(
            pattern_cache=(
                pattern_cache
                if pattern_cache is not None
                else cfg.make_pattern_cache()
            ),
            sparse=cfg.sparse_policy(),
        )
        self._activations: List[np.ndarray] = []

    @property
    def sparse_policy(self) -> SparsePolicy:
        """The scan's dense-vs-sparse dispatch policy."""
        return self.context.sparse_policy

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass recording activations; returns logits (B, C)."""
        self._activations = forward_activations(self.model, x)
        return self._activations[-1]

    # ------------------------------------------------------------------
    def scan_items(self, seed: np.ndarray) -> tuple:
        """Assemble Eq. 5's array and the stage → scan-position map.

        Identity-Jacobian stages (Flatten) are folded away; the returned
        ``positions`` list gives, for each layer index, the scan output
        position holding ``∇(output of that layer)``.

        The last item is :data:`~repro.scan.IDENTITY`, not the bottom
        layer's ``(∂x_1/∂x_0)^T``: an exclusive scan never reads its
        last element (see :func:`~repro.scan.blelloch_scan`), so that
        Jacobian is built only when :meth:`compute_gradients` is asked
        for the input gradient.  The bottom layer must still have a
        generator (``TypeError`` otherwise), so no layer's parameter
        gradient can go missing silently.
        """
        layers = self.model.layers
        items: list = [GradientVector(seed)]
        positions: List[int] = [0] * len(layers)
        for idx in range(len(layers) - 1, 0, -1):
            # ∇(output of layer idx) = out[1 + #Jacobians of layers above].
            positions[idx] = len(items)
            element = self._tjac_element(idx)
            if element is not None:  # None: identity Jacobian, same slot
                items.append(element)
        if layers:
            if not has_tjac(layers[0]):
                raise ValueError(
                    "an identity-Jacobian layer (Flatten) cannot be the "
                    "bottom-most stage: the exclusive scan does not produce "
                    "the model-input gradient"
                )
            positions[0] = len(items)
            items.append(IDENTITY)
        return items, positions

    def _tjac_element(self, idx: int):
        """Layer ``idx``'s transposed Jacobian as a scan element, or
        ``None`` for an identity-Jacobian stage."""
        jac = layer_tjac_batched(
            self.model.layers[idx],
            self._activations[idx],
            self._activations[idx + 1],
            sparse_linear_tol=self.config.sparse_linear_tol,
        )
        return None if jac is None else self.sparse_policy.element(jac)

    def compute_gradients(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        input_gradient: bool = False,
    ) -> Dict[int, np.ndarray]:
        """Full BPPSA step: returns ``{id(param): grad}`` for Eq. 2.

        Also leaves activation gradients in ``self.last_activation_grads``
        (list parallel to layers, each (B, d) flattened) for inspection.
        With ``input_gradient=True`` the bottom layer's ``(∂x_1/∂x_0)^T``
        — which :meth:`scan_items` leaves out — is built and applied in
        one extra ⊙, so ``∇x_0 ℓ`` (gradient w.r.t. the model input)
        lands in ``self.last_input_gradient``.
        """
        logits = self.forward(x)
        self.last_logits = logits
        seed = softmax_xent_grad(logits, targets)
        items, positions = self.scan_items(seed)
        scanned = self._run_scan(items)

        self.last_input_gradient = None
        if input_gradient:
            from repro.scan.elements import OpInfo

            final = self.context.op(
                scanned[len(items) - 1],
                self._tjac_element(0),
                OpInfo("input-grad", 0, len(items) - 1, len(items)),
            )
            self.last_input_gradient = final.data.reshape(np.asarray(x).shape)

        grads: Dict[int, np.ndarray] = {}
        act_grads: List[np.ndarray] = []
        for idx, layer in enumerate(self.model.layers):
            p = positions[idx]
            g_out = scanned[p].data  # (B, d_out), flattened
            act_grads.append(g_out)
            self._accumulate_param_grads(layer, idx, g_out, grads)
        self.last_activation_grads = act_grads
        return grads

    # ------------------------------------------------------------------
    def _run_scan(self, items: list) -> list:
        self.context.reset_trace()
        algorithm = self.config.algorithm
        if algorithm == "linear":
            return linear_scan(items, self.context.op)
        if algorithm == "hillis_steele":
            return hillis_steele_scan(
                items, self.context.op, executor=self.executor
            )
        if algorithm == "truncated":
            return truncated_blelloch_scan(
                items,
                self.context.op,
                up_levels=self.config.up_levels,
                executor=self.executor,
            )
        return blelloch_scan(items, self.context.op, executor=self.executor)

    def _accumulate_param_grads(
        self, layer, idx: int, g_out: np.ndarray, grads: Dict[int, np.ndarray]
    ) -> None:
        from repro.core.param_grads import (
            attention_param_grads,
            conv2d_param_grads,
            linear_param_grads,
        )
        from repro.nn.attention import SelfAttention

        x_in = self._activations[idx]
        x_out = self._activations[idx + 1]
        if isinstance(layer, SelfAttention):
            res = attention_param_grads(layer, x_in, g_out)
            grads[id(layer.wq)] = res["wq"]
            grads[id(layer.wk)] = res["wk"]
            grads[id(layer.wv)] = res["wv"]
            return
        if isinstance(layer, L.Linear):
            # Collapse any leading position axes so the same contraction
            # serves both flat (B, d_in) and position-wise (B, T, d_in)
            # applications (bias then sums over batch *and* positions).
            res = linear_param_grads(
                x_in.reshape(-1, layer.in_features),
                g_out.reshape(-1, layer.out_features),
                layer.bias is not None,
            )
        elif isinstance(layer, L.Conv2d):
            res = conv2d_param_grads(
                x_in,
                g_out.reshape(x_out.shape),
                layer.weight.data.shape,
                layer.stride,
                layer.padding,
                layer.bias is not None,
            )
        else:
            return
        grads[id(layer.weight)] = res["weight"]
        if res["bias"] is not None:
            grads[id(layer.bias)] = res["bias"]

    # ------------------------------------------------------------------
    def apply_gradients(self, grads: Dict[int, np.ndarray]) -> None:
        """Write gradients into ``param.grad`` (for ``Optimizer.step``)."""
        for p in self.model.parameters():
            g = grads.get(id(p))
            if g is not None:
                p.grad = g.reshape(p.data.shape)
