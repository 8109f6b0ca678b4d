"""Optimizer-agnostic training loop that can swap gradient engines.

The convergence experiments (Figures 7 and 9) train the *same* model
with (a) taped baseline back-propagation and (b) BPPSA, holding the
optimizer, seeds, and data order fixed — demonstrating the paper's
claim that BPPSA is an exact reconstruction whose numerical differences
(from multiplication reordering) do not affect convergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim import Optimizer
from repro.tensor import Tensor


@dataclass
class TrainRecord:
    """Per-iteration log: loss and cumulative wall-clock seconds."""

    iteration: int
    loss: float
    wall_clock: float
    backward_seconds: float = 0.0


@dataclass
class TrainResult:
    records: List[TrainRecord] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [r.loss for r in self.records]

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("nan")

    @property
    def total_backward_seconds(self) -> float:
        return sum(r.backward_seconds for r in self.records)


class Trainer:
    """Train a classifier with either engine.

    Parameters
    ----------
    model:
        The module whose parameters are optimized.
    optimizer:
        Any :class:`~repro.optim.Optimizer`.
    engine:
        ``None`` → taped baseline BP (forward builds a graph, backward
        runs Eq. 3 serially); otherwise an object with
        ``compute_gradients(x, y) -> {id(param): grad}`` and
        ``apply_gradients`` (a BPPSA engine).
    forward_fn:
        Model forward for the baseline path; defaults to ``model(x)``.

    The engine's scan configuration is the one it was built with
    (``engine.config``); the trainer never changes it.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        engine=None,
        forward_fn: Optional[Callable[[Tensor], Tensor]] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.engine = engine
        self.forward_fn = forward_fn if forward_fn is not None else model
        self.loss_fn = CrossEntropyLoss()

    # ------------------------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        """One optimization step; returns (loss, backward_seconds)."""
        if self.engine is None:
            logits = self.forward_fn(Tensor(np.asarray(x, dtype=np.float64)))
            loss = self.loss_fn(logits, y)
            self.model.zero_grad()
            t0 = time.perf_counter()
            loss.backward()
            backward_s = time.perf_counter() - t0
            self.optimizer.step()
            return float(loss.data), backward_s
        t0 = time.perf_counter()
        grads = self.engine.compute_gradients(x, y)
        backward_s = time.perf_counter() - t0
        self.engine.apply_gradients(grads)
        self.optimizer.step()
        # compute_gradients cached the pre-update logits.
        return _xent(self.engine.last_logits, y), backward_s

    # ------------------------------------------------------------------
    def fit(
        self,
        batches: Iterable[Tuple[np.ndarray, np.ndarray]],
        max_iterations: Optional[int] = None,
    ) -> TrainResult:
        """Run over ``batches``; returns per-iteration records."""
        result = TrainResult()
        start = time.perf_counter()
        for it, (x, y) in enumerate(batches):
            if max_iterations is not None and it >= max_iterations:
                break
            loss, backward_s = self.train_step(x, y)
            result.records.append(
                TrainRecord(
                    iteration=it,
                    loss=loss,
                    wall_clock=time.perf_counter() - start,
                    backward_seconds=backward_s,
                )
            )
        return result

    # ------------------------------------------------------------------
    def evaluate(
        self, batches: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[float, float]:
        """Mean loss and accuracy over ``batches`` (no grad)."""
        from repro.tensor import no_grad

        losses, correct, count = [], 0, 0
        for x, y in batches:
            with no_grad():
                logits = self.forward_fn(Tensor(np.asarray(x, dtype=np.float64)))
            losses.append(_xent(logits.data, y) * len(y))
            correct += int((logits.data.argmax(axis=1) == y).sum())
            count += len(y)
        return (sum(losses) / max(count, 1), correct / max(count, 1))


def _xent(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of raw logits (NumPy, no tape)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(targets)), np.asarray(targets)]
    return float(np.mean(logz - picked))
