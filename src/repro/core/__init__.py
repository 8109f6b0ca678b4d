"""BPPSA — the paper's primary contribution, as a library.

Pipelines the pieces: run the forward pass, generate each stage's
transposed Jacobian (:mod:`repro.jacobian`), assemble Eq. 5's array,
scan it with the modified Blelloch scan (:mod:`repro.scan`), and
scatter parameter gradients via Eq. 2 — producing gradients that are an
*exact reconstruction* of back-propagation (checked against the tape in
``tests/test_core_equivalence.py``).

Entry points
------------
:class:`FeedforwardBPPSA`
    gradients for :class:`~repro.nn.module.Sequential` feedforward
    stacks (LeNet-5 / VGG-style models with a cross-entropy head).
:class:`RNNBPPSA`
    gradients for the vanilla-RNN classifier of Section 4.1 — the
    workload with the long sequential dependency.
:class:`Trainer`
    optimizer-agnostic training loop that can swap between baseline BP
    and BPPSA, used by the convergence experiments (Figs. 7 and 9).

Both engines subclass :class:`repro.core.engine.EngineCore`, as does
the serve plane's :class:`~repro.serve.ScanEngine`: it resolves the
engine's :class:`~repro.config.ScanConfig` once, builds the
:class:`~repro.scan.ScanContext` from it, and uses the caller's
:class:`~repro.backend.ScanExecutor` instance or builds, owns and
closes the executor ``config.executor`` names.  So an engine takes its
model, ``config=`` and ``executor=`` (an instance) and nothing else;
:func:`repro.build_engine` folds keyword overrides into the config.
The trainer runs the engine it is given.  Gradients are
bitwise-identical on every backend (see :mod:`repro.backend`).
"""

from repro.core.feedforward import FeedforwardBPPSA
from repro.core.rnn import RNNBPPSA
from repro.core.param_grads import conv2d_param_grads, linear_param_grads
from repro.core.trainer import Trainer, TrainRecord

__all__ = [
    "FeedforwardBPPSA",
    "RNNBPPSA",
    "Trainer",
    "TrainRecord",
    "linear_param_grads",
    "conv2d_param_grads",
]
