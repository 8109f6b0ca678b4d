"""repro — reproduction of *BPPSA: Scaling Back-propagation by Parallel
Scan Algorithm* (Wang, Bai & Pekhimenko, MLSys 2020).

Back-propagation's layer-to-layer recurrence (Eq. 3) is an exclusive
scan of the non-commutative operator ``A ⊙ B = B·A`` over the reversed
sequence of transposed Jacobians seeded with the output gradient
(Eq. 5).  BPPSA runs that scan with a modified Blelloch algorithm in
Θ(log n) steps instead of BP's Θ(n), with Θ(n) work and constant
per-device space, exploiting the deterministic sparsity of operator
Jacobians to keep each step cheap.

Quick start::

    import numpy as np
    import repro
    from repro.nn import RNNClassifier
    from repro.optim import Adam

    clf = RNNClassifier(1, 20, 10, rng=np.random.default_rng(0))
    engine = repro.build_engine(clf)        # blelloch scan, serial
    grads = engine.compute_gradients(x, y)  # exact BP gradients, via scan
    engine.apply_gradients(grads)
    Adam(clf.parameters(), lr=3e-5).step()

Every scan knob — algorithm, truncation depth, executor backend,
dense-vs-sparse dispatch — is one declarative value
(:class:`repro.ScanConfig`), buildable from a spec string or keyword
overrides and passed to the engine explicitly; no environment variable
or scoped override changes it::

    engine = repro.build_engine(model, "truncated:3/thread:8/sparse=on")
    engine = repro.build_engine(model, executor="thread:4", sparse="off")

Package map (see DESIGN.md for the full inventory):

========================  =============================================
``repro.tensor``          reverse-mode autodiff substrate (the baseline)
``repro.nn``              layers, RNN, attention, LeNet-5, VGG-11, losses
``repro.optim``           SGD(+momentum), Adam
``repro.sparse``          CSR + plan-cached SpGEMM
``repro.jacobian``        analytical transposed-Jacobian generators
``repro.scan``            the ⊙ operator; Blelloch / linear / truncated
``repro.backend``         pluggable scan executors: serial/thread
``repro.config``          declarative ScanConfig + build_engine facade
``repro.core``            BPPSA engines and trainers
``repro.pram``            PRAM/GPU simulator and device catalog
``repro.pipeline``        GPipe / PipeDream / naïve baselines
``repro.data``            bitstream task, synthetic CIFAR-10 substitute
``repro.pruning``         magnitude pruning for the retraining benchmark
``repro.analysis``        static FLOPs, complexity laws
``repro.workloads``       the transformer and pruning bench workloads
``repro.experiments``     one runnable module per paper table/figure
========================  =============================================
"""

__version__ = "1.1.0"

__all__ = [
    "tensor",
    "nn",
    "optim",
    "sparse",
    "jacobian",
    "scan",
    "backend",
    "config",
    "core",
    "pram",
    "pipeline",
    "data",
    "pruning",
    "analysis",
    "experiments",
    # configuration-plane facade (lazily bound, see __getattr__)
    "ScanConfig",
    "build_engine",
]

#: Facade names re-exported from :mod:`repro.config`.  Bound lazily
#: (PEP 562) so ``import repro`` stays free of NumPy/engine imports
#: until the configuration plane is actually touched.
_CONFIG_EXPORTS = (
    "ScanConfig",
    "build_engine",
)


def __getattr__(name):
    if name in _CONFIG_EXPORTS:
        from repro import config as _config

        return getattr(_config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_CONFIG_EXPORTS))
