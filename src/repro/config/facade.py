"""The engine facade: :func:`build_engine` and :func:`stage_configs`.

:func:`build_engine` is the one front door for constructing a gradient
engine from a model and a :class:`~repro.config.ScanConfig` — it
dispatches on the model type, so experiment drivers and the bench
runner no longer hard-code engine classes.  An engine's configuration
is fixed when it is built; to run another one, build another engine.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Union

from repro.config.scan_config import ScanConfig


def build_engine(
    model: Any,
    config: Union[ScanConfig, str, Mapping[str, Any], None] = None,
    **overrides: Any,
):
    """Build the right BPPSA gradient engine for ``model``.

    Dispatch:

    * :class:`~repro.nn.rnn.RNNClassifier` →
      :class:`~repro.core.RNNBPPSA`;
    * :class:`~repro.nn.module.Sequential` →
      :class:`~repro.core.FeedforwardBPPSA`;
    * a module exposing ``features``/``classifier`` Sequentials
      (LeNet-5, VGG-11) → its flattened stack through
      :class:`~repro.core.FeedforwardBPPSA`.

    ``config`` is anything :meth:`ScanConfig.coerce` accepts — a
    config, a spec string (``"blelloch/thread:8/sparse=auto"``), a
    mapping, or ``None``; ``overrides`` beat it field-wise.  As a
    convenience for drivers that manage executor lifecycles
    themselves, ``executor=<ScanExecutor instance>`` is accepted as an
    override and handed to the engine directly (instances are not
    representable in a config, which is pure data).

    ::

        engine = repro.build_engine(model)                     # all defaults
        engine = repro.build_engine(model, "linear")           # spec string
        engine = repro.build_engine(model, cfg, executor="thread:8")
    """
    from repro.backend import ScanExecutor

    executor_instance = None
    if isinstance(overrides.get("executor"), ScanExecutor):
        executor_instance = overrides.pop("executor")
    cfg = ScanConfig.coerce(config, **overrides)

    from repro.core import FeedforwardBPPSA, RNNBPPSA
    from repro.nn.module import Sequential
    from repro.nn.rnn import RNNClassifier

    if isinstance(model, RNNClassifier):
        return RNNBPPSA(model, cfg, executor_instance)
    if isinstance(model, Sequential):
        return FeedforwardBPPSA(model, cfg, executor_instance)
    features = getattr(model, "features", None)
    classifier = getattr(model, "classifier", None)
    if isinstance(features, Sequential) and isinstance(classifier, Sequential):
        stacked = Sequential(*(list(features) + list(classifier)))
        return FeedforwardBPPSA(stacked, cfg, executor_instance)
    raise TypeError(
        "build_engine expects an RNNClassifier, a Sequential, or a model "
        "with features/classifier Sequentials (LeNet-5, VGG-11); got "
        f"{type(model).__name__}"
    )


def stage_configs(
    specs: Union[ScanConfig, str, Mapping[str, Any], None, Sequence[Any]],
    num_stages: Optional[int] = None,
    defaults: Optional[Mapping[str, Any]] = None,
) -> List[ScanConfig]:
    """Resolve a per-stage :class:`ScanConfig` list for a staged pipeline.

    ``specs`` is either one config-shaped value (anything
    :meth:`ScanConfig.coerce` accepts) broadcast to ``num_stages``
    stages, or a sequence with one entry per stage — the PR 5 spec
    grammar verbatim, so ``["truncated/thread:2", "truncated/serial"]``
    pins stage 0 to a thread pool and stage 1 to serial.  Every entry
    runs the :meth:`ScanConfig.resolve` precedence ladder
    independently (explicit > ``defaults`` > global), so ``defaults``
    fill what no per-stage spec names while per-stage specs stay
    authoritative.  Returns fully resolved configs, ready for
    :meth:`repro.serve.EnginePool.get_many`.
    """
    if isinstance(specs, (list, tuple)):
        if num_stages is not None and len(specs) != num_stages:
            raise ValueError(
                f"got {len(specs)} stage specs for {num_stages} stages"
            )
        entries = list(specs)
    else:
        if num_stages is None:
            raise ValueError(
                "num_stages is required when broadcasting a single spec"
            )
        entries = [specs] * num_stages
    if not entries:
        raise ValueError("need at least one stage")
    return [ScanConfig.coerce(entry).resolve(defaults) for entry in entries]
